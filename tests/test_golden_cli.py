"""Golden CLI corpus: exact stdout, stderr and exit code of fixed commands.

golden_cli.json pins what `isl`, `sweep`, `optimize`, `asym`, `surface`
and `gen` print, usage errors and bound refusals included, so a change
to any path behind them that moves a single byte fails here.  `validate` is left
out: its float error digits may legitimately move.  An intended change
of output edits the pinned text by hand, one entry at a time.
"""

import json
import pathlib

import pytest

import islkit.cli as cli

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_golden_output(capsys, case):
    code = cli.main(case["argv"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit"], case["stdout"], case["stderr"])

