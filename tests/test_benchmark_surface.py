"""The library surface that the benchmark under perfbench/ reads.

perfbench/selftest.py runs outside this suite's testpaths, so a change
that renamed or dropped what the benchmark reads would leave this suite
green and the benchmark broken.  These tests pin that surface.  Change
them together with perfbench/, as part of ROADMAP item 1 (the benchmark
refresh).
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import islkit
import islkit.cli as cli

TRACED = pathlib.Path(__file__).parent.parent / "perfbench" / "traced.py"


def traced_layers() -> tuple[str, ...]:
    """The LAYERS tuple of perfbench/traced.py, read without running it."""
    for node in ast.parse(TRACED.read_text()).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if names == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/traced.py defines no LAYERS")


def test_report_terms_read_by_the_oracle_test():
    # TestOracle compares these sums against an independent oracle
    report = islkit.isl_report(islkit.bind_rotations([0.1, 0.35, 0.6], 101).sequences())
    assert report.auto_terms.shape == (3,)
    assert report.cross_terms.shape == (3, 3)
    assert int(report.auto_terms.sum()) + int(report.cross_terms.sum()) == report.total


def test_optimizer_fields_read_by_the_tracer():
    result = islkit.optimize_rotations(4)
    assert len(result.fractions) == 4
    assert isinstance(result.asym_value, float)
    assert isinstance(result.refinement_steps, int)


def test_cli_functions_the_tracer_wraps():
    assert callable(cli.main)
    assert callable(cli._emit)


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layers_import(layer):
    importlib.import_module(f"islkit.{layer}")


def test_ops_run_as_a_module():
    # every benchmark op is one `python -m islkit.cli ...` process
    src = os.path.dirname(os.path.dirname(islkit.__file__))
    proc = subprocess.run([sys.executable, "-m", "islkit.cli", "optimize", "--m", "2"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1
