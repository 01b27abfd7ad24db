import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import islkit
from islkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    # the block computes the same set's totals twice, term by term and streamed
    assert namespace["totals"].total == namespace["report"].total


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """Each `islkit ...` line of the README's `## CLI` sh block, as the
    arguments after the program name, with the comment lines below it."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S)
    assert match, "no sh block under ## CLI"
    examples = []
    for line in match.group(1).splitlines():
        if line.startswith("islkit "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


def test_cli_examples_run(tmp_path, capsys):
    shown = {}
    for argv, comments in cli_examples():
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) == 0, argv
        shown[argv[0]] = capsys.readouterr().out, comments
    assert list(shown) == ["gen", "isl", "asym", "surface", "sweep", "optimize", "validate"]

    out, comments = shown["gen"]
    assert out.splitlines()[0] == comments[0] == "1 1 1 -1 1 -1 -1"
    out, comments = shown["optimize"]
    assert out.startswith("0.125 0.375  2.166667\n") and "0.125 0.375  2.166667" in comments
    # the first comment line of isl, asym and sweep opens with their CSV header
    for command in ("isl", "asym", "sweep"):
        out, comments = shown[command]
        assert out.splitlines()[0] == comments[0].split(":")[0].split()[0], command
    assert (tmp_path / "surface.csv").read_text().splitlines()[0] == "f1,f2,asym_isl"


def test_private_names_resolve():
    # every private name the README puts in backticks, bare or as
    # module._name, must still exist in an islkit module
    modules = [importlib.import_module(f"islkit.{m.name}")
               for m in pkgutil.iter_modules(islkit.__path__)]
    names = re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`", README.read_text(encoding="utf-8"))
    assert names
    for module, name in names:
        scope = [m for m in modules if m.__name__ == f"islkit.{module}"] if module else modules
        assert any(hasattr(m, name) for m in scope), f"{module}.{name}"
