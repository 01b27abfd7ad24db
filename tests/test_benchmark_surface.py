"""The library surface that the benchmark under perfbench/ reads.

perfbench/selftest.py runs outside this suite's testpaths, so a change
that renamed or dropped what the benchmark reads would leave this suite
green and the benchmark broken.  These tests pin that surface, and one
short run of each workload checks that every op passes its oracle.
Change them together with perfbench/, as part of ROADMAP item 1 (the
benchmark refresh).
"""

import ast
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import islkit
import islkit.cli as cli

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def perfbench_literal(module: str, name: str):
    """The literal that perfbench/<module>.py binds to `name` at top
    level, read without running the file."""
    for node in ast.parse((PERFBENCH / f"{module}.py").read_text()).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if names == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{module}.py defines no {name}")


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


@pytest.mark.parametrize("layer", perfbench_literal("traced", "LAYERS"))
def test_traced_layers_import(layer):
    importlib.import_module(f"islkit.{layer}")


def test_validate_prints_the_checks_the_oracle_reads(capsys):
    # the oracle fails every validate op unless it prints exactly these
    # checks, in this order, each as `ok NAME max_error=... tol=...`;
    # a new check needs the oracle first
    checks = perfbench_literal("oracle", "VALIDATE_CHECKS")
    assert tuple(r.name for r in islkit.selfcheck.run_validation(13, 0)) == checks
    assert cli.main(["validate", "--max-n", "13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["ok", name] for name in checks]
    for line in lines:
        fields = line.split()
        assert len(fields) == 4, line
        assert fields[2].startswith("max_error=") and fields[3].startswith("tol="), line


def test_ops_run_as_a_module():
    # every benchmark op is one `python -m islkit.cli ...` process
    src = os.path.dirname(os.path.dirname(islkit.__file__))
    proc = subprocess.run([sys.executable, "-m", "islkit.cli", "optimize", "--m", "2"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1


def test_checkout_probe_finds_the_sources():
    # perfbench/run.py refuses to run unless this probe, with src on
    # PYTHONPATH, prints the package file under src
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", "import islkit; print(islkit.__file__)"],
                          capture_output=True, text=True, timeout=60,
                          cwd=src.parent, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(src / "islkit" / "__init__.py")


@pytest.mark.parametrize("workload", perfbench_literal("workloads", "WORKLOADS"))
def test_benchmark_smoke_run(tmp_path, workload):
    # one short untraced run of each workload, on a copy of src/ and
    # perfbench/ so that the results file lands in the copy: every op
    # must pass its oracle
    root = PERFBENCH.parent
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), proc.stderr
