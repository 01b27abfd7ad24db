"""Tests of the benchmark itself.

Run with `python -m pytest perfbench/selftest.py` from the repository
root.  The file name keeps these tests out of the package's own pytest
run, whose time they would otherwise add to.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import oracle
import run
import workloads

sys.path.insert(0, run.SRC)
import islkit  # noqa: E402  (the oracle is compared against the package)


def cli(*argv: str) -> run.OpResult:
    return run.run_op(list(argv), run.child_env())


def traced(tmp_path, *argv: str) -> layers.SpanTotals:
    path = str(tmp_path / "spans.npz")
    result = run.run_op(list(argv), run.child_env(), path, 0)
    assert run.judge(result), result.failure
    totals = layers.SpanTotals()
    with np.load(path) as data:
        totals.add_op(data["names"], data["spans"])
    return totals


class TestOracle:
    def test_pinned_n19997(self):
        auto, cross = oracle.energies(19997, [0.1, 0.35, 0.6, 0.85])
        assert (auto + cross, auto, cross) == (4938481436, 475025176, 4463456260)

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 101, 199, 211, 499])
    def test_matches_islkit_on_small_primes(self, n):
        rng = random.Random(n)
        fractions = [rng.randrange(10_000) / 10_000 for _ in range(rng.randint(1, 5))]
        report = islkit.isl_report(islkit.bind_rotations(fractions, n).sequences())
        assert oracle.energies(n, fractions) == (
            int(report.auto_terms.sum()), int(report.cross_terms.sum()))
        assert np.array_equal(oracle.legendre(n), islkit.legendre_sequence(n))

    def test_asymptotic_matches_islkit(self):
        rng = random.Random(0)
        for m in range(1, 7):
            fractions = [rng.random() for _ in range(m)]
            assert oracle.asymptotic_total(fractions) == pytest.approx(
                islkit.isl_limit(fractions).total, rel=1e-13)

    def test_primes_match_islkit(self):
        assert workloads.primes_between(0, 2000) == islkit.primes_in_range(0, 2000)

    @pytest.mark.parametrize("argv", [
        ["isl", "--n", "101", "--fractions", "0.1", "0.35", "0.6", "0.85"],
        ["isl", "--n", "1009", "--fractions", "0.0000", "0.9999"],
        ["sweep", "--fractions", "0.1", "0.2", "0.7", "--n-min", "23", "--n-max", "61"],
        ["optimize", "--m", "2"],
        ["surface", "--resolution", "8"],
        ["validate", "--max-n", "11", "--seed", "3"],
    ])
    def test_accepts_real_output(self, argv):
        result = cli(*argv)
        assert run.judge(result), result.failure

    def test_corrupted_digit_counts_as_failed_op(self):
        result = cli("isl", "--n", "101", "--fractions", "0.1", "0.35")
        header, row = result.stdout.splitlines()
        cells = row.split(",")
        cells[2] = cells[2][:-1] + str((int(cells[2][-1]) + 1) % 10)
        result.stdout = "\n".join([header, ",".join(cells)]) + "\n"
        assert not run.judge(result)
        assert "isl output" in result.failure

    def test_nonzero_exit_and_traceback_fail(self):
        result = cli("isl", "--n", "9", "--fractions", "0.1")
        assert result.returncode == 1
        assert not run.judge(result)
        assert oracle.check(["validate"], 0, "", "Traceback (most recent call last)") is not None

    def test_validate_rejects_failed_check(self):
        good = cli("validate", "--max-n", "11", "--seed", "0").stdout
        assert oracle.validate_err_ratios(good) is not None
        bad = good.replace("ok  ", "FAIL", 1)
        assert oracle.validate_err_ratios(bad) is None
        assert oracle.validate_err_ratios("\n".join(good.splitlines()[:7])) is None


class TestWorkloads:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_argv(self, workload):
        def first(seed):
            rounds = itertools.islice(workloads.rounds(workload, seed), 12)
            return [argv for ops in rounds for argv in ops]

        assert first(7) == first(7)
        assert first(7) != first(8)

    def test_exact_large_stays_on_the_direct_path(self):
        for ops in itertools.islice(workloads.rounds("exact-large", 0), 50):
            n = int(ops[0][2])
            assert 199 < n <= 20_000 and islkit.is_prime(n)

    def test_optimize_round_is_full_mix(self):
        ops = next(workloads.rounds("optimize", 0))
        kinds = sorted(" ".join(argv[:3]) if argv[0] == "optimize" else argv[0] for argv in ops)
        assert kinds == [f"optimize --m {m}" for m in range(2, 7)] + ["surface"]


class TestTracing:
    """Each wrapper fires where the layer table predicts work and stays
    silent where it predicts none."""

    def test_exact_path(self, tmp_path):
        t = traced(tmp_path, "isl", "--n", "1009", "--fractions", "0.1", "0.6")
        assert t.get("calls", "correlation.aperiodic_correlation") == 3
        assert t.get("size2", "correlation.aperiodic_correlation") == 3 * 1009**2
        assert t.get("calls", "correlation.isl_report") == 1
        assert t.get("calls", "sequences.legendre_sequence") == 1
        assert t.get("calls", "sequences.bind_rotations") == 1
        assert t.get("calls", "cli._emit") == 1
        for layer in ("spectral", "asymptotic", "optimize", "selfcheck"):
            assert t.layer("calls", layer) == 0, layer

    def test_spectral_crosscheck_below_200(self, tmp_path):
        t = traced(tmp_path, "isl", "--n", "101", "--fractions", "0.1", "0.6")
        assert t.get("calls", "spectral.cross_energy_spectral") == 3
        assert t.get("calls", "spectral.gf_at_roots") > 0

    def test_sweep(self, tmp_path):
        t = traced(tmp_path, "sweep", "--fractions", "0.1", "0.2", "0.7",
                   "--n-min", "23", "--n-max", "61")
        primes = len(islkit.primes_in_range(23, 61))
        assert t.get("calls", "correlation.aperiodic_correlation") == 6 * primes
        assert t.get("calls", "sequences.primes_in_range") == 1
        assert t.get("calls", "asymptotic.isl_limit") == 1
        assert t.layer("calls", "spectral") == 0
        assert t.layer("calls", "optimize") == 0

    def test_optimize(self, tmp_path):
        t = traced(tmp_path, "optimize", "--m", "2")
        assert t.get("calls", "optimize.grid_search") == 1
        assert t.get("size", "asymptotic.isl_limit_batch") > 0
        assert t.descend_evals > 0
        assert len(t.gaps) == 1 and abs(t.gaps[0]) < 1e-9
        for layer in ("sequences", "correlation", "spectral", "selfcheck"):
            assert t.layer("calls", layer) == 0, layer

    def test_surface(self, tmp_path):
        t = traced(tmp_path, "surface", "--resolution", "8")
        assert t.get("calls", "asymptotic.isl_limit") == 81
        assert t.layer("calls", "correlation") == 0

    def test_validate(self, tmp_path):
        t = traced(tmp_path, "validate", "--max-n", "11", "--seed", "0")
        for name in layers.SELFCHECK_FUNCTIONS:
            assert t.get("calls", name) == 1, name
        assert t.get("calls", "spectral.gf_eval") > 0
        assert t.get("calls", "spectral.interpolate_negated_root") > 0
        assert t.get("calls", "spectral.kernel_sums_direct") > 0
        assert t.get("calls", "spectral.pattern_decomposition") > 0
        assert t.layer("calls", "optimize") == 0

    def test_self_time_excludes_children(self, tmp_path):
        t = traced(tmp_path, "isl", "--n", "1009", "--fractions", "0.1", "0.6")
        report = "correlation.isl_report"
        assert 0 < t.get("self_time", report) < t.get("total", report)


class TestContract:
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    def test_times_are_scaled_by_the_bracketing_reference_loops(self, monkeypatch):
        refs = iter([0.02, 0.03, 0.05])
        monkeypatch.setattr(run, "reference_s", lambda: next(refs))
        bracketed = run.Bracketed()
        first = bracketed(run.cold_import, run.child_env())
        second = bracketed(run.cold_import, run.child_env())
        assert first.speed_scale == pytest.approx(2 * run.REF_NOMINAL_S / 0.05)
        assert second.speed_scale == pytest.approx(2 * run.REF_NOMINAL_S / 0.08)
        assert second.scaled_wall_s == pytest.approx(second.wall_s * second.speed_scale)
        assert bracketed.ref_total == pytest.approx(0.10)

    def test_children_run_one_blas_thread(self):
        probe = run.spawn([sys.executable, "-c", "import os, json; print(json.dumps("
                           f"[os.environ.get(k) for k in {list(run.THREAD_ENV)!r}]))"],
                          run.child_env())
        assert json.loads(probe.stdout) == ["1"] * len(run.THREAD_ENV)
        assert run.fingerprint()["thread_env"] == {k: "1" for k in run.THREAD_ENV}

    def test_fails_without_sources(self, tmp_path):
        shutil.copytree(run.HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_short_run_reports_every_metric(self):
        for trace, names in ((0, [n for n, _ in run.END_TO_END]),
                             (1, [n for n, _, _ in layers.PER_LAYER])):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
                 "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == names
