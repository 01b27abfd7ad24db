"""islkit benchmark: one workload, closed loop, one CLI process per op.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is a fresh
`python -m islkit.cli ...` process, started only after the previous one
exited.  Its argv comes from the seed alone (see workloads.py); its output
is checked against an oracle that shares no code with islkit (oracle.py),
after the timed loop.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the per-op record and a
machine fingerprint go to .perfbench-results/.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and then through traced.py, and reports the per-layer metrics.

A shared host's speed drifts by up to a factor of two over seconds, so every
child process is bracketed by a short fixed loop in this process, and the
end-to-end times are the child's times at reference speed: measured time
x REF_NOMINAL_S / (mean of the two bracketing loop times).  The unscaled
values go to the results file too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import layers
import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench-results")

# Seconds between cold `import islkit` runs; setup_s is their median.
IMPORT_INTERVAL = 1.0

# The reference loop: REF_LOOPS iterations take REF_NOMINAL_S at
# reference speed (about the median on the 2-core Xeon of README.md's
# baseline).
REF_LOOPS = 300_000
REF_NOMINAL_S = 0.025

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class OpResult:
    argv: list[str]
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str
    failure: str | None = None
    # REF_NOMINAL_S / the mean reference loop time around this process.
    speed_scale: float = 1.0

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed_scale

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.speed_scale


def child_env() -> dict[str, str]:
    """Environment of every child: islkit from the checkout, one BLAS thread.

    On a host with few cores, a second BLAS thread finds the other core
    busy as often as not and spin-waits; it doubles CPU time without
    shortening the op and makes wall time depend on what else runs.
    """
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> OpResult:
    """Run one process to exit; wall time from spawn to exit, rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return OpResult(argv=cmd, traced=False, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    maxrss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                    stdout=out.decode(errors="replace"), stderr=err[0].decode(errors="replace"))


def run_op(argv: list[str], env: dict[str, str], spans_path: str | None = None,
           op_id: int = 0) -> OpResult:
    if spans_path is None:
        cmd = [sys.executable, "-m", "islkit.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, str(op_id), *argv]
    result = spawn(cmd, env)
    result.argv = argv
    result.traced = spans_path is not None
    return result


def judge(result: OpResult) -> bool:
    """Check one op against its oracle; record and return whether it passed."""
    result.failure = oracle.check(result.argv, result.returncode, result.stdout, result.stderr)
    return result.failure is None


def cold_import(env: dict[str, str]) -> OpResult:
    return spawn([sys.executable, "-c", "import islkit"], env)


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Bracketed:
    """Runs children one at a time, each between two reference loops."""

    def __init__(self) -> None:
        self.last_ref = reference_s()
        self.ref_total = self.last_ref

    def __call__(self, child, *args) -> OpResult:
        result = child(*args)
        ref = reference_s()
        self.ref_total += ref
        result.speed_scale = 2 * REF_NOMINAL_S / (self.last_ref + ref)
        self.last_ref = ref
        return result


def imported_from_checkout(env: dict[str, str]) -> bool:
    probe = spawn([sys.executable, "-c", "import islkit; print(islkit.__file__)"], env)
    path = probe.stdout.strip()
    return probe.returncode == 0 and os.path.dirname(path) == os.path.join(SRC, "islkit")


def span_file(spans_dir: str, op_id: int) -> str:
    return os.path.join(spans_dir, f"op{op_id}.npz")


def measure(workload: str, seed: int, seconds: float, env: dict[str, str],
            spans_dir: str | None) -> tuple[list[OpResult], float, list[OpResult]]:
    """Closed loop over whole rounds of ops; returns the ops, the wall time
    they took and the cold imports.

    A round starts only if the previous round's duration still fits in
    `seconds`.  A cold import runs after an op whenever IMPORT_INTERVAL
    has passed since the last one, so set-up time is sampled across the
    whole run; those imports and the reference loops are not part of the
    returned wall time.
    """
    results: list[OpResult] = []
    imports: list[OpResult] = []
    start = time.perf_counter()
    bracketed = Bracketed()
    last_round = 0.0
    last_import = -math.inf
    for ops in workloads.rounds(workload, seed):
        if results and time.perf_counter() - start + last_round > seconds:
            break
        round_start = time.perf_counter()
        for argv in ops:
            results.append(bracketed(run_op, argv, env))
            if spans_dir is not None:
                op_id = len(results)
                results.append(bracketed(run_op, argv, env, span_file(spans_dir, op_id), op_id))
            if time.perf_counter() - last_import >= IMPORT_INTERVAL:
                imports.append(bracketed(cold_import, env))
                last_import = time.perf_counter()
        last_round = time.perf_counter() - round_start
    wall = (time.perf_counter() - start - bracketed.ref_total
            - sum(r.wall_s for r in imports))
    return results, wall, imports


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end_metrics(results: list[OpResult], imports: list[OpResult]) -> dict:
    """Times at reference speed; see the module docstring."""
    return {
        "setup_s": statistics.median(r.scaled_wall_s for r in imports),
        "op_p50_s": statistics.median(r.scaled_wall_s for r in results),
        "ops_per_s": sum(r.failure is None for r in results)
        / sum(r.scaled_wall_s for r in results),
        "op_cpu_s": statistics.median(r.scaled_cpu_s for r in results),
        "peak_rss_mb": max(r.maxrss_mb for r in results),
    }


def unscaled_metrics(results: list[OpResult], wall: float, imports: list[OpResult]) -> dict:
    """The end-to-end times as measured, for the results file."""
    return {
        "setup_s": statistics.median(r.wall_s for r in imports),
        "op_p50_s": statistics.median(r.wall_s for r in results),
        "ops_per_s": sum(r.failure is None for r in results) / wall,
        "op_cpu_s": statistics.median(r.cpu_s for r in results),
    }


def per_layer(results: list[OpResult], spans_dir: str, imports: list[OpResult]) -> dict:
    traced = [r for r in results if r.traced]
    totals = layers.SpanTotals()
    for op_id, r in enumerate(results):
        if r.traced:
            with np.load(span_file(spans_dir, op_id)) as data:
                totals.add_op(data["names"], data["spans"])
    err_ratios: dict[str, float] = {}
    for r in traced:
        if r.argv[0] == "validate":
            for check, ratio in (oracle.validate_err_ratios(r.stdout) or {}).items():
                err_ratios[check] = max(err_ratios.get(check, 0.0), ratio)
    return layers.per_layer_metrics(
        totals, len(traced),
        output_bytes=sum(len(r.stdout.encode()) for r in traced),
        err_ratios=err_ratios,
        import_s=statistics.median(r.wall_s for r in imports),
        traced_wall=[r.wall_s for r in traced],
        untraced_p50=statistics.median(r.wall_s for r in results if not r.traced),
    )


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: child_env().get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "islkit", "__init__.py")):
        print(f"error: no islkit sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    if not imported_from_checkout(env):
        print(f"error: `import islkit` does not resolve to {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(),
              "loadavg_before": os.getloadavg()}
    os.makedirs(RESULTS, exist_ok=True)
    spans_dir = None
    if args.trace:
        spans_dir = os.path.join(RESULTS, f"spans-{os.getpid()}")
        os.makedirs(spans_dir, exist_ok=True)
    try:
        results, wall, imports = measure(args.workload, args.seed, args.seconds, env, spans_dir)
        record["loadavg_after"] = os.getloadavg()
        failed = sum(not judge(r) for r in results)
        if args.trace:
            values = per_layer(results, spans_dir, imports)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values = end_to_end_metrics(results, imports)
            units = dict(END_TO_END)
    finally:
        if spans_dir is not None:
            shutil.rmtree(spans_dir, ignore_errors=True)

    untraced = [r.wall_s for r in results if not r.traced]
    record.update({
        "wall_s": wall,
        "import_s": [r.wall_s for r in imports],
        "import_speed_scale": [r.speed_scale for r in imports],
        "failed_frac": failed / len(results),
        "op_tail": tail(untraced),
        "ops": [{"argv": r.argv, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "speed_scale": r.speed_scale, "maxrss_mb": r.maxrss_mb,
                 "exit": r.returncode, "failure": r.failure}
                for r in results],
        "metrics": values,
        "unscaled": unscaled_metrics(results, wall, imports),
    })
    out_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in results:
        if r.failure:
            print(f"FAILED {' '.join(r.argv)}: {r.failure}", file=sys.stderr)
    print(f"per-op record: {out_path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
