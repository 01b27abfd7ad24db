"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the time its child spans cover;
calls nest on one thread, so children never overlap and that union is
their sum.  Counts and times are per traced op (the run's total divided
by its number of traced ops), so runs of different length compare.
"""

from __future__ import annotations

import numpy as np

from oracle import VALIDATE_CHECKS
from traced import LAYERS

SELFCHECK_FUNCTIONS = {
    "selfcheck.check_" + check.replace("-", "_"): check for check in VALIDATE_CHECKS
}

# (name, unit, better) in the order the benchmark reports them.
PER_LAYER = [
    ("sequences.legendre_sequence.calls", "count/op", "lower"),
    ("sequences.legendre_sequence.total_s", "s/op", "lower"),
    ("sequences.bind_rotations.calls", "count/op", "lower"),
    ("sequences.bind_rotations.total_s", "s/op", "lower"),
    ("sequences.primes_in_range.total_s", "s/op", "lower"),
    ("correlation.isl_report.calls", "count/op", "lower"),
    ("correlation.isl_report.total_s", "s/op", "lower"),
    ("correlation.isl_report.self_s", "s/op", "lower"),
    ("correlation.aperiodic_correlation.calls", "count/op", "lower"),
    ("correlation.aperiodic_correlation.total_s", "s/op", "lower"),
    ("correlation.aperiodic_correlation.n2_sum", "n2/op", "lower"),
    ("correlation.aperiodic_correlation.n2_per_s", "n2/s", "higher"),
    ("correlation.cross_energy.calls", "count/op", "lower"),
    ("spectral.gf_at_roots.calls", "count/op", "lower"),
    ("spectral.gf_at_roots.total_s", "s/op", "lower"),
    ("spectral.gf_at_roots.n2_sum", "n2/op", "lower"),
    ("spectral.cross_energy_spectral.calls", "count/op", "lower"),
    ("spectral.cross_energy_spectral.total_s", "s/op", "lower"),
    ("spectral.gf_eval.calls", "count/op", "lower"),
    ("spectral.gf_eval.total_s", "s/op", "lower"),
    ("spectral.interpolate_negated_root.total_s", "s/op", "lower"),
    ("spectral.kernel_sums.total_s", "s/op", "lower"),
    ("spectral.pattern_decomposition.total_s", "s/op", "lower"),
    ("asymptotic.isl_limit.calls", "count/op", "lower"),
    ("asymptotic.isl_limit.total_s", "s/op", "lower"),
    ("asymptotic.isl_limit_batch.rows", "rows/op", "lower"),
    ("asymptotic.isl_limit_batch.total_s", "s/op", "lower"),
    ("asymptotic.isl_limit_batch.rows_per_s", "rows/s", "higher"),
    ("optimize.optimize_rotations.total_s", "s/op", "lower"),
    ("optimize.grid_search.total_s", "s/op", "lower"),
    ("optimize.grid_search.self_s", "s/op", "lower"),
    ("optimize.refine_s", "s/op", "lower"),
    ("optimize.descend_evals", "count/op", "lower"),
    ("optimize.accept_ratio", "ratio", "higher"),
    ("optimize.asym_gap_max", "isl/n2", "lower"),
    *[(f"selfcheck.{check}.{stat}", unit, "lower")
      for check in VALIDATE_CHECKS
      for stat, unit in (("total_s", "s/op"), ("err_ratio", "ratio"))],
    ("cli.main.total_s", "s/op", "lower"),
    ("cli.emit.total_s", "s/op", "lower"),
    ("cli.output_bytes", "B/op", "lower"),
    *[(f"{layer}.{stat}", unit, "lower")
      for layer in LAYERS
      for stat, unit in (("calls", "count/op"), ("self_s", "s/op"))],
    ("process.import_s", "s", "lower"),
    ("process.op_wall_s", "s/op", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
]


class SpanTotals:
    """Per-function sums over the spans of many ops."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.size: dict[str, int] = {}
        self.size2: dict[str, int] = {}
        self.descend_evals = 0
        self.gaps: list[float] = []

    def add_op(self, names: np.ndarray, spans: np.ndarray) -> None:
        if len(spans) == 0:
            return
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
        k = len(names)
        by_name = spans["name"]
        sized = spans["size"] >= 0
        size = np.where(sized, spans["size"], 0)
        sums = {
            "calls": np.bincount(by_name, minlength=k),
            "total": np.bincount(by_name, weights=dur, minlength=k),
            "self_time": np.bincount(by_name, weights=dur - child, minlength=k),
            "size": np.bincount(by_name, weights=size, minlength=k),
            "size2": np.bincount(by_name, weights=size.astype(np.float64) ** 2, minlength=k),
        }
        for field, values in sums.items():
            acc = getattr(self, field)
            for name, v in zip(names, values):
                if v:
                    acc[str(name)] = acc.get(str(name), 0) + v.item()

        name_of = np.asarray(names)[by_name]
        optimizer = name_of == "optimize.optimize_rotations"
        if optimizer.any():
            # every isl_limit call directly under optimize_rotations is a
            # descent evaluation, except the final re-evaluation
            under = nested & (name_of == "asymptotic.isl_limit")
            under[under] = optimizer[parent[under]]
            self.descend_evals += int(under.sum()) - int(optimizer.sum())
            self.gaps.extend(spans["value"][optimizer].tolist())

    def get(self, field: str, name: str) -> float:
        return getattr(self, field).get(name, 0)

    def layer(self, field: str, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in getattr(self, field).items() if k.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals: SpanTotals, ops: int, output_bytes: int,
                      err_ratios: dict[str, float], import_s: float,
                      traced_wall: list[float], untraced_p50: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the totals of a traced run of `ops` ops."""
    t = totals
    values = {
        "sequences.legendre_sequence.calls": t.get("calls", "sequences.legendre_sequence"),
        "sequences.legendre_sequence.total_s": t.get("total", "sequences.legendre_sequence"),
        "sequences.bind_rotations.calls": t.get("calls", "sequences.bind_rotations"),
        "sequences.bind_rotations.total_s": t.get("total", "sequences.bind_rotations"),
        "sequences.primes_in_range.total_s": t.get("total", "sequences.primes_in_range"),
        "correlation.isl_report.calls": t.get("calls", "correlation.isl_report"),
        "correlation.isl_report.total_s": t.get("total", "correlation.isl_report"),
        "correlation.isl_report.self_s": t.get("self_time", "correlation.isl_report"),
        "correlation.aperiodic_correlation.calls": t.get("calls", "correlation.aperiodic_correlation"),
        "correlation.aperiodic_correlation.total_s": t.get("total", "correlation.aperiodic_correlation"),
        "correlation.aperiodic_correlation.n2_sum": t.get("size2", "correlation.aperiodic_correlation"),
        "correlation.cross_energy.calls": t.get("calls", "correlation.cross_energy"),
        "spectral.gf_at_roots.calls": t.get("calls", "spectral.gf_at_roots"),
        "spectral.gf_at_roots.total_s": t.get("total", "spectral.gf_at_roots"),
        "spectral.gf_at_roots.n2_sum": t.get("size2", "spectral.gf_at_roots"),
        "spectral.cross_energy_spectral.calls": t.get("calls", "spectral.cross_energy_spectral"),
        "spectral.cross_energy_spectral.total_s": t.get("total", "spectral.cross_energy_spectral"),
        "spectral.gf_eval.calls": t.get("calls", "spectral.gf_eval"),
        "spectral.gf_eval.total_s": t.get("total", "spectral.gf_eval"),
        "spectral.interpolate_negated_root.total_s": t.get("total", "spectral.interpolate_negated_root"),
        # the scalar kernel_sum_* wrap these, so they alone hold the work
        "spectral.kernel_sums.total_s": t.get("total", "spectral.kernel_sums_direct")
        + t.get("total", "spectral.kernel_sums_closed_form"),
        "spectral.pattern_decomposition.total_s": t.get("total", "spectral.pattern_decomposition"),
        "asymptotic.isl_limit.calls": t.get("calls", "asymptotic.isl_limit"),
        "asymptotic.isl_limit.total_s": t.get("total", "asymptotic.isl_limit"),
        "asymptotic.isl_limit_batch.rows": t.get("size", "asymptotic.isl_limit_batch"),
        "asymptotic.isl_limit_batch.total_s": t.get("total", "asymptotic.isl_limit_batch"),
        "optimize.optimize_rotations.total_s": t.get("total", "optimize.optimize_rotations"),
        "optimize.grid_search.total_s": t.get("total", "optimize.grid_search"),
        "optimize.grid_search.self_s": t.get("self_time", "optimize.grid_search"),
        "optimize.refine_s": t.get("self_time", "optimize.optimize_rotations"),
        "optimize.descend_evals": t.descend_evals,
        "cli.main.total_s": t.get("total", "cli.main"),
        "cli.emit.total_s": t.get("total", "cli._emit"),
        "cli.output_bytes": output_bytes,
        "process.op_wall_s": sum(traced_wall),
    }
    for name, check in SELFCHECK_FUNCTIONS.items():
        values[f"selfcheck.{check}.total_s"] = t.get("total", name)
    for layer in LAYERS:
        values[f"{layer}.calls"] = t.layer("calls", layer)
        values[f"{layer}.self_s"] = t.layer("self_time", layer)
    values = {k: _ratio(v, ops) for k, v in values.items()}

    values["correlation.aperiodic_correlation.n2_per_s"] = _ratio(
        t.get("size2", "correlation.aperiodic_correlation"),
        t.get("total", "correlation.aperiodic_correlation"))
    values["asymptotic.isl_limit_batch.rows_per_s"] = _ratio(
        t.get("size", "asymptotic.isl_limit_batch"), t.get("total", "asymptotic.isl_limit_batch"))
    values["optimize.accept_ratio"] = _ratio(
        t.get("size", "optimize.optimize_rotations"), t.descend_evals)
    values["optimize.asym_gap_max"] = max(t.gaps, default=0.0)
    for check in VALIDATE_CHECKS:
        values[f"selfcheck.{check}.err_ratio"] = err_ratios.get(check, 0.0)
    values["process.import_s"] = import_s
    values["tracing.overhead_frac"] = _ratio(float(np.median(traced_wall)), untraced_p50) - 1.0
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
