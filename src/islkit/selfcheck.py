"""Cross-path consistency checks runnable from the command line.

Every closed form in the package has a direct-evaluation twin; each
check here drives one such pair over a seeded random workload and
reports the worst observed deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .asymptotic import re_dilog_on_circle
from .correlation import cross_energy, periodic_autocorrelation
from .sequences import legendre_sequence, primes_in_range, rotate_left


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    worst_input: str


def _result(name, max_error, tolerance, worst_input) -> CheckResult:
    return CheckResult(
        name=name,
        max_error=float(max_error),
        tolerance=tolerance,
        passed=bool(max_error <= tolerance),
        worst_input=worst_input,
    )


def random_quads(rng, n: int, count: int) -> np.ndarray:
    """Index quadruples stratified over the five coincidence patterns.

    Uniform sampling almost never hits the coincident patterns for
    large n, so each pattern gets count // 5 shuffled draws.
    """
    if n < 5:
        raise ValueError("stratified quadruples need n >= 5")
    per = max(1, count // 5)
    rows = []
    for _ in range(per):
        p, q, r, s = rng.choice(n, size=4, replace=False)
        rows.append((p, p, p, p))
        rows.append((p, p, p, q))
        rows.append((p, p, q, q))
        rows.append((p, p, q, r))
        rows.append((p, q, r, s))
    quads = np.array(rows, dtype=np.int64)
    perm = rng.permuted(np.tile(np.arange(4), (len(quads), 1)), axis=1)
    return np.take_along_axis(quads, perm, axis=1)


def check_spectral_vs_direct(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in range(3, max_n + 1, 2):
        for _ in range(5):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            direct = cross_energy(a, b)
            spec_val = spectral.cross_energy_spectral(a, b)
            err = abs(spec_val - direct) / abs(direct)
            if err > worst:
                worst, where = err, f"n={n}"
    return _result("spectral-vs-direct", worst, 1e-9, where)


def check_kernel_twin(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in range(5, max_n + 1, 2):
        quads = random_quads(rng, n, 500)
        direct = spectral.kernel_sums_direct(quads, n)
        closed = spectral.kernel_sums_closed_form(quads, n)
        err = np.abs(closed - direct) / (1.0 + np.abs(direct))
        i = int(np.argmax(err))
        if err[i] > worst:
            worst, where = float(err[i]), f"n={n} quad={tuple(quads[i])}"
    return _result("kernel-twin", worst, 1e-8, where)


def check_gauss_sum_closed_form(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in primes_in_range(3, max_n):
        ell = legendre_sequence(n)
        at_roots = spectral.gf_at_roots(ell)
        closed = np.array(
            [spectral.legendre_gf_closed_form(n, j, int(ell[j])) for j in range(n)]
        )
        err = np.abs(closed - at_roots) / (1.0 + np.abs(at_roots))
        i = int(np.argmax(err))
        if err[i] > worst:
            worst, where = float(err[i]), f"n={n} j={i}"
    return _result("gauss-sum-closed-form", worst, 1e-9, where)


def check_gauss_sum_magnitude(max_n: int, rng) -> CheckResult:
    """|Q(eps_j) - 1|^2 must equal n exactly for every j != 0."""
    worst, where = 0.0, ""
    for n in primes_in_range(3, max_n):
        offsets = spectral.gf_at_roots(legendre_sequence(n))[1:] - 1.0
        err = np.abs(np.abs(offsets) ** 2 - n) / n
        i = int(np.argmax(err))
        if err[i] > worst:
            worst, where = float(err[i]), f"n={n} j={i + 1}"
    return _result("gauss-sum-magnitude", worst, 1e-6, where)


def check_periodic_bound(max_n: int, rng) -> CheckResult:
    """Cyclic autocorrelation of a Legendre sequence stays within 3 in
    magnitude at every nonzero lag."""
    worst, where = 0.0, ""
    for n in primes_in_range(3, max_n):
        c = periodic_autocorrelation(legendre_sequence(n))
        i = int(np.argmax(np.abs(c)))
        if abs(c[i]) > worst:
            worst, where = float(abs(c[i])), f"n={n} k={i + 1}"
    return _result("periodic-bound", worst, 3.0, where)


def check_dilog_series(rng, grid: int = 101, terms: int = 200_000) -> CheckResult:
    thetas = np.linspace(-2 * np.pi, 2 * np.pi, grid + 2)[1:-1]
    k = np.arange(1, terms + 1)
    inv_k2 = 1.0 / (k * k)
    worst, where = 0.0, ""
    for theta in thetas:
        series = float(np.cos(k * theta) @ inv_k2)
        err = abs(re_dilog_on_circle(theta) - series)
        if err > worst:
            worst, where = err, f"theta={theta:.6f}"
    return _result("dilog-series", worst, 1e-4, where)


def check_lagrange_interpolation(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in range(3, max_n + 1, 2):
        seq = rng.normal(size=n)
        at_roots = spectral.gf_at_roots(seq)
        direct = spectral.gf_eval(seq, -spectral.roots_of_unity(n))
        interp = np.array([spectral.interpolate_negated_root(at_roots, j) for j in range(n)])
        err = np.abs(direct - interp)
        j = int(np.argmax(err))
        if err[j] > worst:
            worst, where = float(err[j]), f"n={n} j={j}"
    return _result("lagrange-interpolation", worst, 1e-8, where)


def check_pattern_decomposition(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in primes_in_range(3, min(max_n, 61)):
        base = legendre_sequence(n)
        for _ in range(2):
            ta, tb = rng.integers(0, n, size=2)
            a = rotate_left(base, int(ta))
            b = rotate_left(base, int(tb))
            direct = spectral.power_sum_at_negated_roots(a, b)
            recon = spectral.pattern_decomposition(a, b).negated_power_sum
            err = max(abs(recon.real - direct), abs(recon.imag)) / abs(direct)
            if err > worst:
                worst, where = err, f"n={n} t=({ta},{tb})"
    return _result("pattern-decomposition", worst, 1e-6, where)


def run_validation(max_n: int = 61, seed: int = 0) -> list[CheckResult]:
    """Run every cross-path check up to max_n; one result per check."""
    if max_n < 7:
        raise ValueError("max_n must be >= 7")
    rng = np.random.default_rng(seed)
    return [
        check_spectral_vs_direct(min(max_n, 199), rng),
        check_kernel_twin(min(max_n, 101), rng),
        check_gauss_sum_closed_form(max_n, rng),
        check_gauss_sum_magnitude(max_n, rng),
        check_periodic_bound(max_n, rng),
        check_dilog_series(rng),
        check_lagrange_interpolation(min(max_n, 199), rng),
        check_pattern_decomposition(max_n, rng),
    ]
