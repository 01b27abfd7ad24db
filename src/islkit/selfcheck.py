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


# the five coincidence patterns over four distinct draws (p, q, r, s):
# pppp, pppq, ppqq, ppqr, pqrs
_PATTERNS = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 2], [0, 1, 2, 3]])


def _distinct_draws(rng, n: int, rows: int, k: int) -> np.ndarray:
    """rows x k indices in [0, n), distinct within each row, each row
    uniform over the ordered k-tuples.

    Draw i is uniform over [0, n - i) and is shifted past the indices the
    row already holds, in ascending order, so it lands on the matching
    free index; memory is O(rows * k).
    """
    out = np.empty((rows, k), dtype=np.int64)
    for i in range(k):
        u = rng.integers(0, n - i, size=rows)
        for taken in np.sort(out[:, :i], axis=1).T:
            u += u >= taken
        out[:, i] = u
    return out


def random_quads(rng, n: int, count: int) -> np.ndarray:
    """Index quadruples stratified over the five coincidence patterns.

    Uniform sampling almost never hits the coincident patterns for
    large n, so each pattern gets count // 5 rows, built from the same
    draws of four distinct indices; each row's entries are shuffled.
    """
    if n < 5:
        raise ValueError("stratified quadruples need n >= 5")
    per = max(1, count // 5)
    quads = _distinct_draws(rng, n, per, 4)[:, _PATTERNS].reshape(-1, 4)
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
        closed = spectral.legendre_gf_closed_form(n, np.arange(n), ell)
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


# floats in one block of the angle-by-term cosine matrix of dilog_series
_DILOG_BLOCK = 200_000


def dilog_series(thetas, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Re sum_k z^k / k^2 at z = e^(i theta) from the first `terms` terms
    plus a closed-form tail estimate, with a bound on what the estimate
    misses.  Returns (values, bounds), one of each per angle.

    With K = terms, summation by parts gives the tail
    sum_{k>K} z^k / k^2 = z^(K+1) / ((1 - z)(K + 1)^2) + R; applying it
    twice more to R, whose coefficients 1/k^2 - 1/(k-1)^2 rise
    monotonically to 0, gives |R| <= 4 / ((K + 1)^3 |1 - z|^2).  Where
    |1 - z| < 1e-14 (z = 1 up to rounding) the tail is the
    Euler-Maclaurin sum 1/K - 1/(2K^2) + 1/(6K^3), short by less than
    1/(30 K^5) at z = 1 and by at most |1 - z| (1 + ln(2 / (K |1 - z|)))
    < 1e-12 from z^k versus 1.  Each bound adds K * eps * pi^2/6 for the
    rounding of the K-term sum and of its cosines.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    k = np.arange(1, terms + 1)
    inv_k2 = 1.0 / (k * k)
    head = np.empty(len(thetas))
    step = max(1, _DILOG_BLOCK // terms)
    for i in range(0, len(thetas), step):
        head[i:i + step] = np.cos(np.outer(thetas[i:i + step], k)) @ inv_k2

    one_minus_z = 1.0 - np.exp(1j * thetas)
    gap = np.abs(one_minus_z)
    off = gap >= 1e-14
    tail = np.full(len(thetas), 1.0 / terms - 1.0 / (2.0 * terms**2) + 1.0 / (6.0 * terms**3))
    bound = np.full(len(thetas), 1.0 / (30.0 * terms**5) + 1e-12)
    tail[off] = (np.exp(1j * (terms + 1) * thetas[off]) / one_minus_z[off]).real / (terms + 1) ** 2
    bound[off] = 4.0 / ((terms + 1) ** 3 * gap[off] ** 2)
    return head + tail, bound + terms * np.finfo(np.float64).eps * np.pi**2 / 6


def check_dilog_series(rng, grid: int = 101, terms: int = 20_000) -> CheckResult:
    """Closed-form Re Li2(e^(i theta)) against its series on a grid of
    angles in (-2 pi, 2 pi), through the tail-corrected dilog_series.

    The tolerance is the largest remainder bound over the grid, rounded
    up to a power of ten.  The default grid holds theta = 0 exactly, and
    every other angle has |1 - z| >= 2 sin(pi / 51) > 0.123; at K = 20 000
    the bound is 4 / (20001^3 * 0.123^2) + 20 000 * eps * pi^2/6 < 4.1e-11,
    so the tolerance is 1e-10.
    """
    thetas = np.linspace(-2 * np.pi, 2 * np.pi, grid + 2)[1:-1]
    series, bound = dilog_series(thetas, terms)
    err = np.abs(re_dilog_on_circle(thetas) - series)
    i = int(np.argmax(err))
    tol = float(10.0 ** np.ceil(np.log10(bound.max())))
    return _result("dilog-series", err[i], tol, f"theta={thetas[i]:.6f}")


def check_lagrange_interpolation(max_n: int, rng) -> CheckResult:
    worst, where = 0.0, ""
    for n in range(3, max_n + 1, 2):
        seq = rng.normal(size=n)
        at_roots = spectral.gf_at_roots(seq)
        direct = spectral.gf_eval(seq, -spectral.roots_of_unity(n))
        interp = spectral.interpolate_negated_root(at_roots, np.arange(n))
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
