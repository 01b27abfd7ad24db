"""Cross-path consistency checks runnable from the command line.

Every closed form in the package has a direct-evaluation twin; each
check here drives one such pair over a seeded random workload and
reports the worst observed deviation.
"""

from __future__ import annotations

import math
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


def _worst_error(name: str, tolerance: float, batches) -> CheckResult:
    """Judge a check by its worst error over all its inputs.

    batches yields (errors, label) pairs: an array or a scalar of
    errors, and label(i), which names entry i of the flattened errors
    and is called before the next batch is drawn.  Ties keep the first
    strict maximum, within a batch and across batches, so an all-zero
    check names its first input.  A NaN error counts as the worst: the
    first NaN makes max_error NaN, fails the check and is the input named.
    """
    worst, where = -math.inf, ""
    for errors, label in batches:
        errors = np.ravel(errors)
        i = int(np.argmax(errors))  # the first NaN if there is one
        err = float(errors[i])
        if err > worst or (math.isnan(err) and not math.isnan(worst)):
            worst, where = err, label(i)
    return CheckResult(name, worst, tolerance, worst <= tolerance, where)


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
    def batches():
        for n in range(3, max_n + 1, 2):
            rows = rng.choice([-1, 1], (10, n))  # pairs (0, 1), (2, 3), ...
            pairs = spectral.energy_matrix_spectral(rows)[range(0, 10, 2), range(1, 10, 2)]
            direct = np.array([cross_energy(rows[i], rows[i + 1]) for i in range(0, 10, 2)])
            yield np.abs(pairs - direct) / np.abs(direct), lambda i: f"n={n}"
    return _worst_error("spectral-vs-direct", 1e-9, batches())


def check_kernel_twin(max_n: int, rng) -> CheckResult:
    def batches():
        for n in range(5, max_n + 1, 2):
            quads = random_quads(rng, n, 500)
            direct = spectral.kernel_sums_direct(quads, n)
            closed = spectral.kernel_sums_closed_form(quads, n)
            yield (np.abs(closed - direct) / (1.0 + np.abs(direct)),
                   lambda i: f"n={n} quad={tuple(quads[i].tolist())}")
    return _worst_error("kernel-twin", 1e-8, batches())


def check_gauss_sum_closed_form(max_n: int, rng) -> CheckResult:
    def batches():
        for n in primes_in_range(3, max_n):
            ell = legendre_sequence(n)
            at_roots = spectral.gf_at_roots(ell)
            closed = spectral.legendre_gf_closed_form(n, np.arange(n), ell)
            yield np.abs(closed - at_roots) / (1.0 + np.abs(at_roots)), lambda j: f"n={n} j={j}"
    return _worst_error("gauss-sum-closed-form", 1e-9, batches())


EPS = float(np.finfo(np.float64).eps)


def _power_of_ten_above(bound: float) -> float:
    return float(10.0 ** math.ceil(math.log10(bound)))


def _fft_value_error(n: int) -> float:
    """Model bound d = 100 eps n log2(4n) on the error of one FFT value of
    an order-n generating function with +-1 coefficients.

    A radix-2 FFT of length m with accurate twiddles has a normwise
    relative error of about 7 u log2(m), u = eps/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 24.2).  For a prime n
    numpy's pocketfft runs Bluestein's algorithm, three such transforms of
    a length m < 4n and two chirp products, or, for small n, one direct
    pass whose n-term sums are off by at most about n u ||a||_1 = n^2 u.
    100 eps log2(4n) covers both with a wide margin.  One value is off by
    at most the normwise error, and ||Q||_2 = sqrt(n) ||a||_2 = n.
    """
    return 100 * EPS * n * math.log2(4 * n)


def check_gauss_sum_magnitude(max_n: int, rng) -> CheckResult:
    """|Q(eps_j) - 1|^2 must equal n exactly for every j != 0.

    With z = Q(eps_j) - 1, |z| = sqrt(n), and the FFT value off by at most
    d = _fft_value_error(n), the relative error | |z + dz|^2 - n | / n is
    at most (2 sqrt(n) d + d^2) / n, plus 4 eps for the subtraction, the
    modulus and the square.  The bound grows with n; the tolerance is its
    value at max_n rounded up to a power of ten: 1e-11 at max_n = 199 and
    1e-10 at validate's cap of 10 000 (6.8e-11 there), so a closed form
    off by a relative 1e-6 fails.
    """
    d = _fft_value_error(max_n)
    tolerance = _power_of_ten_above((2 * math.sqrt(max_n) * d + d * d) / max_n + 4 * EPS)

    def batches():
        for n in primes_in_range(3, max_n):
            offsets = spectral.gf_at_roots(legendre_sequence(n))[1:] - 1.0
            yield np.abs(np.abs(offsets) ** 2 - n) / n, lambda i: f"n={n} j={i + 1}"
    return _worst_error("gauss-sum-magnitude", tolerance, batches())


def check_periodic_bound(max_n: int, rng) -> CheckResult:
    """Cyclic autocorrelation of a Legendre sequence stays within 3 in
    magnitude at every nonzero lag."""
    def batches():
        for n in primes_in_range(3, max_n):
            c = periodic_autocorrelation(legendre_sequence(n))
            yield np.abs(c), lambda i: f"n={n} k={i + 1}"
    return _worst_error("periodic-bound", 3.0, batches())


def _dilog_head(thetas: np.ndarray, terms: int) -> np.ndarray:
    """Re sum_{k <= terms} z^k / k^2 at z = e^(i theta), by blocks."""
    width = math.isqrt(terms - 1) + 1
    k = np.arange(1, -(-terms // width) * width + 1, dtype=np.float64).reshape(-1, width)
    # zero past the last term; complex, so the product runs as one BLAS call
    weights = np.where(k <= terms, 1.0 / (k * k), 0.0).T.astype(np.complex128)
    in_block = np.exp(1j * np.outer(thetas, np.arange(width))) @ weights
    block_start = np.exp(1j * np.outer(thetas, k[:, 0]))
    return np.sum(block_start * in_block, axis=1).real


def dilog_series(thetas, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Re sum_k z^k / k^2 at z = e^(i theta) from the first `terms` terms
    plus a closed-form tail estimate, with a bound on what the estimate
    misses.  Returns (values, bounds), one of each per angle.

    The head runs over blocks k = k0 + j, j < w, of width w = ceil(sqrt K):
    z^k = z^k0 z^j comes from an (angles x w) and an (angles x K/w) table
    of exponentials, so the head is one complex matrix product against
    the 1/k^2 weights and a sum over the blocks, in O(angles sqrt K)
    memory.

    With K = terms, summation by parts gives the tail
    sum_{k>K} z^k / k^2 = z^(K+1) / ((1 - z)(K + 1)^2) + R; applying it
    twice more to R, whose coefficients 1/k^2 - 1/(k-1)^2 rise
    monotonically to 0, gives |R| <= 4 / ((K + 1)^3 |1 - z|^2).  Where
    |1 - z| < 1e-14 (z = 1 up to rounding) the tail is the
    Euler-Maclaurin sum 1/K - 1/(2K^2) + 1/(6K^3), short by less than
    1/(30 K^5) at z = 1 and by at most |1 - z| (1 + ln(2 / (K |1 - z|)))
    < 1e-12 from z^k versus 1.

    Rounding: a table entry e^(i theta m) is off by at most
    eps (|theta| m / 2 + 2) (the rounded angle, then the exponential), so
    a term z^k / k^2 (two entries, their product, the weight) is off by
    at most eps (|theta| k / 2 + 8) / k^2, which sums to
    eps (|theta| (1 + ln K) / 2 + 8 pi^2/6) over the head.  The matrix
    product and the block sum add at most 2 (w + K/w + 2) eps pi^2/6.
    Both together stay under the K * eps * pi^2/6 each bound adds for
    K >= 100 and |theta| <= 2 pi (at K = 100: 104 eps against 164 eps).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    head = _dilog_head(thetas, terms)

    one_minus_z = 1.0 - np.exp(1j * thetas)
    gap = np.abs(one_minus_z)
    off = gap >= 1e-14
    tail = np.full(len(thetas), 1.0 / terms - 1.0 / (2.0 * terms**2) + 1.0 / (6.0 * terms**3))
    bound = np.full(len(thetas), 1.0 / (30.0 * terms**5) + 1e-12)
    tail[off] = (np.exp(1j * (terms + 1) * thetas[off]) / one_minus_z[off]).real / (terms + 1) ** 2
    bound[off] = 4.0 / ((terms + 1) ** 3 * gap[off] ** 2)
    return head + tail, bound + terms * EPS * np.pi**2 / 6


DILOG_GRID = 101
DILOG_TERMS = 20_000


def check_dilog_series(rng) -> CheckResult:
    """Closed-form Re Li2(e^(i theta)) against its series on a grid of
    DILOG_GRID angles in (-2 pi, 2 pi), through the tail-corrected
    dilog_series with K = DILOG_TERMS.

    The tolerance is the largest remainder bound over the grid, rounded
    up to a power of ten.  The grid holds theta = 0 exactly, and every
    other angle has |1 - z| >= 2 sin(pi / 51) > 0.123; at K = 20 000 the
    bound is 4 / (20001^3 * 0.123^2) + 20 000 * eps * pi^2/6 < 4.1e-11,
    so the tolerance is 1e-10.
    """
    thetas = np.linspace(-2 * np.pi, 2 * np.pi, DILOG_GRID + 2)[1:-1]
    series, bound = dilog_series(thetas, DILOG_TERMS)
    err = np.abs(re_dilog_on_circle(thetas) - series)
    tol = _power_of_ten_above(bound.max())
    return _worst_error("dilog-series", tol, [(err, lambda i: f"theta={thetas[i]:.6f}")])


def check_lagrange_interpolation(max_n: int, rng) -> CheckResult:
    def batches():
        for n in range(3, max_n + 1, 2):
            seq = rng.normal(size=n)
            at_roots = spectral.gf_at_roots(seq)
            direct = spectral.gf_eval(seq, -spectral.roots_of_unity(n))
            interp = spectral.interpolate_negated_root(at_roots, np.arange(n))
            yield np.abs(direct - interp), lambda j: f"n={n} j={j}"
    return _worst_error("lagrange-interpolation", 1e-8, batches())


def check_pattern_decomposition(max_n: int, rng) -> CheckResult:
    """The pattern-by-pattern reconstruction of S_minus against its direct
    FFT sum, for two random rotations of the Legendre sequence at every
    prime n <= max_n; run_validation caps max_n at 61.

    Error model, with d = _fft_value_error(n), q = 1 + sqrt(n) >= |Q(eps_j)|
    (the Gauss sum) and L = (2/n) sum_k 1 / |1 + eps_k|, the largest row
    sum of the Lagrange weights, so |Q(-eps_j)| <= L q:
    - the reconstruction is exact for the polynomial through the computed
      Q(eps_k), whose values at -eps_j are off by at most L d; the direct
      sum's values there are off by at most d;
    - S_minus = sum_j |Q_a(-eps_j)|^2 |Q_b(-eps_j)|^2 then moves by at
      most 4 n (L^4 + L^3) q^3 d over both paths;
    - every rotation pair at every prime n <= 61 has S_minus >= n^3 / 4
      (the least ratio is 0.266, at n = 13; tests check all pairs);
    - rounding in the pattern sums adds at most 4 n eps times their
      absolute sum (|Q| <= q, |1 / (eps_q - eps_p)| <= 1 / (2 sin(pi/n))),
      under 2e-11 of S_minus at n = 61.
    At n = 61 (L = 3.58) the relative bound is
    16 (L^4 + L^3) q^3 d / n^2 + 2e-11 < 6.7e-9, so the tolerance is 1e-8.
    """
    def batches():
        for n in primes_in_range(3, max_n):
            base = legendre_sequence(n)
            for _ in range(2):
                ta, tb = rng.integers(0, n, size=2)
                a = rotate_left(base, int(ta))
                b = rotate_left(base, int(tb))
                direct = spectral.power_sum_at_negated_roots(a, b)
                recon = spectral.pattern_decomposition(a, b).negated_power_sum
                # np.maximum, not max: max(1.0, nan) drops the NaN
                err = np.maximum(abs(recon.real - direct), abs(recon.imag)) / abs(direct)
                yield err, lambda i: f"n={n} t=({ta},{tb})"
    return _worst_error("pattern-decomposition", 1e-8, batches())


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
        check_pattern_decomposition(min(max_n, 61), rng),
    ]
