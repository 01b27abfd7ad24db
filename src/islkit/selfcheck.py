"""Cross-path consistency checks runnable from the command line.

Every closed form in the package has a direct-evaluation twin; each
check here drives one such pair over a seeded random workload and
reports the worst observed deviation.

The seeded inputs come from `_Draws`, the stdlib Mersenne Twister
(random.Random) behind the few numpy Generator methods the checks call:
the same draws for a seed on every platform, and no numpy.random import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import spectral
from .asymptotic import re_dilog_on_circle
from .correlation import _column_sums, cross_energy
from .sequences import _cut_rotations, _starts, legendre_sequence, primes_in_range


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    worst_input: str


class _Worst:
    """The worst error of one check, fed batch by batch so that no batch is
    held past its turn: add(errors, label) takes an array or a scalar of
    errors and label(i), which names entry i of the flattened errors.
    Ties keep the first strict maximum, within and across batches, so an
    all-zero check names its first input.  A NaN error counts as the
    worst: the first NaN makes max_error NaN, fails the check and is the
    input named."""

    def __init__(self, name: str, tolerance: float):
        self.name, self.tolerance = name, tolerance
        self.worst, self.where = -math.inf, ""

    def add(self, errors, label) -> None:
        errors = np.ravel(errors)
        i = int(np.argmax(errors))  # the first NaN if there is one
        err = float(errors[i])
        if err > self.worst or (math.isnan(err) and not math.isnan(self.worst)):
            self.worst, self.where = err, label(i)

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.worst, self.tolerance,
                           self.worst <= self.tolerance, self.where)


class _Draws:
    """Seeded draws from random.Random(seed), the stdlib Mersenne Twister,
    through the three numpy Generator methods the checks call.

    Each call reads one randbytes block as little-endian uint64 words and
    keeps their top 53 bits, u = word >> 11 times 2^-53, a uniform on
    the grid k 2^-53 in [0, 1).
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def _uniforms(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        words = np.frombuffer(self._random.randbytes(8 * count), dtype="<u8")
        return ((words >> 11) * 2.0**-53).reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """int64 values in [low, high): low + floor(u m), m = high - low, each
        off its share 1/m by at most 2^-53 (u m stays below m in float64)."""
        return low + (self._uniforms(size) * (high - low)).astype(np.int64)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return low + (high - low) * self._uniforms(size)

    def permuted(self, a, axis: int) -> np.ndarray:
        """a with each slice along axis shuffled: the order of one uniform
        per entry (a stable sort, which on short slices is the faster)."""
        a = np.asarray(a)
        order = np.argsort(self._uniforms(a.shape), axis=axis, kind="stable")
        return np.take_along_axis(a, order, axis=axis)


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
    return rng.permuted(quads, axis=1)


# energy_matrix_spectral against exact energies, here and in isl's cross-check
_SPECTRAL_VS_EXACT_TOL = 1e-9


def check_spectral_vs_direct(max_n: int, rng) -> CheckResult:
    worst = _Worst("spectral-vs-direct", _SPECTRAL_VS_EXACT_TOL)
    for n in range(3, max_n + 1, 2):
        rows = 2 * rng.integers(0, 2, (10, n)) - 1  # pairs (0, 1), (2, 3), ...
        pairs = spectral.energy_matrix_spectral(rows)[range(0, 10, 2), range(1, 10, 2)]
        direct = np.array([cross_energy(rows[i], rows[i + 1]) for i in range(0, 10, 2)])
        worst.add(np.abs(pairs - direct) / np.abs(direct), lambda i: f"n={n}")
    return worst.result()


def check_kernel_twin(max_n: int, rng) -> CheckResult:
    worst = _Worst("kernel-twin", 1e-8)
    for n in range(5, max_n + 1, 2):
        quads = random_quads(rng, n, 500)
        direct = spectral.kernel_sums_direct(quads, n)
        closed = spectral.kernel_sums_closed_form(quads, n)
        worst.add(np.abs(closed - direct) / (1.0 + np.abs(direct)),
                  lambda i: f"n={n} quad={tuple(quads[i].tolist())}")
    return worst.result()


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


def _magnitude_tolerance(max_n: int) -> float:
    """gauss-sum-magnitude's tolerance: |Q(eps_j) - 1|^2 must equal n
    exactly for every j != 0.

    With z = Q(eps_j) - 1, |z| = sqrt(n), and the FFT value off by at most
    d = _fft_value_error(n), the relative error | |z + dz|^2 - n | / n is
    at most (2 sqrt(n) d + d^2) / n, plus 4 eps for the subtraction, the
    modulus and the square.  The bound grows with n; the tolerance is its
    value at max_n rounded up to a power of ten: 1e-11 at max_n = 199 and
    1e-10 at validate's cap of 10 000 (6.8e-11 there), so a closed form
    off by a relative 1e-6 fails.
    """
    d = _fft_value_error(max_n)
    return _power_of_ten_above((2 * math.sqrt(max_n) * d + d * d) / max_n + 4 * EPS)


def prime_checks(max_n: int) -> list[CheckResult]:
    """gauss-sum-closed-form, gauss-sum-magnitude and periodic-bound, in
    one pass over the primes n <= max_n:
    - gauss-sum-closed-form: the closed-form Gauss sums against the
      transform of the Legendre sequence at every root of unity, the error
      relative to 1 + |value|;
    - gauss-sum-magnitude: |Q(eps_j) - 1|^2 against n at every j != 0,
      within _magnitude_tolerance(max_n);
    - periodic-bound: the cyclic autocorrelation r(k) + r(n - k) stays
      within 3 in magnitude at every nonzero lag, r the exact engine's lags.

    Each prime's Legendre sequence is built once and fed, as a one-row
    set, to one exact-engine stream (correlation._column_sums), in which
    consecutive primes share a transform.  Each yielded row's one
    gf_at_roots transform feeds both Gauss-sum checks, and periodic-bound
    folds its lags.  Each check keeps its own _Worst, and the engine holds
    one block of rows at a time: O(max_n) memory.
    """
    closed = _Worst("gauss-sum-closed-form", 1e-9)
    magnitude = _Worst("gauss-sum-magnitude", _magnitude_tolerance(max_n))
    bound = _Worst("periodic-bound", 3.0)
    rows = ((legendre_sequence(n), (0,)) for n in primes_in_range(3, max_n))
    for ell, _, lags in _column_sums(rows):
        n = len(ell)
        at_roots = spectral.gf_at_roots(ell)
        closed_form = spectral.legendre_gf_closed_form(n, np.arange(n), ell)
        closed.add(np.abs(closed_form - at_roots) / (1.0 + np.abs(at_roots)),
                   lambda j: f"n={n} j={j}")
        magnitude.add(np.abs(np.abs(at_roots[1:] - 1.0) ** 2 - n) / n,
                      lambda i: f"n={n} j={i + 1}")
        bound.add(np.abs(lags[1:] + lags[:0:-1]), lambda i: f"n={n} k={i + 1}")
    return [closed.result(), magnitude.result(), bound.result()]


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


def check_dilog_series() -> CheckResult:
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
    worst = _Worst("dilog-series", _power_of_ten_above(bound.max()))
    worst.add(err, lambda i: f"theta={thetas[i]:.6f}")
    return worst.result()


def check_lagrange_interpolation(max_n: int, rng) -> CheckResult:
    worst = _Worst("lagrange-interpolation", 1e-8)
    for n in range(3, max_n + 1, 2):
        seq = rng.uniform(-1, 1, n)
        at_roots = spectral.gf_at_roots(seq)
        direct = spectral.gf_eval(seq, -spectral.roots_of_unity(n))
        interp = spectral.interpolate_negated_root(at_roots, np.arange(n))
        worst.add(np.abs(direct - interp), lambda j: f"n={n} j={j}")
    return worst.result()


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
    - rounding in the pattern sums: each sum over root indices applies a
      circulant along the difference column c (_inverse_differences)
      through three transforms, each off by at most d / n of its input's
      2-norm times sqrt(n).  With |F k| <= ||k||_1 for a kernel k's
      transform, a circulant's output moves in 2-norm by at most
      E_k ||y||_2, E_k = (d / n) (3 ||k||_1 + sqrt(n) ||k||_2), the third
      ||k||_1 covering the products and the 1/n.  With every bracket slot
      at most q, ||c||_2^2 = (n^2 - 1) / 12 and ||c^2||_2^2 =
      (n^2 - 1)(n^2 + 11) / 720, the pattern total (n^4 / 16 times
      S_minus) moves by at most n^3 q^4 (4 E_(c^2) + 3 ||c||_1 E_c), a
      relative 64 q^4 (4 E_(c^2) + 3 ||c||_1 E_c) / n^4 of S_minus, under
      5.1e-10 at n = 61 (||c||_1 = 82.3); the final sums over p add at
      most 4 n eps of their absolute sums, which the direct double sums
      bound, under 2e-11 of S_minus.
    At n = 61 (L = 3.58) the relative bound is
    16 (L^4 + L^3) q^3 d / n^2 + 5.3e-10 < 7.2e-9, so the tolerance is 1e-8.
    """
    worst = _Worst("pattern-decomposition", 1e-8)
    for n in primes_in_range(3, max_n):
        base = legendre_sequence(n)
        for _ in range(2):
            ta, tb = rng.integers(0, n, size=2)
            a, b = _cut_rotations(base, _starts((ta, tb), n), np.empty((2, n)))
            direct = spectral.power_sum_at_negated_roots(a, b)
            recon = spectral.pattern_decomposition(a, b).negated_power_sum
            # np.maximum, not max: max(1.0, nan) drops the NaN
            err = np.maximum(abs(recon.real - direct), abs(recon.imag)) / abs(direct)
            worst.add(err, lambda i: f"n={n} t=({ta},{tb})")
    return worst.result()


def run_validation(max_n: int = 61, seed: int = 0) -> list[CheckResult]:
    """Run every cross-path check up to max_n; one result per check."""
    if max_n < 7:
        raise ValueError("max_n must be >= 7")
    rng = _Draws(seed)
    return [
        check_spectral_vs_direct(min(max_n, 199), rng),
        check_kernel_twin(min(max_n, 101), rng),
        *prime_checks(max_n),
        check_dilog_series(),
        check_lagrange_interpolation(min(max_n, 199), rng),
        check_pattern_decomposition(min(max_n, 61), rng),
    ]
