"""Correlation energies from generating-function values on the unit circle.

For odd length n, the sum of squared cross-correlations of two real
sequences equals (S_plus + S_minus) / (2n), where S_plus and S_minus are
the sums over the n-th roots of unity (resp. their negatives) of
|Q_a(z) Q_b*(z)|^2.  The n-th roots and their negatives are together the
2n-th roots of unity; any L >= 2n - 1 roots serve as well, since the
2n - 1 lags of a correlation fit in a length-L transform without
wrapping.  So a set's energies are one Gram matrix of power spectra
(`power_spectrum`, shared with the exact path) at the same 2*3*5-smooth
length L >= 2n - 1 the exact path uses, where numpy's FFT needs no
generic radix-n pass for a prime n.  Lagrange interpolation from the
n-th roots to their negatives is one circulant convolution, taken
through gf_at_roots as a sign flip of the odd-indexed coefficients.
S_minus additionally admits a closed-form expansion through
partial-fraction kernel sums over quadruples of root indices, which
collapses to O(n^2) sums; every closed form has a direct twin.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .sequences import _require_odd_prime


def roots_of_unity(n: int) -> np.ndarray:
    """The n complex numbers exp(2*pi*i*j/n), j = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _require_odd(n: int) -> None:
    if n % 2 == 0:
        raise ValueError(f"length must be odd, got {n}")


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray, int]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    _require_odd(len(a))
    return a, b, len(a)


def _row_sums(terms, rows: int, n: int, dtype) -> np.ndarray:
    """Sums along each of `rows` rows of n terms, terms(rows_slice) giving
    a block of rows as an array, ~4096 terms (64 KB complex) per block.

    A row sum, not a matrix product: each row sums in the same order
    whether it comes alone or in a block.  Small blocks, because one
    block of every row is fresh memory on each call: in a fresh process
    the kernel-twin check at n <= 101 took ~35 ms this way and ~65 ms
    with one 500 x n block per n.
    """
    out = np.empty(rows, dtype=dtype)
    step = max(1, 4096 // max(n, 1))
    for i0 in range(0, rows, step):
        out[i0:i0 + step] = terms(slice(i0, i0 + step)).sum(axis=-1)
    return out


def gf_eval(seq, z):
    """Generating-function value sum_j a_j z^j, at a scalar z or
    elementwise over an array of points: each point's row of increasing
    powers z^0 .. z^(n-1) (np.vander) times the coefficients, summed
    along the row by _row_sums.  The direct twin of the FFT and
    interpolation routes."""
    seq = np.asarray(seq)
    z = np.asarray(z)
    points = z.reshape(-1).astype(np.result_type(z, seq))

    def terms(rows):
        powers = np.vander(points[rows], len(seq), increasing=True)
        powers *= seq
        return powers
    return _row_sums(terms, len(points), len(seq), points.dtype).reshape(z.shape)[()]


def gf_at_roots(seq) -> np.ndarray:
    """Generating-function values at all n-th roots of unity (last axis).

    Q(eps_j) = sum_k a_k exp(2 pi i j k / n) is n times the inverse DFT
    of the sequence (real or complex), taken with numpy.fft in O(n log n).
    """
    a = np.asarray(seq)
    return a.shape[-1] * np.fft.ifft(a.astype(np.result_type(a, np.float64), copy=False))


def _smooth_length(k: int) -> int:
    """Smallest integer >= k with no prime factor above 5."""
    best = 1 << max(k - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35 << max(0, (k - 1) // p35).bit_length()
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def power_spectrum(rows, length: int) -> np.ndarray:
    """|rfft(rows, length)|^2 along the last axis, bins 0 .. length // 2:
    |Q|^2 of the zero-padded rows at exp(2 pi i k / length), squared in
    place in the transform's output (numpy.fft, loaded on first use) and
    returned in it, imaginary parts zero, the form irfft reads uncopied."""
    spec = np.fft.rfft(rows, length)
    power, imag = spec.real, spec.imag
    np.square(power, out=power)
    power += np.square(imag, out=imag)
    imag.fill(0.0)
    return spec


def legendre_gf_closed_form(n: int, j, ell_j):
    """Closed-form generating-function value of the Legendre sequence at
    the j-th root of unity (quadratic Gauss sum plus the fixed 0th term),
    for a scalar j or elementwise over an array of j with matching ell_j.

    The sqrt(n) offset is real for n = 1 (mod 4) and imaginary for
    n = 3 (mod 4).
    """
    _require_odd_prime(n)
    offset = np.sqrt(n) if n % 4 == 1 else 1j * np.sqrt(n)
    values = np.where(np.asarray(j) % n == 0, 1.0 + 0.0j, 1.0 + np.asarray(ell_j) * offset)
    return values[()]


def power_sum_at_negated_roots(a, b) -> float:
    """S_minus = sum_j |Q_a(-eps_j) Q_b*(-eps_j)|^2, the negated-roots half
    of sum_k X_ab(k)^2 = (S_plus + S_minus) / 2n, evaluated directly (the
    twin of the pattern-sum reconstruction): Q(-eps_j) = sum_k (-1)^k a_k
    eps_j^k is gf_at_roots of the sequence, odd-indexed terms negated."""
    a, b, n = _as_pair(a, b)
    signs = (-1.0) ** np.arange(n)
    qa, qb = gf_at_roots(signs * a), gf_at_roots(signs * b)
    return float(np.sum((qa * qa.conj()).real * (qb * qb.conj()).real))


def interpolate_negated_root(at_roots, j):
    """The polynomial's value at -eps_j from its values Q at the n-th roots
    of unity (n odd), for a scalar j or elementwise over an array of j.

    Lagrange interpolation on the roots of unity collapses to the weights
    (2/n) eps_k / (eps_j + eps_k) = (2/n) / (1 + eps_((j - k) mod n)), a
    circulant: all n values are the cyclic convolution (2/n) (t * Q).  For
    odd n, t = 1/(1 + eps) = gf_at_roots((-1)^k) / 2, so that negates the
    odd-indexed coefficients of Q, which the inverse transform recovers.
    """
    at_roots = np.asarray(at_roots)
    n = len(at_roots)
    _require_odd(n)
    coeffs = np.conj(gf_at_roots(np.conj(at_roots))) / n
    values = gf_at_roots((-1.0) ** np.arange(n) * coeffs)
    return values[np.asarray(j) % n]


def energy_matrix_spectral(rows) -> np.ndarray:
    """(M, M) cross-correlation energies, all lags, of M rows of odd length
    n: 1/L of the Gram matrix of the rows' |Q|^2 at the L-th roots of
    unity, L = _smooth_length(2n - 1), where the 2n - 1 lags of every
    correlation fit without wrapping.  Power bins other than 0 and L/2
    each stand for a conjugate pair, so they carry the weight sqrt(2).
    The diagonal minus n^2 (the lag-0 mainlobe) is each row's auto
    sidelobe energy."""
    if np.ndim(rows) != 2:
        raise ValueError(f"expected an (M, n) array of sequences, got shape {np.shape(rows)}")
    n = np.shape(rows)[-1]
    _require_odd(n)
    length = _smooth_length(2 * n - 1)
    # bins k with 2k = 0 (mod L), 0 and L/2, are their own conjugates
    weights = np.where(2 * np.arange(length // 2 + 1) % length, np.sqrt(2.0), 1.0)
    power = power_spectrum(rows, length).real * weights
    return power @ power.T / length


def kernel_sums_direct(quads, n: int) -> np.ndarray:
    """Kernel sums sum_j eps_j^2 / prod_i (eps_j + eps_{q_i}) over an
    array of index quadruples q (reduced mod n), each by its literal
    n-term sum; verification twin of kernel_sums_closed_form.

    With h_j = exp(i pi j / n), a square root of eps_j, the summand is
    the product over the four slots of h_j / (eps_j + eps_{q_i}), an
    entry of one n x n table (O(n^2) memory).  Each quadruple's row of
    terms is four gathered table rows multiplied together, summed along
    the row by _row_sums.
    """
    _require_odd(n)
    quads = np.asarray(quads, dtype=np.int64) % n
    eps = roots_of_unity(n)
    half = np.exp(1j * np.pi * np.arange(n) / n)  # h_j, h_j^2 = eps_j
    table = half / np.add.outer(eps, eps)

    def terms(rows):
        q = quads[rows]
        product = table[q[:, 0]]
        for c in range(1, 4):
            product *= table[q[:, c]]
        return product
    return _row_sums(terms, len(quads), n, np.complex128)


def kernel_sums_closed_form(quads, n: int) -> np.ndarray:
    """Closed-form kernel sums over an array of index quadruples,
    dispatched on the coincidence pattern of each quadruple.

    The summand is symmetric in the four indices, so only the multiset
    matters: all equal, three equal, two pairs, one pair plus two
    distinct, or all distinct (which sums to zero); each of the first
    four is one pattern kernel, evaluated at the quadruples it covers.
    """
    _require_odd(n)
    quads = np.asarray(quads, dtype=np.int64) % n
    eps = roots_of_unity(n)
    s = np.sort(quads, axis=1)
    e01, e12, e23 = (s[:, :-1] == s[:, 1:]).T

    def g(q, p):
        return 1.0 / (eps[q] - eps[p])

    out = np.zeros(len(quads), dtype=np.complex128)

    mask = e01 & e12 & e23
    out[mask] = _all_equal(n, eps[s[mask, 0]])

    # three equal: the middle two always belong to the triple, and the
    # single index sits at either end after sorting
    mask = e12 & (e01 != e23)
    tripled, single = s[mask, 1], np.where(e01[mask], s[mask, 3], s[mask, 0])
    out[mask] = _three_equal(n, eps[tripled], eps[single], g(single, tripled))

    mask = e01 & ~e12 & e23
    out[mask] = _two_pairs(n, g(s[mask, 2], s[mask, 0]))

    # one pair: after sorting it sits first, last or in the middle
    mask = e01.astype(int) + e12 + e23 == 1
    sc, first, last = s[mask], e01[mask], e23[mask]
    doubled = np.where(first, sc[:, 0], np.where(last, sc[:, 2], sc[:, 1]))
    lo = np.where(first, sc[:, 2], sc[:, 0])
    hi = np.where(last, sc[:, 1], sc[:, 3])
    out[mask] = _one_pair(n, g(lo, doubled), g(hi, doubled))

    # all distinct sums to zero: already initialized
    return out


@dataclass(frozen=True)
class PatternSums:
    """Contributions to the negated-roots power sum, grouped by the
    coincidence pattern of the kernel index quadruple."""

    all_equal: complex
    three_equal: complex
    one_pair: complex
    two_pairs: complex
    n: int

    @property
    def total(self) -> complex:
        return self.all_equal + self.three_equal + self.one_pair + self.two_pairs

    @property
    def negated_power_sum(self) -> complex:
        """Reconstructed sum over the negated roots: 16 / n^4 times the
        pattern total."""
        return 16.0 / self.n**4 * self.total


def _inverse_differences(eps: np.ndarray) -> np.ndarray:
    """g[p, q] = 1 / (eps_q - eps_p) off the diagonal, 0 on it."""
    diff = eps[None, :] - eps[:, None]
    np.fill_diagonal(diff, 1.0)
    g = 1.0 / diff
    np.fill_diagonal(g, 0.0)
    return g


# Pattern kernels K(q) = sum_j eps_j^2 / prod_i (eps_j + eps_{q_i}), one per
# coincidence pattern, in root values p = eps_p, q = eps_q and inverse
# differences g = 1 / (eps_q - eps_p) (g_q, g_r from eps_p): kernel_sums_closed_form
# takes them at its quadruples, pattern_decomposition on the (p, q) grid.

def _all_equal(n, p):  # K(p, p, p, p)
    return (n**4 / 3.0 + 2.0 * n**2 / 3.0) / 16.0 / p**2


def _three_equal(n, p, q, g):  # K(p, p, p, q)
    return (n**2 / 8.0) * (q + p) / p * g**2


def _two_pairs(n, g):  # K(p, p, q, q)
    return -(n**2 / 2.0) * g**2


def _one_pair(n, g_q, g_r):  # K(p, p, q, r), q != r
    return -(n**2 / 4.0) * g_q * g_r


@functools.cache
def _arrangements(word: str) -> np.ndarray:
    """Masks (role, arrangement, slot, 1): which of the four kernel slots
    each index of the word takes, per distinct arrangement of the word."""
    places = np.array(list(dict.fromkeys(itertools.permutations(word))))
    return np.array([places == role for role in sorted(set(word))])[..., None]


def _brackets(eps, qa, qb, word: str) -> np.ndarray:
    """Bracket terms of a coincidence pattern, e.g. "ppqr" for a pair p and
    singles q, r.  Interpolating Q(-eps_j) and its conjugate
    (interpolate_negated_root) gives S_minus = (16 / n^4) sum_q K(q)
    prod_i v_i(q_i), the slots carrying v = (eps Q_a, Q_a*, eps Q_b, Q_b*).
    Returns the factors of p, q (, r), a row per arrangement of the word
    over the slots, each the product of the slots that index takes."""
    slots = np.array([eps * qa, qa.conj(), eps * qb, qb.conj()])
    return np.where(_arrangements(word), slots, 1.0).prod(axis=2)


def pattern_decomposition(a, b) -> PatternSums:
    """Closed-form decomposition of the negated-roots power sum.

    The quadruple index sum collapses, pattern by pattern, to one O(n)
    term and three O(n^2) sums, the pattern kernels evaluated on the
    (p, q) grid; the one-pair triple sum factors through the matrix of
    inverse root differences.  Time and memory are O(n^2).
    """
    a, b, n = _as_pair(a, b)
    eps = roots_of_unity(n)
    qa, qb = gf_at_roots(a), gf_at_roots(b)
    g = _inverse_differences(eps)  # 0 at p = q, so every kernel is 0 there

    # sums over ordered (p, q) of bilinear forms x^T K y; ppqq and its
    # swap qqpp are both arrangements, so they visit each quadruple twice
    def bilinear(kernel, word):
        x, y = _brackets(eps, qa, qb, word)
        return complex(np.sum(x * (y @ kernel.T)))

    (x,) = _brackets(eps, qa, qb, "pppp")
    all_equal = complex(np.sum(_all_equal(n, eps) * x))
    three_equal = bilinear(_three_equal(n, eps[:, None], eps[None, :], g), "pppq")
    two_pairs = bilinear(_two_pairs(n, g), "ppqq") / 2
    # _one_pair(n, 1, 1) g_q g_r is the one-pair kernel; the triple sum's is -g_q g_r
    one_pair = -_one_pair(n, 1.0, 1.0) / 2 * _one_pair_triple_sum(eps, qa, qb, g, g * g)
    return PatternSums(all_equal=all_equal, three_equal=three_equal, one_pair=one_pair,
                       two_pairs=two_pairs, n=n)


def _one_pair_triple_sum(eps: np.ndarray, qa: np.ndarray, qb: np.ndarray,
                         g: np.ndarray, g2: np.ndarray) -> complex:
    """Triple sum over distinct (p, q, r) of the one-pair brackets times
    -1 / ((eps_q - eps_p)(eps_r - eps_p)), in O(n^2).

    The brackets are the twelve arrangements of ppqr over the four kernel
    slots (_brackets).  Swapping q and r turns one into another, so the
    sum over ordered (q, r) visits every quadruple twice, and
    pattern_decomposition halves it before scaling by the one-pair
    kernel's constant.

    With g[p, q] = 1 / (eps_q - eps_p) (0 at q = p), as
    _inverse_differences builds it, and g2 = g o g, the kernel is
    -g[p, q] g[p, r], so a separable term x_p y_q z_r sums to
    -sum_p x_p ((g y)_p (g z)_p - (g2 (y o z))_p): the product of the
    two single sums over q != p and r != p, less its q = r diagonal.
    """
    x, y, z = _brackets(eps, qa, qb, "ppqr")
    gy, gz, gyz = y @ g.T, z @ g.T, (y * z) @ g2.T
    return complex(-np.sum(x * (gy * gz - gyz)))
