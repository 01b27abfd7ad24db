"""Correlation energies from generating-function values on the unit circle.

For odd length n, the sum of squared cross-correlations of two real
sequences equals (S_plus + S_minus) / (2n), where S_plus and S_minus are
the sums over the n-th roots of unity (resp. their negatives) of
|Q_a(z) Q_b*(z)|^2.  The n-th roots and their negatives are together the
2n-th roots of unity, so both sums come from one length-2n power
spectrum per sequence (`power_spectrum`, shared with `isl_report`), and
a set's energies are one Gram matrix.  S_minus additionally admits a
closed-form expansion through partial-fraction kernel sums over
quadruples of root indices, which collapses to O(n^2) sums; every
closed form has a direct twin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def gf_eval(seq, z):
    """Generating-function value sum_j a_j z^j, at a scalar z or
    elementwise over an array of points: each point's row of increasing
    powers z^0 .. z^(n-1) (np.vander, O(n) memory per point) times the
    coefficients, summed along the row.  The direct twin of the FFT and
    interpolation routes."""
    seq = np.asarray(seq)
    z = np.asarray(z)
    points = z.reshape(-1).astype(np.result_type(z, seq))
    terms = np.vander(points, len(seq), increasing=True)
    terms *= seq
    # a row sum, not a matrix product: each point sums in the same order
    # whether it comes alone or in an array
    return terms.sum(axis=-1).reshape(z.shape)[()]


def gf_at_roots(seq) -> np.ndarray:
    """Generating-function values at all n-th roots of unity (last axis).

    Q(eps_j) = sum_k a_k exp(2 pi i j k / n) is n times the inverse DFT
    of the sequence, taken with numpy.fft in O(n log n).
    """
    a = np.asarray(seq, dtype=np.float64)
    return a.shape[-1] * np.fft.ifft(a)


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


def gf_at_negated_roots(seq) -> np.ndarray:
    """Generating-function values at -eps_j, j = 0..n-1, the points S_minus
    sums over: Q(-eps_j) = sum_k (-1)^k a_k eps_j^k, so gf_at_roots of the
    sequence with its odd-indexed terms negated."""
    a = np.array(seq, dtype=np.float64)
    a[..., 1::2] *= -1.0
    return gf_at_roots(a)


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


def _power_product_sum(qa: np.ndarray, qb: np.ndarray) -> float:
    """sum_j |qa_j|^2 |qb_j|^2."""
    return float(np.sum((qa * qa.conj()).real * (qb * qb.conj()).real))


def power_sum_at_roots(a, b) -> float:
    """S_plus = sum_j |Q_a(eps_j) Q_b*(eps_j)|^2 over the n-th roots of
    unity, one half of the cross energy sum_k X_ab(k)^2 = (S_plus + S_minus) / 2n."""
    a, b, _ = _as_pair(a, b)
    return _power_product_sum(gf_at_roots(a), gf_at_roots(b))


def power_sum_at_negated_roots(a, b) -> float:
    """S_minus = sum_j |Q_a(-eps_j) Q_b*(-eps_j)|^2, the other half of
    sum_k X_ab(k)^2 = (S_plus + S_minus) / 2n, evaluated directly at the
    negated roots (the twin of the pattern-sum reconstruction)."""
    a, b, _ = _as_pair(a, b)
    return _power_product_sum(gf_at_negated_roots(a), gf_at_negated_roots(b))


def interpolate_negated_root(at_roots, j):
    """Reconstruct the polynomial value at -eps_j from its values at the
    n-th roots of unity (n odd), for a scalar j or elementwise over an
    array of j (O(n) memory per j).

    Lagrange interpolation on the roots of unity collapses to the weights
    (2/n) eps_k / (eps_j + eps_k) = (2/n) / (1 + eps_((j - k) mod n)), so
    every row of weights is read from one length-n table.
    """
    at_roots = np.asarray(at_roots)
    n = len(at_roots)
    _require_odd(n)
    table = 1.0 / (1.0 + roots_of_unity(n))
    # row j is table[(j - k) mod n] for k = 0..n-1: the window of
    # `unrolled` (unrolled[d] = table[(n - 1 - d) mod n]) that starts at n - 1 - j
    unrolled = table[(n - 1 - np.arange(2 * n - 1)) % n]
    j = np.asarray(j)
    weights = sliding_window_view(unrolled, n)[n - 1 - j.reshape(-1) % n]
    weights *= at_roots
    # a row sum, not a matrix product: each j sums in the same order
    # whether it comes alone or in an array
    return (2.0 / n) * weights.sum(axis=-1).reshape(j.shape)[()]


def energy_matrix_spectral(rows) -> np.ndarray:
    """(M, M) cross-correlation energies, all lags, of M rows of odd length
    n: 1/2n of the Gram matrix of the rows' |Q|^2 over the 2n-th roots, in
    which power bins 1 .. n-1 each stand for a conjugate pair.  The diagonal
    minus n^2 (the lag-0 mainlobe) is each row's auto sidelobe energy."""
    n = np.shape(rows)[-1]
    _require_odd(n)
    power = power_spectrum(rows, 2 * n).real * np.where(np.arange(n + 1) % n, np.sqrt(2.0), 1.0)
    return power @ power.T / (2 * n)


def kernel_sums_direct(quads, n: int) -> np.ndarray:
    """Kernel sums sum_j eps_j^2 / prod_i (eps_j + eps_{q_i}) over an
    array of index quadruples q (reduced mod n), each by its literal
    n-term sum; verification twin of kernel_sums_closed_form.

    With h_j = exp(i pi j / n), a square root of eps_j, the summand is
    the product over the four slots of h_j / (eps_j + eps_{q_i}), an
    entry of one n x n table (O(n^2) memory).  Each quadruple's row of
    terms is four gathered table rows multiplied together, summed along
    the row.
    """
    _require_odd(n)
    quads = np.asarray(quads, dtype=np.int64) % n
    eps = roots_of_unity(n)
    half = np.exp(1j * np.pi * np.arange(n) / n)  # h_j, h_j^2 = eps_j
    table = half / np.add.outer(eps, eps)
    out = np.empty(len(quads), dtype=np.complex128)
    # blocks of ~4096 terms (64 KB): in a fresh process the kernel-twin
    # check at n <= 101 took ~35 ms this way and ~65 ms with one 500 x n
    # block per n, whose temporaries are fresh memory on every call
    step = max(1, 4096 // n)
    for i0 in range(0, len(quads), step):
        q = quads[i0:i0 + step]
        terms = table[q[:, 0]]
        for c in range(1, 4):
            terms *= table[q[:, c]]
        out[i0:i0 + step] = terms.sum(axis=1)
    return out


def kernel_sums_closed_form(quads, n: int) -> np.ndarray:
    """Closed-form kernel sums over an array of index quadruples,
    dispatched on the coincidence pattern of each quadruple.

    The summand is symmetric in the four indices, so only the multiset
    matters: all equal, three equal, two pairs, one pair plus two
    distinct, or all distinct (which sums to zero).
    """
    _require_odd(n)
    quads = np.asarray(quads, dtype=np.int64) % n
    eps = roots_of_unity(n)
    s = np.sort(quads, axis=1)
    e01 = s[:, 0] == s[:, 1]
    e12 = s[:, 1] == s[:, 2]
    e23 = s[:, 2] == s[:, 3]

    out = np.zeros(len(quads), dtype=np.complex128)

    mask_a = e01 & e12 & e23
    if np.any(mask_a):
        p = eps[s[mask_a, 0]]
        out[mask_a] = (n**4 / 3.0 + 2.0 * n**2 / 3.0) / 16.0 / p**2

    # three equal: the single index sits at either end after sorting
    mask_b = (e01 & e12 & ~e23) | (~e01 & e12 & e23)
    if np.any(mask_b):
        sb = s[mask_b]
        tripled = np.where(sb[:, 1] == sb[:, 0], sb[:, 0], sb[:, 3])
        single = np.where(sb[:, 1] == sb[:, 0], sb[:, 3], sb[:, 0])
        p, q = eps[tripled], eps[single]
        out[mask_b] = (n**2 / 8.0) * (q + p) / (p * (q - p) ** 2)

    mask_d = e01 & ~e12 & e23
    if np.any(mask_d):
        p, q = eps[s[mask_d, 0]], eps[s[mask_d, 2]]
        out[mask_d] = -(n**2 / 2.0) / (p - q) ** 2

    mask_c = (e01 & ~e12 & ~e23) | (~e01 & e12 & ~e23) | (~e01 & ~e12 & e23)
    if np.any(mask_c):
        sc = s[mask_c]
        doubled = np.where(e01[mask_c], sc[:, 0], np.where(e12[mask_c], sc[:, 1], sc[:, 2]))
        lo = np.where(e01[mask_c], sc[:, 2], sc[:, 0])
        hi = np.where(e23[mask_c], sc[:, 1], sc[:, 3])
        p, q, r = eps[doubled], eps[lo], eps[hi]
        out[mask_c] = -(n**2 / 4.0) / ((q - p) * (r - p))

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


def pattern_decomposition(a, b) -> PatternSums:
    """Closed-form decomposition of the negated-roots power sum.

    The quadruple index sum collapses, pattern by pattern, to one O(n)
    term and three O(n^2) sums; the one-pair triple sum factors through
    the matrix of inverse root differences.  Time and memory are O(n^2).
    """
    a, b, n = _as_pair(a, b)
    eps = roots_of_unity(n)
    qa = gf_at_roots(a)
    qb = gf_at_roots(b)
    qac = qa.conj()
    qbc = qb.conj()
    aa = (qa * qac).real  # |Q_a|^2
    bb = (qb * qbc).real

    all_equal = (n**4 / 3.0 + 2.0 * n**2 / 3.0) / 16.0 * complex(np.sum(aa * bb))

    g = _inverse_differences(eps)
    g2 = g * g  # 1 / (eps_q - eps_p)^2, 0 at p = q

    # each double sum is a sum of bilinear forms u^T F v over (p, q)
    def bilinear(fac, pairs):
        u, v = (np.array(side) for side in zip(*pairs))
        return complex(np.sum(u * (v @ fac.T)))

    # three equal (p) against a single (q): four bracket terms
    fac3 = (eps[None, :] + eps[:, None]) / eps[:, None] * g2
    three_equal = (n**2 / 8.0) * bilinear(fac3, (
        (eps**2 * aa * qb, qbc),
        (eps * aa * qbc, eps * qb),
        (eps**2 * qa * bb, qac),
        (eps * qac * bb, eps * qa),
    ))

    # two distinct pairs (p, q): three bracket terms
    two_pairs = (n**2 / 2.0) * bilinear(-g2, (
        (eps * aa, eps * bb),
        (eps**2 * qa * qb, qac * qbc),
        (eps * qa * qbc, eps * qac * qb),
    ))

    one_pair = (n**2 / 8.0) * _one_pair_triple_sum(eps, qa, qb, g, g2)

    return PatternSums(
        all_equal=all_equal,
        three_equal=three_equal,
        one_pair=one_pair,
        two_pairs=two_pairs,
        n=n,
    )


def _one_pair_triple_sum(eps: np.ndarray, qa: np.ndarray, qb: np.ndarray,
                         g: np.ndarray, g2: np.ndarray) -> complex:
    """Triple sum over distinct (p, q, r) of the one-pair bracket times
    -1 / ((eps_q - eps_p)(eps_r - eps_p)), in O(n^2).

    The twelve bracket terms enumerate the placements of the doubled
    index p and the singles q, r over the four kernel slots; each ordered
    (q, r) visit covers every placement twice, absorbed by the caller's
    1/8 prefactor (against 1/4 for the double sums).

    With g[p, q] = 1 / (eps_q - eps_p) (0 at q = p), as
    _inverse_differences builds it, and g2 = g o g, the kernel is
    -g[p, q] g[p, r], so a separable term x_p y_q z_r sums to
    -sum_p x_p ((g y)_p (g z)_p - (g2 (y o z))_p): the product of the
    two single sums over q != p and r != p, less its q = r diagonal.
    """
    qac, qbc = qa.conj(), qb.conj()
    aa, bb = (qa * qac).real, (qb * qbc).real

    # separable bracket terms: X depends on p, Y on q, Z on r
    terms = (
        (eps * aa, eps * qb, qbc),
        (eps * aa, qbc, eps * qb),
        (eps**2 * qa * qb, qac, qbc),
        (eps**2 * qa * qb, qbc, qac),
        (eps * qa * qbc, qac, eps * qb),
        (eps * qa * qbc, eps * qb, qac),
        (qac * qbc, eps * qa, eps * qb),
        (qac * qbc, eps * qb, eps * qa),
        (eps * bb, eps * qa, qac),
        (eps * bb, qac, eps * qa),
        (eps * qac * qb, eps * qa, qbc),
        (eps * qac * qb, qbc, eps * qa),
    )
    x, y, z = (np.array(side) for side in zip(*terms))
    gy, gz, gyz = y @ g.T, z @ g.T, (y * z) @ g2.T
    return complex(-np.sum(x * (gy * gz - gyz)))
