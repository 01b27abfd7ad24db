"""Correlation energies from generating-function values on the unit circle.

For odd length n, the sum of squared cross-correlations of two real
sequences equals (S_plus + S_minus) / (2n), where S_plus and S_minus are
the sums over the n-th roots of unity (resp. their negatives) of
|Q_a(z) Q_b*(z)|^2.  The n-th roots and their negatives are together the
2n-th roots of unity; any L >= 2n - 1 roots serve as well, since the
2n - 1 lags of a correlation fit in a length-L transform without
wrapping.  So a set's energies are one Gram matrix of power spectra
(`power_spectrum`) at the same 2*3*5-smooth length L >= 2n - 1 the
exact path uses (`correlation._smooth_length`), where numpy's FFT needs
no generic radix-n pass for a prime n.  Lagrange interpolation from the
n-th roots to their negatives is one circulant convolution, taken
through gf_at_roots as a sign flip of the odd-indexed coefficients.
S_minus additionally admits a closed-form expansion through
partial-fraction kernel sums over quadruples of root indices.  Every
kernel depends on the roots only through 1 / (eps_q - eps_p) =
conj(eps_p) / (eps_d - 1), d = (q - p) mod n, so one length-n
difference column serves the closed-form kernel sums and the expansion,
whose sums over root indices are circulants along d, taken through
gf_at_roots in O(n log n) time and O(n) memory; every closed form has a
direct twin.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .correlation import _smooth_length
from .sequences import _real_array, _require_odd_prime


def roots_of_unity(n: int) -> np.ndarray:
    """The n complex numbers exp(2*pi*i*j/n), j = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _require_odd(n: int) -> None:
    if n % 2 == 0:
        raise ValueError(f"length must be odd, got {n}")


def _odd_length(x: np.ndarray) -> int:
    # the length of the one-dimensional x, which must be odd
    if x.ndim != 1:
        raise ValueError(f"expected a one-dimensional sequence, got shape {x.shape}")
    _require_odd(len(x))
    return len(x)


def _integers(x, what: str) -> np.ndarray:
    # an int64 cast would truncate 0.5 to index 0, and 0.5 % n is no root index
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {x.dtype}")
    return x


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray, int]:
    a, b = _real_array(a, "sequence"), _real_array(b, "sequence")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b, _odd_length(a)


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
    if seq.ndim != 1:
        raise ValueError(f"expected a one-dimensional sequence, got shape {seq.shape}")
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


def legendre_gf_closed_form(n: int, j, ell_j):
    """Closed-form generating-function value of the Legendre sequence at
    the j-th root of unity (quadratic Gauss sum plus the fixed 0th term),
    for a scalar j or elementwise over an array of j with matching ell_j.

    The sqrt(n) offset is real for n = 1 (mod 4) and imaginary for
    n = 3 (mod 4).  ell_j must be a Legendre symbol, -1 or +1, wherever
    j != 0 (mod n); at j = 0 the value is 1 whatever ell_j is.
    """
    _require_odd_prime(n)
    at_zero = _integers(j, "root indices") % n == 0
    ell_j = _real_array(ell_j, "Legendre symbols")
    bad = ~((np.abs(ell_j) == 1) | at_zero)  # also true for NaN
    if bad.any():
        raise ValueError(f"Legendre symbols must be -1 or +1 where j != 0 (mod n), "
                         f"got {np.broadcast_to(ell_j, bad.shape)[bad][0]}")
    offset = np.sqrt(n) if n % 4 == 1 else 1j * np.sqrt(n)
    values = np.where(at_zero, 1.0 + 0.0j, 1.0 + ell_j * offset)
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
    n = _odd_length(at_roots)
    coeffs = np.conj(gf_at_roots(np.conj(at_roots))) / n
    values = gf_at_roots((-1.0) ** np.arange(n) * coeffs)
    return values[_integers(j, "root indices") % n]


def power_spectrum(rows, length: int) -> np.ndarray:
    """|rfft(rows, length)|^2 along the last axis, bins 0 .. length // 2:
    |Q|^2 of the zero-padded rows at exp(2 pi i k / length), as the real
    re^2 + im^2 (numpy.fft, loaded on first use)."""
    spec = np.fft.rfft(rows, length)
    return np.square(spec.real) + np.square(spec.imag)


def energy_matrix_spectral(rows) -> np.ndarray:
    """(M, M) cross-correlation energies, all lags, of M rows of odd length
    n: 1/L of the Gram matrix of the rows' |Q|^2 at the L-th roots of
    unity, L = _smooth_length(2n - 1), where the 2n - 1 lags of every
    correlation fit without wrapping.  Power bins other than 0 and L/2
    each stand for a conjugate pair, so they carry the weight sqrt(2).
    The diagonal minus n^2 (the lag-0 mainlobe) is each row's auto
    sidelobe energy."""
    rows = _real_array(rows, "sequences")
    if rows.ndim != 2:
        raise ValueError(f"expected an (M, n) array of sequences, got shape {rows.shape}")
    n = rows.shape[-1]
    _require_odd(n)
    length = _smooth_length(2 * n - 1)
    # bins k with 2k = 0 (mod L), 0 and L/2, are their own conjugates
    weights = np.where(2 * np.arange(length // 2 + 1) % length, np.sqrt(2.0), 1.0)
    power = power_spectrum(rows, length) * weights
    return power @ power.T / length


def _index_quads(quads, n: int) -> np.ndarray:
    # a (K, 4) int64 array of index quadruples, reduced mod the odd length n;
    # operator.index: a float n raises TypeError, as in is_prime
    _require_odd(operator.index(n))
    quads = np.asarray(quads)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValueError(f"expected a (K, 4) array of index quadruples, got shape {quads.shape}")
    return _integers(quads, "index quadruples").astype(np.int64, copy=False) % n


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
    quads = _index_quads(quads, n)
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
    Each reads the roles p, an index of highest multiplicity, and lo and
    hi, the least and greatest other index: K(p, p, p, p), K(p, p, p, lo),
    K(p, p, lo, lo) and K(p, p, lo, hi).  Each kernel is read at p = 0
    on the difference column (_inverse_differences) at lo - p and hi - p
    (mod n), and the result is scaled by conj(eps_p)^2 once.
    """
    quads = _index_quads(quads, n)
    eps = roots_of_unity(n)
    s = np.sort(quads, axis=1)
    e01, e12, e23 = (s[:, :-1] == s[:, 1:]).T
    # a triple, or a pair in the middle, holds s1; else a pair holds s0 or s2
    p = np.where(e12, s[:, 1], np.where(e01, s[:, 0], s[:, 2]))
    # p's own slots read as s3 for lo and s0 for hi: p only if all are equal;
    # the kernels read lo and hi by their differences from p
    d_lo = (np.where(s == p[:, None], s[:, 3:], s).min(axis=1) - p) % n
    d_hi = (np.where(s == p[:, None], s[:, :1], s).max(axis=1) - p) % n
    c = _inverse_differences(eps)

    out = np.zeros(len(quads), dtype=np.complex128)
    mask = e01 & e12 & e23
    out[mask] = _all_equal(n)
    mask = e12 & (e01 != e23)
    out[mask] = _three_equal(n, eps[d_lo[mask]], c[d_lo[mask]])
    mask = e01 & ~e12 & e23
    out[mask] = _two_pairs(n, c[d_lo[mask]])
    mask = e01.astype(int) + e12 + e23 == 1
    out[mask] = _one_pair(n, c[d_lo[mask]], c[d_hi[mask]])
    # all distinct sums to zero: already initialized
    return out * np.conj(eps[p]) ** 2


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
    """The difference column c_d = 1 / (eps_d - 1), c_0 = 0.

    With d = (q - p) mod n, eps_q - eps_p = eps_p (eps_d - 1), so every
    inverse root difference 1 / (eps_q - eps_p) is conj(eps_p) c_d: one
    length-n vector stands for the whole n x n matrix.
    """
    c = np.zeros_like(eps)
    c[1:] = 1.0 / (eps[1:] - 1.0)
    return c


# Pattern kernels K(q) = sum_j eps_j^2 / prod_i (eps_j + eps_{q_i}), one per
# coincidence pattern.  Adding p to every index scales K by conj(eps_p)^2
# (substitute eps_j -> eps_p eps_j), so each is written at p = 0, in the
# root value q = eps_d and the difference column g = c_d of d = (q - p) mod n
# (g_q, g_r for two such d): kernel_sums_closed_form reads them at its
# quadruples' differences, pattern_decomposition along the whole column.

def _all_equal(n):  # K(0, 0, 0, 0)
    return (n**4 / 3.0 + 2.0 * n**2 / 3.0) / 16.0


def _three_equal(n, q, g):  # K(0, 0, 0, d)
    return (n**2 / 8.0) * (q + 1.0) * g**2


def _two_pairs(n, g):  # K(0, 0, d, d)
    return -(n**2 / 2.0) * g**2


def _one_pair(n, g_q, g_r):  # K(0, 0, d, e), d != e
    return -(n**2 / 4.0) * g_q * g_r


# the six slot pairs (i, j), i < j: pair 5 - k holds the two slots pair k leaves
_PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def _circulants(kernels, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C_k y = sum_d k_d y_((p + d) mod n) at every p.  For each kernel pair
    # (k, l): C_k of every slot row v and C_l of every pair row w, stacked
    # along a first axis.  gf_at_roots diagonalizes every circulant: three
    # transforms, the rows' and the kernels' in one call, the inverse in one
    rows, n = np.concatenate([v, w]), v.shape[-1]
    spectra = gf_at_roots(np.concatenate([rows, np.conj(kernels).reshape(-1, n)]))
    kernel = spectra[len(rows):].reshape(-1, 2, n)[:, [0] * len(v) + [1] * len(w)]
    out = np.conj(gf_at_roots(np.conj(spectra[:len(rows)]) * kernel)) / n
    return out[:, :len(v)], out[:, len(v):]


def pattern_decomposition(a, b) -> PatternSums:
    """Closed-form decomposition of the negated-roots power sum.

    The quadruple index sum collapses, pattern by pattern, to one O(n)
    term and sums over (p, q) and (p, q, r) of a pattern kernel times its
    brackets.  Each kernel is conj(eps_p)^2 times a function of
    d = (q - p) mod n on the difference column (_inverse_differences), so
    its sum over q is a circulant along d, taken through gf_at_roots; the
    one-pair triple sum factors into such circulants.  Time is
    O(n log n) and memory O(n): no n x n array is formed.
    """
    a, b, _ = _as_pair(a, b)
    return _pattern_sums(*gf_at_roots(np.array([a, b])))


def _pattern_sums(qa: np.ndarray, qb: np.ndarray) -> PatternSums:
    """pattern_decomposition from the values Q_a and Q_b at the n-th roots
    of unity, of real sequences or not.

    Interpolating Q(-eps_j) and its conjugate (interpolate_negated_root)
    gives S_minus = (16 / n^4) sum_q K(q) prod_i v_i(q_i), the four
    kernel slots carrying v = (eps Q_a, Q_a*, eps Q_b, Q_b*).  Each
    bracket of a coincidence pattern is a product of rows, one per index
    from the slots it takes: a slot of v, three of them, or a row of w,
    the product of a slot pair (_PAIRS).

    The one-pair brackets are the twelve arrangements of ppqr over the
    slots: p takes a slot pair, q and r the two slots it leaves, in either
    order, so the sum over ordered (q, r) visits every quadruple twice and
    is halved.  Its kernel is -(n^2 / 4) conj(eps_p)^2 c_((q - p) mod n)
    c_((r - p) mod n), so a separable term x_p y_q z_r sums to
    conj(eps_p)^2 x_p ((C_c y)_p (C_c z)_p - (C_(c^2) (y o z))_p) over p,
    times that constant, C_k the circulant y -> sum_d k_d y_(p + d)
    (_circulants): the product of the two single sums over q != p and
    r != p, less its q = r diagonal.  Here y and z are single slots and
    y o z their pair.
    """
    n = len(qa)
    eps = roots_of_unity(n)
    c = _inverse_differences(eps)  # c_0 = 0, so every kernel is 0 at q = p
    v = np.array([eps * qa, qa.conj(), eps * qb, qb.conj()])
    w = v[_PAIRS[0]] * v[_PAIRS[1]]
    (kv, cv), (kw, cw) = _circulants(
        [[_three_equal(n, eps, c), _two_pairs(n, c)], [c, c * c]], v, w)
    u = np.conj(eps) ** 2  # every kernel's factor from p
    all_equal = np.sum(_all_equal(n) * u * w[0] * w[5])
    # sums over ordered (p, q) of x_p K(p, q) y_q.  pppq: q takes slot m, p
    # the other three.  ppqq: q takes pair k, p pair 5 - k; p q and q p are
    # both arrangements, so each quadruple is visited twice
    three_equal = np.sum(u * kv * v[[[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].prod(axis=1))
    two_pairs = np.sum(u * w[::-1] * kw) / 2
    triple = np.sum(u * w[::-1] * (cv[_PAIRS[0]] * cv[_PAIRS[1]] - cw))
    # _one_pair(n, 1, 1) c_q c_r is the kernel; both (q, r) orders, halved
    one_pair = _one_pair(n, 1.0, 1.0) * triple
    return PatternSums(all_equal=complex(all_equal), three_equal=complex(three_equal),
                       one_pair=complex(one_pair), two_pairs=complex(two_pairs), n=n)
