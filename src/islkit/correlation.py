"""Correlation sums of antipodal sequences: the exact ISL and its oracle.

One engine, `_column_sums`, serves every exact value.  It gives the
column sum c = sum_p r_p of a rotation set's M aperiodic
autocorrelations at lags 0..n-1 and rounds it to int64 after a check
that no value sat 0.25 or more from its integer: exact by check, not by
assumption.  c depends on the rotations only through how many offsets
lie at or below each index, so one FFT round trip on at most two rows
per set gives it, in O(n log n) time whatever M; a set whose offsets
share one start is one row, its rotated window.  Consecutive sets share
one transform.  Every exact path reads it:

- `_legendre_totals` checks each column sum of a Legendre set exactly
  against the periodic fold before summing its squares: the totals of
  `sweep` and `optimize --exact-check`, and the twin of `isl`'s;
- `isl_totals` feeds a set's M rotations in as one-row sets, adds their
  lags into one column sum and their norms into the auto terms, and
  drops them: O(M n log n) time and O(n) memory;
- `isl_report` copies the same one-row lags into the autocorrelation
  matrix R and takes every auto and cross energy from it as one int64
  matrix product, in O(M n log n + M^2 n) time and O(M n) memory;
- `selfcheck.periodic_autocorrelation_exact` folds one one-row set.

The spectral path takes its power spectra at the same 2*3*5-smooth
length, `_smooth_length`, which it imports from here.

`aperiodic_correlation` and the energies built on it use plain sliding
products (numpy's direct correlate, no FFT).  They are the oracle the
FFT, spectral and asymptotic paths are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import _cut_rotations, _real_array, _starts, check_antipodal


# Largest distance from its integer at which an FFT correlation value
# still counts as rounding noise: antipodal inputs give integer values.
MAX_ROUNDING_RESIDUAL = 0.25
# Largest n whose correlation energies fit in int64: isl_report's 2 R R^T,
# a pair's energy plus n^2, is at most n (n + 1) (2n + 1) / 3 < 2^63.
MAX_EXACT_N = 2_400_000
_INT64_MAX = 2**63 - 1


class RoundingResidualError(ArithmeticError):
    """An FFT correlation value sat too far from an integer to round, or a
    rounded column sum broke the periodic fold."""


@dataclass(frozen=True)
class IslTotals:
    """Integrated sidelobe level of a sequence set, without its pairs.

    auto_terms[p] (int64) is the sidelobe energy of sequence p, lag 0
    excluded; total, a Python int, adds every ordered pair's cross
    energy to their sum; normalized is total / n^2.
    """

    auto_terms: np.ndarray
    total: int
    normalized: float
    n: int
    m: int


@dataclass(frozen=True)
class IslReport(IslTotals):
    """The totals of a sequence set with its pairs: cross_terms[p][q]
    (int64) is the full cross-correlation energy of the pair (all lags,
    diagonal empty)."""

    cross_terms: np.ndarray


def aperiodic_correlation(a, b) -> np.ndarray:
    """Aperiodic cross-correlation X(k) = sum_j a_j * b_{j+k} over lags
    k = -n+1 .. n-1; lag k sits at index k + n - 1 of the 2n-1 values."""
    a, b = _real_array(a, "sequence"), _real_array(b, "sequence")
    for x in (a, b):
        if x.ndim != 1 or not len(x):
            raise ValueError(
                f"expected a non-empty one-dimensional sequence, got shape {x.shape}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return np.correlate(b, a, mode="full")


def cross_energy(a, b) -> float:
    """Sum of squared cross-correlations over all lags, lag 0 included."""
    v = aperiodic_correlation(a, b)
    return float(v @ v)


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


# Values (rows x lag span) per FFT round trip of the column engine:
# consecutive sets share one rfft, one irfft and one rint while their
# rows (one per set whose starts are all equal, else two) times the lag
# span 2n - 1 of the longest stay within 2^14, which at a sweep's small
# n costs less than the ~25 numpy calls a set pays on its own.  The
# smooth length is at most 1.16 times the span, so where a block holds
# several sets its float rows and rounded lags take about 64 KB each,
# its spectrum and w at most ~150 KB each: under 0.5 MB in all.  Past
# n = 4096 (a span above 2^13) every block is one set, as at
# n ~ 20 000 and n ~ 10^6, with O(n) buffers.  A budget of 2^16 made
# 8 rows at n = 12007 ~30% slower per call than one row at a time:
# buffers that large fault in fresh pages on every call (~1.2k minor
# faults).
_BLOCK_VALUES = 1 << 14


def _rint_checked(values, out, name: str, labels) -> None:
    """Round the rows of values to int64 into out, leaving each value's
    rounding error in values.  Raises RoundingResidualError, naming row i
    name.format(labels[i]), at the first row with a value (or a NaN) not
    within MAX_ROUNDING_RESIDUAL of an integer."""
    with np.errstate(invalid="ignore"):  # a NaN fails the residual check
        np.rint(values, out=out, casting="unsafe")
    values -= out
    if not max(values.max(), -values.min()) < MAX_ROUNDING_RESIDUAL:
        residual = np.maximum(values.max(axis=1), -values.min(axis=1))  # NaN stays NaN
        i = int(np.argmax(~(residual < MAX_ROUNDING_RESIDUAL)))
        raise RoundingResidualError(f"{name.format(labels[i])} lies {residual[i]:.3g} "
                                    f"from an integer; the limit is {MAX_ROUNDING_RESIDUAL}")


def _column_sums(sets):
    """Column sum c = sum_p r_p (int64, lags 0..n-1) of the M rotated
    autocorrelations of each (base, offsets) set of sets, an antipodal
    base rotated left by each offset (the rule of sequences._starts),
    yielded in order as (base, M, c) without forming the M rows.

    Row p is the window b[t_p : t_p + n] of the doubled base, so
    c(k) = sum_i b_i b_{i+k} [G(i) - G(i + k - n)] with G(x) = #{p : t_p <= x}
    (0 below 0, M from n on).  Split at the seam, that is
    c(k) = a(k) - a(n - k) + M r(k), where r is the base's aperiodic
    autocorrelation, a(k) = X(k) - X(-k) and X(k) = sum_i u_i b_{i+k} with
    u = b G.  r is even and a odd, so one inverse transform of
    M |B|^2 + conj(U) B - U conj(B) gives w = M r + a, and
    c(k) = w(k) - (w(n - k) - w(k - n)) / 2: two rows per set, whatever M.
    A set whose starts all equal t is one row, its window at t taken as
    the base: G = M from 0 on, U = M B and a = 0, so w = M r is c.
    Consecutive sets share one rfft and one irfft while their rows times
    the longest's lag span 2n - 1 stay within _BLOCK_VALUES.
    Raises RoundingResidualError, naming n, if a value is not within
    MAX_ROUNDING_RESIDUAL of an integer.
    """
    block, rows, span = [], 0, 0
    for base, offsets in sets:
        starts = _starts(offsets, len(base))
        two = len(set(starts.tolist())) > 1
        if block and (rows + 1 + two) * max(span, 2 * len(base) - 1) > _BLOCK_VALUES:
            yield from _column_block(block)
            block, rows, span = [], 0, 0
        block.append((base, starts, two))
        rows += 1 + two
        span = max(span, 2 * len(base) - 1)
    if block:
        yield from _column_block(block)


def _column_block(block):
    """_column_sums of one block of (base, starts, two) sets, all
    transformed at one smooth length, that of the longest's lag span.
    Row j of the transform is set j's window (_cut_rotations): at its one
    start for a one-row set, else at 0, the base; the b G rows of the
    two-row sets follow, in order."""
    ns = [len(base) for base, _, _ in block]
    length = _smooth_length(2 * max(ns) - 1)
    pairs = [j for j, (_, _, two) in enumerate(block) if two]
    rows = np.zeros((len(block) + len(pairs), max(ns)))
    for j, (base, starts, two) in enumerate(block):
        _cut_rotations(base, (0,) if two else starts[:1], rows[j:j + 1])
    for i, j in enumerate(pairs, len(block)):
        base, starts, _ = block[j]
        np.multiply(base, np.bincount(starts, minlength=ns[j]).cumsum(), out=rows[i, :ns[j]])
    spec = np.fft.rfft(rows, length)
    del rows  # a generator keeps its locals: free each buffer once read
    b, z = spec[:len(block)], spec[len(block):]
    at = slice(None) if len(pairs) == len(block) else pairs  # the rows of b that z pairs with
    np.conjugate(z, out=z)
    z *= b[at]  # conj(U) B
    # w's spectrum in b: M |B|^2, plus 2i Im(conj(U) B) = conj(U) B - U conj(B)
    # for a two-row set
    np.square(b.real, out=b.real)
    b.real += np.square(b.imag, out=b.imag)
    b.real *= [[len(starts)] for _, starts, _ in block]
    b.imag.fill(0)
    b.imag[at] = np.multiply(z.imag, 2, out=z.imag)
    w = np.fft.irfft(b, length)
    del spec, b, z
    for j in pairs:
        n = ns[j]
        w[j, 1:n] -= (w[j, n - 1:0:-1] - w[j, length - n + 1:]) / 2
    lags = w[:, :max(ns)]
    out = np.empty(lags.shape, dtype=np.int64)
    _rint_checked(lags, out, "FFT column sum of n={}", ns)
    for j, (base, starts, _) in enumerate(block):
        yield base, len(starts), out[j, :ns[j]]


def _legendre_totals(sets):
    """Total ISL of each (Legendre base, offsets) set of sets, in order,
    from its column sum (_column_sums), first checked exactly by the
    periodic fold: c(0) = M n and c(k) + c(n - k) = M P(k), P the base's
    cyclic autocorrelation (k/n) + (-k/n) - 1, that is -1 at n = 3 mod 4
    and 2 (k/n) - 1 at n = 1 mod 4.  Rotation is a phase at the n-th roots,
    so the fold holds for any offsets, and it shares no code with the FFT.
    Raises RoundingResidualError, naming n and the lag, on a mismatch."""
    for base, m, c in _column_sums(sets):
        n = len(base)
        wrong = np.flatnonzero(c[1:] + c[:0:-1] != m * (base[1:] + base[:0:-1] - 1)) + 1
        if c[0] != m * n or len(wrong):
            k = int(wrong[0]) if c[0] == m * n else 0
            raise RoundingResidualError(f"FFT column sum of n={n} breaks the periodic fold "
                                        f"c(k) + c(n - k) = M P(k) at lag {k}")
        yield _total(c, m)


def _sum_of_squares(values: np.ndarray, bound: int) -> int:
    """Exact sum of squares, as a Python int, of an int64 vector whose
    entries lie in [-bound, bound], bound^2 < 2^63.

    A single int64 dot wraps silently once the sum passes 2^63 (M^2 n^3 / 3
    for all-ones rows reaches ~4.6e24 at M = 1000, n = MAX_EXACT_N), so
    the entries are summed in int64 blocks whose worst case stays below
    2^63 and the block sums are added as Python ints.
    """
    block = min(_INT64_MAX // (bound * bound), len(values))
    padded = np.zeros(-(-len(values) // block) * block, dtype=np.int64)
    padded[:len(values)] = values
    blocks = padded.reshape(-1, block)
    return sum(np.einsum("ij,ij->i", blocks, blocks).tolist())


def _total(colsum: np.ndarray, m: int) -> int:
    """ISL total of M rows of length n from the int64 column sum of their
    autocorrelations, |entries| <= M n: 2 |c|^2 - (M^2 + M) n^2."""
    n = len(colsum)
    return 2 * _sum_of_squares(colsum, m * n) - (m * m + m) * n * n


def isl_totals(base, offsets) -> IslTotals:
    """Integrated sidelobe level of the set whose row p is the antipodal
    base rotated left by offsets[p], streamed in O(n) memory.

    Summed over all (p, q), the energies 2 R R^T - n^2 of isl_report are
    2 |sum_p r_p|^2 - M^2 n^2 (the paper's circle sum over the 2n-th
    roots, read in the lag domain); the total drops the M mainlobes n^2,
    and the auto term of row p is 2 |r_p|^2 - 2 n^2.  So each rotation of
    the base, checked for +-1 once, goes through the engine as a one-row
    set (_column_sums), and its lags are added into an int64 column sum
    and its norm kept: no (M, n) array is formed.  Offsets follow the row
    rule of sequences._starts.  Raises RoundingResidualError as
    isl_report does.
    """
    base = check_antipodal(base)
    if base.ndim != 1:
        raise ValueError(f"expected one base sequence, got shape {base.shape}")
    n, m = len(base), len(offsets)
    if n > MAX_EXACT_N:
        raise ValueError(f"n={n} exceeds {MAX_EXACT_N}, beyond which energies overflow int64")
    if not 1 <= m <= math.isqrt(_INT64_MAX) // n:
        # every column sum lies within m n, and its square must fit int64
        raise ValueError(f"{m} rotations of length {n}: need 1 <= m <= "
                         f"{math.isqrt(_INT64_MAX) // n}")
    colsum = np.zeros(n, dtype=np.int64)
    norms = np.empty(m, dtype=np.int64)
    for p, (_, _, lags) in enumerate(_column_sums((base, (t,)) for t in offsets)):
        colsum += lags
        norms[p] = lags @ lags
    # |r_p(k)| <= n - k, so 2 |r_p|^2 <= n (n + 1) (2n + 1) / 3 < 2^63
    auto = 2 * norms - 2 * n * n
    total = _total(colsum, m)
    return IslTotals(auto_terms=auto, total=total, normalized=total / n**2, n=n, m=m)


def isl_report(seqs) -> IslReport:
    """Integrated sidelobe level of a set, assembled term by term.

    seqs is an (M, n) array-like of antipodal rows.  The rounded lags
    0..n-1 of each row, a one-row set of the engine (_column_sums), are
    copied into its row of the int64 autocorrelation matrix R.  By the
    paper's circle-sum identity read in the lag domain,
    sum_k X_pq(k)^2 = sum_k r_p(k) r_q(k), so the energy matrix is
    2 R R^T - n^2.  Raises RoundingResidualError if a rounded
    value is not within MAX_ROUNDING_RESIDUAL of an integer.  isl_totals
    gives the same totals without the pairs, in O(n) memory.
    """
    seqs = check_antipodal(seqs)
    if seqs.ndim != 2:
        raise ValueError(f"expected an (M, n) array of sequences, got shape {seqs.shape}")
    m, n = seqs.shape
    if n > MAX_EXACT_N:
        raise ValueError(f"n={n} exceeds {MAX_EXACT_N}, beyond which energies overflow int64")
    autocorr = np.empty((m, n), dtype=np.int64)
    for row, (_, _, lags) in zip(autocorr, _column_sums((seq, (0,)) for seq in seqs)):
        row[:] = lags
    energy = 2 * (autocorr @ autocorr.T) - n * n
    auto = energy.diagonal() - n * n
    np.fill_diagonal(energy, 0)
    total = sum(auto.tolist()) + sum(energy.ravel().tolist())
    return IslReport(auto_terms=auto, total=total, normalized=total / n**2, n=n, m=m,
                     cross_terms=energy)


def periodic_autocorrelation(a) -> np.ndarray:
    """Cyclic autocorrelation at lags 1 .. n-1, from the aperiodic profile.

    out[k-1] = X(k) + X(k-n), which equals sum_j a_j * a_{(j+k) mod n}.
    """
    v = aperiodic_correlation(a, a)
    n = len(a)
    return v[n:] + v[:n - 1]
