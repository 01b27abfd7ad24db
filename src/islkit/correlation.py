"""Correlation sums of antipodal sequences: the exact ISL and its oracle.

One row engine, `_rounded_autocorrelation`, serves the exact ISL: it
rounds FFT autocorrelations to integers, one round trip per block of
rows, and checks that no value sat 0.25 or more from its integer: exact
by check, not by assumption.  Both entry points fold its blocks.
`isl_totals` adds each block into a running column sum and the row
norms and drops it, so it prints every total of a rotation set in
O(M n log n) time and O(n) memory.  `isl_report` copies each block into
the autocorrelation matrix R and takes every auto and cross energy from
it as one int64 matrix product, in O(M n log n + M^2 n) time and O(M n)
memory.

`aperiodic_correlation` and the energies built on it use plain sliding
products (numpy's direct correlate, no FFT).  They are the oracle the
FFT, spectral and asymptotic paths are checked against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .sequences import check_antipodal
from .spectral import _smooth_length, power_spectrum


# Largest distance from its integer at which an FFT correlation value
# still counts as rounding noise: antipodal inputs give integer values.
MAX_ROUNDING_RESIDUAL = 0.25
# Largest n whose correlation energies fit in int64: isl_report's 2 R R^T,
# a pair's energy plus n^2, is at most n (n + 1) (2n + 1) / 3 < 2^63.
MAX_EXACT_N = 2_400_000
_INT64_MAX = 2**63 - 1


class RoundingResidualError(ArithmeticError):
    """An FFT correlation value sat too far from an integer to round."""


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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    values = np.correlate(b, a, mode="full")
    if np.array_equal(a, np.round(a)) and np.array_equal(b, np.round(b)):
        if not np.array_equal(values, np.round(values)):
            raise AssertionError("correlation of integer sequences must be integral")
    return values


def cross_energy(a, b) -> float:
    """Sum of squared cross-correlations over all lags, lag 0 included."""
    v = aperiodic_correlation(a, b)
    return float(v @ v)


# Values (rows x FFT length) per FFT round trip on the exact path: a block
# of B = max(1, min(M, _BLOCK_VALUES // L)) rows of smooth length L shares
# one power_spectrum, one irfft and one rint, which at a sweep's small n
# cost less than the ~25 numpy calls a row pays on its own.  Where B > 1
# the float buffer and its spectrum hold at most 2^14 values (128 KB)
# each, the gathered rows, their index and the rounded lags at most
# 64 KB each: under 0.5 MB in all.  Past L = 2^13 (n > 4096) every block
# is one row, as at n ~ 20 000 and n ~ 10^6, with O(n) buffers.  A budget
# of 2^16 made 8 rows at n = 12007 ~30% slower per call than one row at a
# time: buffers that large fault in fresh pages on every call (~1.2k
# minor faults).
_BLOCK_VALUES = 1 << 14


def _rounded_autocorrelation(m: int, n: int, block_at):
    """Lags 0..n-1 of the aperiodic autocorrelations of m antipodal rows
    of length n, rounded to int64 and yielded as (p, lags) a block of
    rows p..p+B-1 at a time; block_at(p, B) returns those rows.

    One FFT round trip per block (spectral.power_spectrum, then irfft) on
    the 2*3*5-smooth length L >= 2n-1, so no lag wraps, with B = max(1,
    min(m, _BLOCK_VALUES // L)).  The float and int64 buffers are reused
    across blocks, because a fresh output per block costs faults and peak
    memory: each yielded lags is a view that the next block overwrites.
    Raises RoundingResidualError, naming the first failing row, if a value
    is not within MAX_ROUNDING_RESIDUAL of an integer.
    """
    length = _smooth_length(2 * n - 1)
    block = max(1, min(m, _BLOCK_VALUES // length))
    corr = np.empty((block, length))
    buf = np.empty((block, n), dtype=np.int64)
    for p in range(0, m, block):
        b = min(block, m - p)
        lags = np.fft.irfft(power_spectrum(block_at(p, b), length), length, out=corr[:b])[:, :n]
        out = buf[:b]
        with np.errstate(invalid="ignore"):  # a NaN fails the residual check
            np.rint(lags, out=out, casting="unsafe")
        lags -= out
        if not max(lags.max(), -lags.min()) < MAX_ROUNDING_RESIDUAL:
            residual = np.maximum(lags.max(axis=1), -lags.min(axis=1))  # NaN stays NaN
            i = int(np.argmax(~(residual < MAX_ROUNDING_RESIDUAL)))
            raise RoundingResidualError(
                f"FFT autocorrelation of sequence {p + i} (n={n}) lies "
                f"{residual[i]:.3g} from an integer; the limit is {MAX_ROUNDING_RESIDUAL}"
            )
        yield p, out


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


def isl_totals(base, offsets) -> IslTotals:
    """Integrated sidelobe level of the set whose row p is the antipodal
    base rotated left by offsets[p], streamed in O(n) memory.

    Summed over all (p, q), the energies 2 R R^T - n^2 of isl_report are
    2 |sum_p r_p|^2 - M^2 n^2 (the paper's circle sum over the 2n-th
    roots, read in the lag domain); the total drops the M mainlobes n^2,
    and the auto term of row p is 2 |r_p|^2 - 2 n^2.  So the engine's
    blocks of rows, read from the doubled base checked for +-1 once, are
    folded into an int64 column sum and their norms, and dropped: no
    (M, n) array is formed.  Offsets may be any integers, taken mod n.
    Raises RoundingResidualError as isl_report does.
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
    try:
        starts = np.array([operator.index(t) % n for t in offsets], dtype=np.int64)
    except TypeError as exc:  # a float offset names no rotation
        raise ValueError(f"offsets must be integers: {exc}") from None
    doubled = np.concatenate([base, base], dtype=np.float64)  # exact; rfft casts no row

    # a one-row block is a view and adds its row uncopied: at n ~ 10^6 a
    # gathered row and its index take 16 MB, a row sum 8 MB more
    def block_at(p, b):
        if b == 1:
            return doubled[None, starts[p]:starts[p] + n]
        return doubled[starts[p:p + b, None] + np.arange(n)]

    colsum = np.zeros(n, dtype=np.int64)
    norms = np.empty(m, dtype=np.int64)
    for p, lags in _rounded_autocorrelation(m, n, block_at):
        colsum += lags[0] if len(lags) == 1 else lags.sum(axis=0)
        np.einsum("ij,ij->i", lags, lags, out=norms[p:p + len(lags)])
    # |r_p(k)| <= n - k, so 2 |r_p|^2 <= n (n + 1) (2n + 1) / 3 < 2^63
    auto = 2 * norms - 2 * n * n
    total = 2 * _sum_of_squares(colsum, m * n) - (m * m + m) * n * n
    return IslTotals(auto_terms=auto, total=total, normalized=total / n**2, n=n, m=m)


def isl_report(seqs) -> IslReport:
    """Integrated sidelobe level of a set, assembled term by term.

    seqs is an (M, n) array-like of antipodal rows.  The engine's rounded
    lags 0..n-1 of each row are copied into its row of the int64
    autocorrelation matrix R.  By the paper's circle-sum identity read in
    the lag domain, sum_k X_pq(k)^2 = sum_k r_p(k) r_q(k), so the energy
    matrix is 2 R R^T - n^2.  Raises RoundingResidualError if a rounded
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
    for p, lags in _rounded_autocorrelation(m, n, lambda p, b: seqs[p:p + b]):
        autocorr[p:p + len(lags)] = lags
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
    a = np.asarray(a, dtype=np.float64)
    v = aperiodic_correlation(a, a)
    n = len(a)
    return v[n:] + v[:n - 1]
