"""Correlation sums of antipodal sequences: the exact ISL and its oracle.

`isl_report` rounds one FFT autocorrelation per sequence to integers,
checking that no value sat 0.25 or more from its integer, and takes
every auto and cross energy from them as one int64 matrix product:
exact by check, not by assumption, in O(M n log n + M^2 n).

`aperiodic_correlation` and the energies built on it use plain sliding
products (numpy's direct correlate, no FFT).  They are the oracle the
FFT, spectral and asymptotic paths are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import check_antipodal
from .spectral import power_spectrum


# Largest distance from its integer at which an FFT correlation value
# still counts as rounding noise: antipodal inputs give integer values.
MAX_ROUNDING_RESIDUAL = 0.25
# Largest n whose correlation energies fit in int64: isl_report's 2 R R^T,
# a pair's energy plus n^2, is at most n (n + 1) (2n + 1) / 3 < 2^63.
MAX_EXACT_N = 2_400_000


class RoundingResidualError(ArithmeticError):
    """An FFT correlation value sat too far from an integer to round."""


@dataclass(frozen=True)
class IslReport:
    """Integrated sidelobe level of a sequence set, term by term.

    auto_terms[p] is the sidelobe energy of sequence p (lag 0 excluded),
    cross_terms[p][q] the full cross-correlation energy of the pair
    (all lags, diagonal empty); both are int64.  total, a Python int,
    sums auto terms plus both ordered cross terms per pair; normalized
    is total / n^2.
    """

    auto_terms: np.ndarray
    cross_terms: np.ndarray
    total: int
    normalized: float
    n: int
    m: int


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


def auto_sidelobe_energy(a) -> float:
    """Sum of squared autocorrelations over all nonzero lags."""
    a = check_antipodal(a)
    v = aperiodic_correlation(a, a)
    return float(v @ v - v[len(a) - 1] ** 2)


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


def isl_report(seqs) -> IslReport:
    """Integrated sidelobe level of a set, assembled term by term.

    seqs is an (M, n) array-like of antipodal rows.  Row p makes one FFT
    round trip (spectral.power_spectrum, then irfft) on a 2*3*5-smooth
    length >= 2n-1, so no lag wraps, and its lags 0..n-1 are rounded
    into row p of the int64 autocorrelation matrix R.  By the paper's
    circle-sum identity read in the lag domain, sum_k X_pq(k)^2 =
    sum_k r_p(k) r_q(k), so the energy matrix is 2 R R^T - n^2.  Raises
    RoundingResidualError if a rounded value is not within
    MAX_ROUNDING_RESIDUAL of an integer.
    """
    seqs = check_antipodal(seqs)
    if seqs.ndim != 2:
        raise ValueError(f"expected an (M, n) array of sequences, got shape {seqs.shape}")
    m, n = seqs.shape
    if n > MAX_EXACT_N:
        raise ValueError(f"n={n} exceeds {MAX_EXACT_N}, beyond which energies overflow int64")
    length = _smooth_length(2 * n - 1)
    autocorr = np.empty((m, n), dtype=np.int64)
    corr = np.empty(length)  # reused: a fresh output per row costs faults and peak memory
    for p in range(m):
        lags = np.fft.irfft(power_spectrum(seqs[p], length), length, out=corr)[:n]
        with np.errstate(invalid="ignore"):  # a NaN fails the residual check
            np.rint(lags, out=autocorr[p], casting="unsafe")
        lags -= autocorr[p]
        residual = max(lags.max(), -lags.min())
        if not residual < MAX_ROUNDING_RESIDUAL:
            raise RoundingResidualError(
                f"FFT autocorrelation of sequence {p} (n={n}) lies "
                f"{residual:.3g} from an integer; the limit is {MAX_ROUNDING_RESIDUAL}"
            )
    energy = 2 * (autocorr @ autocorr.T) - n * n
    auto = energy.diagonal() - n * n
    np.fill_diagonal(energy, 0)
    total = sum(auto.tolist()) + sum(energy.ravel().tolist())
    return IslReport(
        auto_terms=auto,
        cross_terms=energy,
        total=total,
        normalized=total / n**2,
        n=n,
        m=m,
    )


def periodic_autocorrelation(a) -> np.ndarray:
    """Cyclic autocorrelation at lags 1 .. n-1, from the aperiodic profile.

    out[k-1] = X(k) + X(k-n), which equals sum_j a_j * a_{(j+k) mod n}.
    """
    a = np.asarray(a, dtype=np.float64)
    v = aperiodic_correlation(a, a)
    n = len(a)
    return v[n:] + v[:n - 1]
