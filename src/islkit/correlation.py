"""Correlation sums of antipodal sequences: the exact ISL and its oracle.

`isl_report` computes every aperiodic correlation of a set by FFT
(numpy.fft on rows zero-padded to a 2*3*5-smooth length of at least
2n-1, so no lag wraps around), rounds the values to integers and checks
that none sat 0.25 or more from its integer: the energies are exact by
check, not by assumption, and are summed in int64.

`aperiodic_correlation` and the energies built on it use plain sliding
products (numpy's direct correlate, no FFT).  They are the oracle the
FFT, spectral and asymptotic paths are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import check_antipodal


# Largest distance from its integer at which an FFT correlation value
# still counts as rounding noise: antipodal inputs give integer values.
MAX_ROUNDING_RESIDUAL = 0.25
# Largest n whose correlation energies fit in int64: a pair's energy is
# at most sum_k (n - |k|)^2 = n (2n^2 + 1) / 3 < 2^63.
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

    Pairs p <= q are visited in lexicographic order, one at a time: the
    correlation of a pair is the inverse real FFT of one spectrum times
    the conjugate of the other, and at most two spectra are alive.
    Raises RoundingResidualError if a value is not within
    MAX_ROUNDING_RESIDUAL of an integer.
    """
    seqs = [check_antipodal(s) for s in seqs]
    if not seqs:
        raise ValueError("sequence set is empty")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValueError("all sequences must have equal length")
    if n > MAX_EXACT_N:
        raise ValueError(f"n={n} exceeds {MAX_EXACT_N}, beyond which energies overflow int64")
    m = len(seqs)
    length = _smooth_length(2 * n - 1)
    # looked up per call: numpy loads numpy.fft on first access only
    rfft, irfft = np.fft.rfft, np.fft.irfft
    energy = np.zeros((m, m), dtype=np.int64)
    spec_p = np.empty(length // 2 + 1, dtype=np.complex128)
    spec_q = np.empty_like(spec_p)
    corr = np.empty(length)
    values = np.empty(length, dtype=np.int64)
    for p in range(m):
        rfft(seqs[p], length, out=spec_p)
        for q in range(p, m):
            if q == p:
                np.conjugate(spec_p, out=spec_q)
            else:
                np.conjugate(rfft(seqs[q], length, out=spec_q), out=spec_q)
            spec_q *= spec_p
            corr = irfft(spec_q, length, out=corr)
            np.rint(corr, out=values, casting="unsafe")
            corr -= values
            residual = max(corr.max(), -corr.min())
            if not residual < MAX_ROUNDING_RESIDUAL:
                raise RoundingResidualError(
                    f"FFT correlation of sequences {p} and {q} (n={n}) lies "
                    f"{residual:.3g} from an integer; the limit is {MAX_ROUNDING_RESIDUAL}"
                )
            energy[p, q] = energy[q, p] = values @ values
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
