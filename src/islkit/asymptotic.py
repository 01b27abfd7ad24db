"""Large-n limits of normalized correlation energies for rotated
Legendre sequence sets, as closed forms in the rotation fractions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import check_fractions


def _kernel(y):
    """K(y) = (|y| - 1/2)^2, which on [-1, 1] is B(y) = ({y} - 1/2)^2:
    the one kernel of every limit here, and of the optimize proof."""
    d = np.abs(y) - 0.5
    d *= d  # in place: one temporary less per call
    return d


def re_dilog_on_circle(theta):
    """Real part of the dilogarithm series sum_k z^k / k^2 at z = e^(i*theta),
    at a scalar angle or elementwise over an array of angles.

    Piecewise-quadratic closed form pi^2 (K(t / 2 pi) - 1/12) =
    pi^2/6 - t(2 pi - t)/4, t the angle reduced to [0, 2 pi); periodic.
    """
    t = np.mod(theta, 2 * np.pi)
    return np.pi**2 * (_kernel(t / (2 * np.pi)) - 1.0 / 12.0)


def _cross(fa, fb):
    """Limit of (cross-correlation energy) / n^2 for a rotation pair:
    2/3 + 2 K(fa + fb - 1) + 2 K(fa - fb), symmetric in (fa, fb), minimum
    2/3.  At (f, f), less the mainlobe 1, it is the auto limit
    2/3 - 4|f - 1/2| + 8 (f - 1/2)^2, minimum 1/6 at f = 1/4 or 3/4."""
    return 2.0 / 3.0 + 2.0 * _kernel(fa + fb - 1.0) + 2.0 * _kernel(fa - fb)


@dataclass(frozen=True)
class AsymptoticIsl:
    """Normalized (ISL / n^2) asymptotic value of a rotation set, split
    into auto and cross parts; arrays over the leading axes for a batch."""

    auto_part: float | np.ndarray
    cross_part: float | np.ndarray

    @property
    def total(self) -> float | np.ndarray:
        return self.auto_part + self.cross_part


def isl_limit(fractions) -> AsymptoticIsl:
    """Asymptotic normalized ISL of a rotation set, or of a batch of sets.

    fractions has shape (M,) or (..., M).  Cross terms run over ordered
    pairs (p, q), p != q, so each unordered pair contributes twice,
    mirroring the term structure of the exact report.  A single set gives
    float parts; a batch gives arrays over its leading axes.  One
    rotation's limit is the auto part of {f}, one pair's half the cross
    part of {fa, fb}.
    """
    f = check_fractions(fractions)
    if f.ndim == 0:
        raise ValueError("expected rotation fractions of shape (M,) or (..., M), got a scalar")
    if f.shape[-1] == 0:
        raise ValueError("rotation set is empty")
    pair = _cross(f[..., :, None], f[..., None, :])
    pair = np.where(np.eye(f.shape[-1], dtype=bool), 0.0, pair)
    # the pair limit at (f, f) less the mainlobe 1 is the auto term, as the
    # report's diagonal less n^2 is; cumsum adds strictly left to right, in
    # the order of the term loop (p outer, q inner), so any batch row
    # equals its single-set value bit for bit
    auto = np.cumsum(_cross(f, f) - 1.0, axis=-1)[..., -1]
    cross = np.cumsum(pair.reshape(*f.shape[:-1], -1), axis=-1)[..., -1]
    if f.ndim == 1:
        return AsymptoticIsl(auto_part=float(auto), cross_part=float(cross))
    return AsymptoticIsl(auto_part=auto, cross_part=cross)
