"""Large-n limits of normalized correlation energies for rotated
Legendre sequence sets, as closed forms in the rotation fractions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import check_fractions


def re_dilog_on_circle(theta):
    """Real part of the dilogarithm series sum_k z^k / k^2 at z = e^(i*theta),
    at a scalar angle or elementwise over an array of angles.

    Piecewise-quadratic closed form pi^2/6 - |t|(2*pi - |t|)/4 with t the
    angle reduced to [0, 2*pi); periodic in theta.
    """
    t = np.mod(theta, 2 * np.pi)
    return np.pi**2 / 6.0 - 0.25 * t * (2 * np.pi - t)


def _auto(f: np.ndarray) -> np.ndarray:
    d = np.abs(f - 0.5)
    return 2.0 / 3.0 - 4.0 * d + 8.0 * d * d


def _cross(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    sum_dev = np.abs(fa + fb - 1.0) - 0.5
    diff_dev = np.abs(fa - fb) - 0.5
    return 2.0 / 3.0 + 2.0 * (sum_dev * sum_dev) + 2.0 * (diff_dev * diff_dev)


def auto_energy_limit(f: float) -> float:
    """Limit of (auto sidelobe energy) / n^2 for rotation fraction f.

    2/3 - 4|f - 1/2| + 8 (f - 1/2)^2; minimum 1/6 at f = 1/4 or 3/4.
    """
    return float(_auto(check_fractions(f)))


def cross_energy_limit(fa: float, fb: float) -> float:
    """Limit of (cross-correlation energy) / n^2 for a rotation pair.

    2/3 + 2 (|fa + fb - 1| - 1/2)^2 + 2 (|fa - fb| - 1/2)^2, symmetric in
    (fa, fb); minimum 2/3.
    """
    return float(_cross(check_fractions(fa), check_fractions(fb)))


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
    float parts; a batch gives arrays over its leading axes.
    """
    f = check_fractions(fractions)
    if f.ndim == 0 or f.shape[-1] == 0:
        raise ValueError("rotation set is empty")
    pair = _cross(f[..., :, None], f[..., None, :])
    pair = np.where(np.eye(f.shape[-1], dtype=bool), 0.0, pair)
    # cumsum adds strictly left to right, in the order of the term loop
    # (p outer, q inner), so any batch row equals its single-set value
    # bit for bit
    auto = np.cumsum(_auto(f), axis=-1)[..., -1]
    cross = np.cumsum(pair.reshape(*f.shape[:-1], -1), axis=-1)[..., -1]
    if f.ndim == 1:
        return AsymptoticIsl(auto_part=float(auto), cross_part=float(cross))
    return AsymptoticIsl(auto_part=auto, cross_part=cross)
