"""Antipodal sequence construction: primality, Legendre sequences, rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Witnesses sufficient for a deterministic Miller-Rabin test of any n < 3.3e24,
# which comfortably covers the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for every n < 3.3e24
    (the witnesses below); past that a composite could pass."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def _require_odd_prime(n: int) -> None:
    if n == 2 or not is_prime(n):
        raise ValueError(f"n must be an odd prime, got {n}")


def legendre_sequence(n: int) -> np.ndarray:
    """Length-n antipodal sequence of quadratic residuosity, n an odd prime.

    Element 0 is fixed to +1; element j (j >= 1) is +1 iff j is a square
    mod n.  Built from the set of nonzero squares, which is O(n) instead
    of n modular exponentiations.
    """
    _require_odd_prime(n)
    values = np.full(n, -1, dtype=np.int64)
    squares = (np.arange(1, (n + 1) // 2, dtype=np.int64) ** 2) % n
    values[squares] = 1
    values[0] = 1
    return values


def rotate_left(seq: np.ndarray, t: int) -> np.ndarray:
    """Cyclic left rotation: out[j] = seq[(j + t) mod n]. Negative t allowed."""
    seq = np.asarray(seq)
    return np.roll(seq, -(t % len(seq)))


def check_antipodal(seq) -> np.ndarray:
    """Validate +-1 entries (one sequence or rows of them) as int64."""
    arr = np.asarray(seq)
    if arr.size == 0:
        raise ValueError("sequence must be nonempty")
    # a real dtype first, since |1j| == 1; NaN and inf compare unequal
    if arr.dtype.kind not in "biuf" or not np.all(np.abs(arr) == 1):
        raise ValueError("sequence entries must be exactly -1 or +1")
    return arr.astype(np.int64, copy=False)


def round_half_up(x: float) -> int:
    # round() uses banker's rounding; offsets need the half-up convention
    return int(np.floor(x + 0.5))


def check_fractions(fractions) -> np.ndarray:
    """Rotation fractions as a float64 array, each checked to lie in
    [0, 1]; NaN is rejected.  f = 1 is a full turn and binds to offset 0."""
    f = np.asarray(fractions, dtype=np.float64)
    bad = ~((f >= 0.0) & (f <= 1.0))  # also true for NaN
    if bad.any():
        raise ValueError(f"rotation fraction must lie in [0, 1], got {f[bad][0]}")
    return f


@dataclass(frozen=True)
class RotationSet:
    """M rotation offsets bound to an odd prime length n."""

    offsets: tuple[int, ...]
    n: int

    def sequences(self) -> np.ndarray:
        """(M, n) int64 array, row p the Legendre sequence rotated left by offsets[p]."""
        base = legendre_sequence(self.n)
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([base, base]), self.n)
        return windows[list(self.offsets)]


def bind_rotations(fractions, n: int) -> RotationSet:
    """Resolve rotation fractions in [0, 1] to integer offsets for a
    given odd prime n."""
    _require_odd_prime(n)
    fr = check_fractions(fractions)
    if fr.ndim != 1:
        raise ValueError(f"expected rotation fractions of shape (M,), got shape {fr.shape}")
    offsets = tuple(round_half_up(f * n) % n for f in fr.tolist())
    return RotationSet(offsets=offsets, n=n)
