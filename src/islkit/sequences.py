"""Antipodal sequence construction: primality, Legendre symbols, rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Witnesses sufficient for a deterministic Miller-Rabin test of any n < 3.3e24,
# which comfortably covers the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers."""
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


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    out = []
    p = next_prime(lo)
    while p <= hi:
        out.append(p)
        p = next_prime(p + 1)
    return out


def _require_odd_prime(n: int) -> None:
    if n == 2 or not is_prime(n):
        raise ValueError(f"n must be an odd prime, got {n}")


def legendre_symbol(j: int, n: int) -> int:
    """Quadratic character of j mod n (n an odd prime): +1, -1 or 0.

    Euler's criterion: j^((n-1)/2) mod n is 1 for nonzero squares and
    n-1 for nonsquares.
    """
    _require_odd_prime(n)
    j %= n
    if j == 0:
        return 0
    s = pow(j, (n - 1) // 2, n)
    return -1 if s == n - 1 else 1


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
    fr = check_fractions(fractions).tolist()
    offsets = tuple(round_half_up(f * n) % n for f in fr)
    return RotationSet(offsets=offsets, n=n)
