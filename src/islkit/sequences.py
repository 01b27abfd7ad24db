"""Antipodal sequence construction: primality, Legendre sequences, rotations."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

# Witnesses sufficient for a deterministic Miller-Rabin test of any n < 3.3e24,
# which comfortably covers the 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for every n < 3.3e24
    (the witnesses below); past that a composite could pass.  n must be
    an integer (numpy integers included): a float raises TypeError."""
    n = operator.index(n)
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
    """All primes p with lo <= p <= hi, ascending: a segmented sieve of
    [lo, hi] by the primes up to sqrt(hi), which a sieve of [2, sqrt(hi)]
    finds in the same loop.  A window narrower than sqrt(hi), whose sieve
    would cost more than the window, is tested integer by integer."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    if hi - lo + 1 < root:
        return [p for p in range(lo, hi + 1) if is_prime(p)]
    small, segment = bytearray([1]) * (root + 1), bytearray([1]) * (hi - lo + 1)
    for p in range(2, root + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
            first = max(p * p, -(-lo // p) * p)
            segment[first - lo::p] = bytes(len(range(first, hi + 1, p)))
    return list(compress(range(lo, hi + 1), segment))


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
    """Cyclic left rotation: out[j] = seq[(j + t) mod n], any integer t; twin of _cut_rotations."""
    seq = np.asarray(seq)
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    return np.roll(seq, -(t % len(seq)))


def _starts(offsets, n: int) -> np.ndarray:
    """The offsets mod n as int64: row p of a set is the base rotated left
    by starts[p].  A non-integer offset, a bool included, raises ValueError."""
    if any(isinstance(t, bool) for t in offsets):  # operator.index takes True as 1
        raise ValueError("offsets must be integers, got a bool")
    try:
        return np.array([operator.index(t) % n for t in offsets], dtype=np.int64)
    except TypeError as exc:  # a float offset names no rotation
        raise ValueError(f"offsets must be integers: {exc}") from None


def _cut_rotations(base: np.ndarray, starts, out: np.ndarray) -> np.ndarray:
    """Write the base rotated left by starts[p] (each in [0, n): _starts)
    into out[p, :n] as two slices, the one place rotated rows are cut;
    columns past n keep their values.  Returns out."""
    n = len(base)
    for row, t in zip(out, starts):
        row[:n - t], row[n - t:n] = base[t:], base[:t]
    return out


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


def _real_array(x, what: str) -> np.ndarray:
    """x as a float64 array, refused if its dtype is complex: the cast
    alone would keep the real part of a complex array."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.float64)


def check_fractions(fractions) -> np.ndarray:
    """Rotation fractions as a float64 array, each checked to lie in
    [0, 1]; NaN is rejected.  f = 1 is a full turn and binds to offset 0."""
    f = _real_array(fractions, "rotation fractions")
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
        """(M, n) int64 array, row p the Legendre sequence rotated left by offsets[p] mod n."""
        base = legendre_sequence(self.n)
        starts = _starts(self.offsets, self.n)
        return _cut_rotations(base, starts, np.empty((len(starts), self.n), dtype=np.int64))


def bind_rotations(fractions, n: int) -> RotationSet:
    """Resolve rotation fractions in [0, 1] to integer offsets for a
    given odd prime n."""
    _require_odd_prime(n)
    fr = check_fractions(fractions)
    if fr.ndim != 1:
        raise ValueError(f"expected rotation fractions of shape (M,), got shape {fr.shape}")
    offsets = tuple(round_half_up(f * n) % n for f in fr.tolist())
    return RotationSet(offsets=offsets, n=n)
