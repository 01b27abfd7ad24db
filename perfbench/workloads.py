"""Seeded op lists for the benchmark's four workloads.

Every op is the argv of one `python -m islkit.cli` process.  Ops come in
rounds; a run executes whole rounds, so a workload whose ops differ in
cost (`optimize`) always runs its full mix.  The argv sequence depends on
the workload name and the seed alone.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

WORKLOADS = ("exact-large", "sweep-small", "optimize", "validate")


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi (sieve of Eratosthenes)."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


# Below DIRECT_N_CAP (20000), so no --allow-large, and above the CLI's
# spectral cross-check limit (199), so only the direct path runs.
EXACT_PRIMES = primes_between(19000, 19997)


def _fractions(rng: random.Random, count: int) -> list[str]:
    """Four-decimal rotation fractions in [0, 1)."""
    return [f"{rng.randrange(10_000) / 10_000:.4f}" for _ in range(count)]


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless rounds of op argvs for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "exact-large":
            yield [["isl", "--n", str(rng.choice(EXACT_PRIMES)),
                    "--fractions", *_fractions(rng, 4)]]
        elif workload == "sweep-small":
            yield [["sweep", "--fractions", *_fractions(rng, 8),
                    "--n-min", "23", "--n-max", "499"]]
        elif workload == "optimize":
            ops = [["optimize", "--m", str(m)] for m in range(2, 7)]
            ops.append(["surface", "--resolution", str(rng.randint(120, 136))])
            rng.shuffle(ops)
            yield ops
        else:
            yield [["validate", "--max-n", "199", "--seed", str(rng.randrange(2**31))]]

