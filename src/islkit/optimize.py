"""Minimization of the asymptotic normalized ISL over rotation fractions.

The minimum over M fractions is M^2 - M + 1/6, reached at
f_p = (2p - 1)/(4M), p = 1..M.  Proof:

- Put u_p = f_p - 1/2, B(x) = ({x} - 1/2)^2 (the asymptotic module's
  kernel) and X = {+-u_p}, a multiset of 2M points on the circle R/Z.
- isl_limit, the pair limit 2/3 + 2B(u_p + u_q) + 2B(u_p - u_q) summed
  over all (p, q) less 1 per p, is 2M^2/3 - M + sum_{x, y in X} B(x - y).
- B is strictly convex on [0, 1].  Sort X around the circle as
  x_0 <= ... <= x_{2M-1}; for each cyclic gap order r the forward gaps
  from x_i to x_{i+r}, each in [0, 1], sum to r, so Jensen gives
  sum_i B(x_{i+r} - x_i) >= 2M B(r/2M), with equality only when X is
  equally spaced.  Summed over r = 0..2M-1 the bounds give
  2M (M/6 + 1/(12M)), so isl_limit >= M^2 - M + 1/6.
- Equally spaced points are distinct, but u_p = 0 puts 0 into X twice
  and u_p = +-1/2 puts 1/2 into X twice.  The only equally spaced sets
  of 2M points closed under x -> -x are the multiples of 1/(2M), which
  contain 0, and the odd multiples of 1/(4M).  So X is the latter, |u_p|
  runs over (2q - 1)/(4M), q = 1..M, and f_p is in
  {1/2 +- (2q - 1)/(4M)}; every such choice attains the bound.
- The 2^M sign choices (reflections f_p -> 1 - f_p) tie; the sorted,
  lexicographically smallest takes every f_p below 1/2, which is
  (2p - 1)/(4M).

For M = 1 this is the merit-factor-6 quarter rotation (Hoholdt and
Jensen, IEEE Trans. Inf. Theory 34(1), 1988).
"""

from __future__ import annotations

from dataclasses import dataclass

from .asymptotic import isl_limit


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: canonical (sorted) fractions and their value.

    refinement_steps is always 0: the optimum is closed-form, no search
    refines it.
    """

    fractions: tuple[float, ...]
    asym_value: float
    refinement_steps: int = 0


def optimize_rotations(m: int) -> OptResult:
    """The canonical minimizer (2p - 1)/(4m), p = 1..m, of the asymptotic
    ISL, with its value M^2 - M + 1/6 evaluated by isl_limit."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    fractions = tuple((2 * p - 1) / (4 * m) for p in range(1, m + 1))
    return OptResult(fractions=fractions, asym_value=isl_limit(fractions).total)
