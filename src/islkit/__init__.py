"""Integrated sidelobe level of rotated Legendre sequence sets.

Direct (oracle) correlation sums, the root-of-unity spectral route with
closed-form kernel sums, asymptotic limits in the rotation fractions,
and a rotation optimizer, all behind one CLI.
"""

from .asymptotic import (
    AsymptoticIsl,
    auto_energy_limit,
    cross_energy_limit,
    isl_limit,
    re_dilog_on_circle,
)
from .correlation import (
    IslReport,
    IslTotals,
    aperiodic_correlation,
    auto_sidelobe_energy,
    cross_energy,
    isl_report,
    isl_totals,
    periodic_autocorrelation,
)
from .optimize import OptResult, optimize_rotations
from .sequences import (
    RotationSet,
    bind_rotations,
    is_prime,
    legendre_sequence,
    legendre_symbol,
    next_prime,
    primes_in_range,
    rotate_left,
)
from .spectral import (
    PatternSums,
    energy_matrix_spectral,
    gf_at_negated_roots,
    gf_at_roots,
    gf_eval,
    interpolate_negated_root,
    legendre_gf_closed_form,
    pattern_decomposition,
    power_sum_at_negated_roots,
    power_sum_at_roots,
    roots_of_unity,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticIsl",
    "IslReport",
    "IslTotals",
    "OptResult",
    "PatternSums",
    "RotationSet",
    "aperiodic_correlation",
    "auto_energy_limit",
    "auto_sidelobe_energy",
    "bind_rotations",
    "cross_energy",
    "cross_energy_limit",
    "energy_matrix_spectral",
    "gf_at_negated_roots",
    "gf_at_roots",
    "gf_eval",
    "interpolate_negated_root",
    "is_prime",
    "isl_limit",
    "isl_report",
    "isl_totals",
    "legendre_gf_closed_form",
    "legendre_sequence",
    "legendre_symbol",
    "next_prime",
    "optimize_rotations",
    "pattern_decomposition",
    "periodic_autocorrelation",
    "power_sum_at_negated_roots",
    "power_sum_at_roots",
    "primes_in_range",
    "re_dilog_on_circle",
    "roots_of_unity",
    "rotate_left",
]
