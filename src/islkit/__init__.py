"""Integrated sidelobe level of rotated Legendre sequence sets.

Direct (oracle) correlation sums, the root-of-unity spectral route with
closed-form kernel sums, asymptotic limits in the rotation fractions,
and a rotation optimizer, all behind one CLI.

`import islkit` loads no submodule: each public name loads its
submodule, and numpy with it, on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# every public name, under the submodule that defines it
_EXPORTS = {
    "asymptotic": ("AsymptoticIsl", "isl_limit", "re_dilog_on_circle"),
    "correlation": ("IslReport", "IslTotals", "aperiodic_correlation", "cross_energy",
                    "isl_report", "isl_totals", "periodic_autocorrelation"),
    "optimize": ("OptResult", "optimize_rotations"),
    "sequences": ("RotationSet", "bind_rotations", "is_prime", "legendre_sequence",
                  "primes_in_range"),
    "spectral": ("PatternSums", "energy_matrix_spectral", "gf_at_roots", "gf_eval",
                 "interpolate_negated_root", "legendre_gf_closed_form",
                 "pattern_decomposition", "power_sum_at_negated_roots", "roots_of_unity"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value  # later lookups skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
