import ast
import dataclasses
import importlib
import inspect

import islkit
import islkit.optimize


# every export has a caller outside the tests: a new one is added here on purpose
PUBLIC = {
    "AsymptoticIsl", "IslReport", "IslTotals", "OptResult", "PatternSums", "RotationSet",
    "aperiodic_correlation", "bind_rotations", "cross_energy", "energy_matrix_spectral",
    "gf_at_roots", "gf_eval", "interpolate_negated_root", "is_prime", "isl_limit",
    "isl_report", "isl_totals", "legendre_gf_closed_form", "legendre_sequence",
    "optimize_rotations", "pattern_decomposition", "periodic_autocorrelation",
    "power_sum_at_negated_roots", "primes_in_range", "re_dilog_on_circle",
    "roots_of_unity", "rotate_left",
}


def test_all_is_sorted_and_resolves():
    assert islkit.__all__ == sorted(islkit.__all__)
    assert len(set(islkit.__all__)) == len(islkit.__all__)
    for name in islkit.__all__:
        assert hasattr(islkit, name), name
    assert set(islkit.__all__) == PUBLIC
    assert len(PUBLIC) == 27


def test_wrappers_of_the_energy_matrix_are_gone():
    assert "energy_matrix_spectral" in islkit.__all__
    gone = {
        "islkit.asymptotic": ("auto_energy_limit", "cross_energy_limit"),
        "islkit.correlation": ("auto_sidelobe_energy",),
        "islkit.optimize": ("exact_validate", "ExactCheck"),
        "islkit.sequences": ("legendre_symbol", "next_prime"),
        "islkit.spectral": ("cross_energy_spectral", "auto_sidelobe_energy_spectral",
                            "power_sum_at_roots", "_power_product_sum",
                            "gf_at_negated_roots"),
    }
    for module, names in gone.items():
        for name in names:
            assert name not in islkit.__all__
            assert not hasattr(islkit, name), name
            assert not hasattr(importlib.import_module(module), name), (module, name)


def test_no_fields_that_nothing_reads():
    def names(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert names(islkit.RotationSet) == {"offsets", "n"}
    assert "fractions" not in names(islkit.AsymptoticIsl)
    assert "exact_check" not in names(islkit.OptResult)


def islkit_imports(module) -> set[str]:
    """Names of the islkit modules that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module else
                             [alias.name for alias in node.names])
            elif node.module and node.module.split(".")[0] == "islkit":
                found.add(node.module.removeprefix("islkit").lstrip(".") or "islkit")
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("islkit.") for alias in node.names
                         if alias.name.split(".")[0] == "islkit")
    return found


def test_optimize_imports_only_asymptotic():
    # the optimum and its value are both closed-form: no islkit import
    assert islkit_imports(islkit.optimize) == set()


def test_one_caller_per_fft():
    # one power-spectrum primitive under the exact and spectral paths:
    # rfft only in spectral.power_spectrum, its inverse only in the row
    # routine both exact paths share, the complex transform only in
    # gf_at_roots
    callers = {}
    for layer in ("asymptotic", "cli", "correlation", "optimize", "selfcheck",
                  "sequences", "spectral"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"islkit.{layer}")))
        for stmt in tree.body:
            where = f"{layer}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    assert not any("fft" in name for name in names), where
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "fft"):
                    callers.setdefault(node.attr, set()).add(where)
    assert callers == {"rfft": {"spectral.power_spectrum"},
                       "irfft": {"correlation._rounded_autocorrelation"},
                       "ifft": {"spectral.gf_at_roots"}}


def test_report_is_the_totals_plus_its_pairs():
    def names(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert names(islkit.IslTotals) == {"auto_terms", "total", "normalized", "n", "m"}
    assert names(islkit.IslReport) == names(islkit.IslTotals) | {"cross_terms"}
    assert issubclass(islkit.IslReport, islkit.IslTotals)
    assert set(islkit.IslReport.__annotations__) == {"cross_terms"}
