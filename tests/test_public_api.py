import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
    "roots_of_unity",
}


def test_all_is_sorted_and_resolves():
    assert islkit.__all__ == sorted(islkit.__all__)
    assert len(set(islkit.__all__)) == len(islkit.__all__)
    for name in islkit.__all__:
        assert hasattr(islkit, name), name
    assert set(islkit.__all__) == PUBLIC
    assert len(PUBLIC) == 26


COMPUTE_MODULES = ("asymptotic", "correlation", "optimize", "sequences", "spectral")


def fresh(code: str):
    """What `code` prints as JSON on its last line, run in a fresh interpreter,
    so that no module imported by the tests can hide an eager import."""
    src = os.path.dirname(os.path.dirname(islkit.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(set(sys.modules) & {names!r})))"


def test_bare_import_loads_no_submodule_and_no_numpy():
    watched = {"numpy", *(f"islkit.{m}" for m in COMPUTE_MODULES)}
    assert fresh("import islkit; " + LOADED.format(names=watched)) == []


def test_optimizer_loads_without_numpy():
    assert fresh("from islkit import optimize_rotations; "
                 + LOADED.format(names={"numpy"})) == []


EXACT = {"numpy", "islkit.correlation", "islkit.sequences"}
SPECTRAL = {"islkit.asymptotic", "islkit.selfcheck", "islkit.spectral"}


@pytest.mark.parametrize("argv,loaded", [
    # the exact path: sequences and correlation only
    ("isl --n 1009 --fractions 0 0.5", EXACT),
    ("gen --n 1009 --fraction 0.25", EXACT),
    # decimal comes with fractions, only for a p/q token
    ("isl --n 1009 --fractions 1/4 0.5", EXACT | {"decimal", "fractions"}),
    ("sweep --fractions 0 0.25 --n-min 23 --n-max 60", EXACT | {"islkit.asymptotic"}),
    ("sweep --optimal --m 2 --n-min 23 --n-max 60",
     EXACT | {"islkit.asymptotic", "islkit.optimize"}),
    ("optimize --m 5", EXACT | {"islkit.optimize"}),
    ("asym --fractions 0.1 0.2", EXACT | {"islkit.asymptotic"}),
    # the cross-check at n <= 199 and validate load the spectral layers
    ("isl --n 101 --fractions 0 0.5", EXACT | SPECTRAL),
    ("validate --max-n 7", EXACT | SPECTRAL),
])
def test_each_command_loads_only_its_layers(argv, loaded):
    # numpy.random is watched in every row: no command draws from it
    watched = {"numpy", "numpy.random", "fractions", "decimal",
               *(f"islkit.{m}" for m in (*COMPUTE_MODULES, "selfcheck"))}
    assert fresh(f"import islkit.cli; islkit.cli.main({argv.split()!r}); "
                 + LOADED.format(names=watched)) == sorted(loaded)


def test_star_import_binds_exactly_all():
    bound = fresh("before = set(globals()) | {'before'}\n"
                  "from islkit import *\n"
                  "import json; print(json.dumps(sorted(set(globals()) - before - {'json'})))")
    assert bound == islkit.__all__


def test_submodule_resolves_after_bare_import():
    assert fresh("import islkit, json; print(json.dumps(islkit.spectral.__name__))") \
        == "islkit.spectral"


def test_names_are_their_defining_modules_objects():
    for name in islkit.__all__:
        value = getattr(islkit, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert value.__module__.removeprefix("islkit.") in COMPUTE_MODULES, name


def test_dir_lists_every_export():
    assert set(islkit.__all__) <= set(dir(islkit))
    assert set(COMPUTE_MODULES) <= set(dir(islkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'islkit' has no attribute 'no_such_name'"):
        islkit.no_such_name


def test_wrappers_of_the_energy_matrix_are_gone():
    assert "energy_matrix_spectral" in islkit.__all__
    gone = {
        "islkit.asymptotic": ("auto_energy_limit", "cross_energy_limit"),
        "islkit.cli": ("_totals", "_crosschecked_totals"),
        "islkit.correlation": ("auto_sidelobe_energy", "power_spectrum"),
        "islkit.optimize": ("exact_validate", "ExactCheck"),
        "islkit.selfcheck": ("check_gauss_sum_closed_form", "check_gauss_sum_magnitude",
                             "check_periodic_bound", "_worst_error"),
        "islkit.sequences": ("legendre_symbol", "next_prime", "_rotations"),
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
    # rfft in the spectral path's power_spectrum and in the one exact
    # engine, _column_block, whose spectrum is a cross spectrum; its
    # inverse only in that engine; the complex transform only in
    # gf_at_roots.  Every module of the package is walked, and numpy.fft
    # is named nowhere else, not even as a bare reference
    callers, named = {}, set()
    for path in sorted(pathlib.Path(islkit.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    assert not any("fft" in name for name in names), where
                if isinstance(node, ast.Attribute) and node.attr == "fft":
                    named.add(where)
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "fft"):
                    callers.setdefault(node.attr, set()).add(where)
    assert callers == {"rfft": {"spectral.power_spectrum", "correlation._column_block"},
                       "irfft": {"correlation._column_block"},
                       "ifft": {"spectral.gf_at_roots"}}
    assert named == {"spectral.power_spectrum", "correlation._column_block",
                     "spectral.gf_at_roots"}


def test_validate_runs_every_check():
    # every public selfcheck function that returns check results is one
    # that run_validation calls: no check is defined that validate skips
    tree = ast.parse(inspect.getsource(importlib.import_module("islkit.selfcheck")))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    checks = {name for name, node in functions.items() if not name.startswith("_")
              and ast.unparse(node.returns) in ("CheckResult", "list[CheckResult]")}
    called = {node.func.id for node in ast.walk(functions["run_validation"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "prime_checks" in checks
    assert checks - {"run_validation"} <= called, checks - called


def names_by_function() -> set[tuple[str, str]]:
    """(module.function, name) for every identifier, attribute and imported
    name in the package, under the innermost function that names it."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        if name:
            found.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(pathlib.Path(islkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def test_one_row_builder():
    # the row rule (offsets taken mod n, row p the base rotated left by
    # starts[p]) is written once, in sequences._starts; every rotated row
    # is cut as two slices in sequences._cut_rotations, with no doubled
    # base or window view; the exact engine reads each set's starts, and
    # np.roll's rotate_left is left to the tests as its twin
    found = names_by_function()

    def naming(name):
        return {where for where, named in found if named == name}

    def called(name):
        return {where for where in naming(name) if not where.endswith("<module>")}

    assert naming("sliding_window_view") == set()
    assert naming("rotate_left") == set()
    assert "rotate_left" not in islkit.__all__
    assert callable(importlib.import_module("islkit.sequences").rotate_left)
    assert called("_starts") == {"sequences.sequences", "correlation._column_sums",
                                 "selfcheck.check_pattern_decomposition"}
    # the cutter serves RotationSet.sequences() (the rows of gen and of
    # isl_report in the cross-check), the exact engine's transform rows
    # and the pattern check
    assert called("_cut_rotations") == {"sequences.sequences", "correlation._column_block",
                                        "selfcheck.check_pattern_decomposition"}
    # every exact value goes through the one engine
    assert called("_column_sums") == {"correlation._legendre_totals", "correlation.isl_totals",
                                      "correlation.isl_report",
                                      "selfcheck.periodic_autocorrelation_exact"}
    assert called("_column_block") == {"correlation._column_sums"}
    # no callable reaches the engine: it calls none of its parameters, and
    # no caller hands it a lambda or a nested function
    tree = ast.parse(inspect.getsource(islkit.correlation))
    engine = next(node for node in tree.body
                  if getattr(node, "name", None) == "_column_block")
    params = {arg.arg for arg in engine.args.args}
    assert params == {"block"}
    calls = {node.func.id for node in ast.walk(engine)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not params & calls
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Lambda)
        if isinstance(node, ast.FunctionDef):
            assert not any(isinstance(inner, ast.FunctionDef)
                           for inner in ast.walk(node) if inner is not node), node.name


def test_report_is_the_totals_plus_its_pairs():
    def names(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert names(islkit.IslTotals) == {"auto_terms", "total", "normalized", "n", "m"}
    assert names(islkit.IslReport) == names(islkit.IslTotals) | {"cross_terms"}
    assert issubclass(islkit.IslReport, islkit.IslTotals)
    assert set(islkit.IslReport.__annotations__) == {"cross_terms"}
