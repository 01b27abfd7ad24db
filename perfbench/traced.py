"""Run one islkit CLI op with every public islkit function timed.

usage: python perfbench/traced.py SPANS.npz OP_ID ARGV...

Each public function of the seven islkit modules (plus `cli._emit`,
which the layer table times) is replaced by a wrapper at every binding
site: the module attribute and every `from ... import` name that refers
to it.  A wrapper records one span (name, op id, start, end, parent span,
size, value) in memory; the spans are written to SPANS.npz when the op
ends.  islkit itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("sequences", "correlation", "spectral", "asymptotic", "optimize", "selfcheck", "cli")
PRIVATE_TIMED = {"cli": ("_emit",)}
# Functions whose span records len(first argument) as its size.
SIZED = {"correlation.aperiodic_correlation", "spectral.gf_at_roots",
         "asymptotic.isl_limit_batch"}
OPTIMIZER = "optimize.optimize_rotations"

SPAN_DTYPE = np.dtype([("name", "i4"), ("op", "i4"), ("start", "f8"), ("end", "f8"),
                       ("parent", "i8"), ("size", "i8"), ("value", "f8")])


class Tracer:
    """Span recorder for one op.  Calls nest on one thread, so the
    innermost open span is the parent of the next one."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, op_id = self.spans, self.stack, self.op_id
        sized = name in SIZED
        optimizer = name == OPTIMIZER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            size, value = (len(args[0]) if sized else -1), math.nan
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if optimizer:
                    # refinement_steps as size, distance above the known
                    # optimum m^2 - m + 1/6 as value
                    m = len(result.fractions)
                    size, value = result.refinement_steps, result.asym_value - (m * m - m + 1 / 6)
                return result
            finally:
                spans[i] = (name_id, op_id, start, perf_counter(), parent, size, value)
                stack.pop()

        return traced

    def array(self) -> np.ndarray:
        return np.array(self.spans, dtype=SPAN_DTYPE)


def public_functions(module, layer: str):
    """(attribute, function) for the functions a module defines and exports."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") and attr not in PRIVATE_TIMED.get(layer, ()):
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every public islkit function at every binding site."""
    modules = [importlib.import_module(f"islkit.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, fn in public_functions(module, layer):
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for module in [importlib.import_module("islkit"), *modules]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op_id)
    install(tracer)
    cli = sys.modules["islkit.cli"]
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        np.savez(spans_path, names=np.array(tracer.names), spans=tracer.array())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
