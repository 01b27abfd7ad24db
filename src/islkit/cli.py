"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 numerical-validation failure.
All data output is CSV with a header row; floats are printed with up to
12 significant digits and a '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import selfcheck
from .asymptotic import isl_limit
from .correlation import MAX_EXACT_N, RoundingResidualError, isl_report
from .optimize import exact_validate, optimize_rotations
from .sequences import bind_rotations, is_prime, primes_in_range
from .spectral import auto_sidelobe_energy_spectral, cross_energy_spectral

# Exact ISL is O(M^2 N log N) by FFT; isl with 4 rotations at n = 999983
# takes ~1.7 s and peaks near 160 MB.  Longer lengths need --allow-large.
DIRECT_N_CAP = 1_000_000
SPECTRAL_CHECK_MAX_N = 199
# surface --resolution R prints (R+1)^2 rows; R = 1000 takes ~3.5 s and
# peaks near 340 MB, and the cost grows with R^2.
SURFACE_RESOLUTION_CAP = 1000
# optimize evaluates its M-set with M x M arrays; --m 1000 peaks near 60 MB.
# It also bounds every --fractions list (isl, sweep, asym).
M_CAP = 1000


class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: --m must not stand in for --max-n
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # usage problems must exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_fraction(token: str) -> float:
    """Rotation fraction from a decimal or a p/q rational literal."""
    try:
        value = float(Fraction(token)) if "/" in token else float(token)
    except OverflowError:  # a rational too large for a float
        value = math.inf
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid fraction {token!r}: {exc}") from None
    if not math.isfinite(value):
        raise UsageError(f"invalid fraction {token!r}: not a finite number")
    return value


def parse_fraction_list(tokens) -> list[float]:
    """Fractions from space- or comma-separated tokens, at most M_CAP."""
    tokens = [t for token in tokens for t in token.split(",") if t]
    if not tokens:
        raise UsageError("at least one fraction is required")
    if len(tokens) > M_CAP:
        raise UsageError(f"at most {M_CAP} fractions are allowed, got {len(tokens)}")
    return [parse_fraction(t) for t in tokens]


def _require_prime(n: int) -> int:
    if n == 2 or not is_prime(n):
        raise UsageError(f"n must be an odd prime, got {n}")
    return n


def _check_cap(n: int, allow_large: bool) -> None:
    # checked before any sequence is built, so a huge n never allocates
    if n > MAX_EXACT_N:
        raise UsageError(f"n={n} exceeds {MAX_EXACT_N}, beyond which ISL energies overflow int64")
    if n > DIRECT_N_CAP and not allow_large:
        raise UsageError(
            f"n={n} exceeds the direct-computation cap {DIRECT_N_CAP}; "
            "pass --allow-large to override"
        )


def _check_m(m: int) -> int:
    if not 1 <= m <= M_CAP:
        raise UsageError(f"--m must lie in [1, {M_CAP}], got {m}")
    return m


def _emit(lines, output_path):
    if output_path:
        try:
            with open(output_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {output_path!r}: {exc.strerror or exc}") from None
    else:
        print("\n".join(lines))


def cmd_gen(args) -> int:
    n = _require_prime(args.n)
    # the same bound as isl, checked before the length-n sequence exists
    if n > MAX_EXACT_N:
        raise UsageError(f"n={n} exceeds {MAX_EXACT_N}, the longest sequence islkit builds")
    rset = bind_rotations([parse_fraction(args.fraction)], n)
    seq = rset.sequences()[0]
    _emit([" ".join(str(int(v)) for v in seq)], args.output)
    return 0


def _isl_spectral_crosscheck(report, seqs) -> None:
    checks = []
    for p, s in enumerate(seqs):
        checks.append((f"auto[{p}]", report.auto_terms[p], auto_sidelobe_energy_spectral(s)))
    for p in range(report.m):
        for q in range(p + 1, report.m):
            checks.append(
                (f"cross[{p},{q}]", report.cross_terms[p, q], cross_energy_spectral(seqs[p], seqs[q]))
            )
    for name, direct, spec_val in checks:
        err = abs(spec_val - direct) / max(abs(direct), 1.0)
        if err > 1e-9:
            raise ValidationFailure(
                f"spectral cross-check failed for {name}: direct={direct!r} "
                f"spectral={spec_val!r} rel_err={err:.3e}"
            )


def cmd_isl(args) -> int:
    n = _require_prime(args.n)
    _check_cap(n, args.allow_large)
    fractions = parse_fraction_list(args.fractions)
    rset = bind_rotations(fractions, n)
    seqs = rset.sequences()
    report = isl_report(seqs)
    if n <= SPECTRAL_CHECK_MAX_N:
        _isl_spectral_crosscheck(report, seqs)
    # Python ints: exact at any n, and the same digits as fmt below 10^12
    auto_part = sum(report.auto_terms.tolist())
    cross_part = sum(report.cross_terms.ravel().tolist())
    lines = [
        "N,M,total,normalized,auto_part,cross_part",
        ",".join(
            [str(n), str(report.m), str(report.total), fmt(report.normalized),
             str(auto_part), str(cross_part)]
        ),
    ]
    _emit(lines, args.output)
    return 0


def cmd_asym(args) -> int:
    fractions = parse_fraction_list(args.fractions)
    limit = isl_limit(fractions)
    lines = [
        "M,total,auto_part,cross_part",
        ",".join([str(len(fractions)), fmt(limit.total), fmt(limit.auto_part),
                  fmt(limit.cross_part)]),
    ]
    _emit(lines, args.output)
    return 0


def cmd_surface(args) -> int:
    r = args.resolution
    if not 2 <= r <= SURFACE_RESOLUTION_CAP:
        raise UsageError(f"--resolution must lie in [2, {SURFACE_RESOLUTION_CAP}], got {r}")
    axis = np.arange(r + 1) / r
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rows = np.column_stack([grid, isl_limit(grid).total])
    lines = ["f1,f2,asym_isl"]
    lines.extend(",".join(map(fmt, row)) for row in rows.tolist())
    _emit(lines, args.output)
    return 0


def cmd_sweep(args) -> int:
    if args.optimal:
        if args.m is None:
            raise UsageError("--optimal requires --m")
        fractions = list(optimize_rotations(_check_m(args.m)).fractions)
    elif args.fractions:
        fractions = parse_fraction_list(args.fractions)
        if args.m and args.m != len(fractions):
            raise UsageError(f"--m {args.m} contradicts {len(fractions)} fractions")
    else:
        raise UsageError("sweep needs --fractions or --optimal")
    if args.n_min > args.n_max:
        raise UsageError("--n-min must not exceed --n-max")
    primes = primes_in_range(max(args.n_min, 3), args.n_max)
    if not primes:
        raise UsageError(f"no odd primes in [{args.n_min}, {args.n_max}]")
    _check_cap(primes[-1], args.allow_large)

    asym = isl_limit(fractions).total
    lines = ["N,exact_normalized,asymptotic,relative_error"]
    for n in primes:
        rset = bind_rotations(fractions, n)
        exact = isl_report(rset.sequences()).normalized
        rel = abs(exact - asym) / abs(asym)
        lines.append(",".join([str(n), fmt(exact), fmt(asym), fmt(rel)]))
    _emit(lines, args.output)
    return 0


def cmd_optimize(args) -> int:
    result = optimize_rotations(_check_m(args.m))
    lines = [
        " ".join(f"{f:.6g}" for f in result.fractions) + f"  {result.asym_value:.6f}"
    ]
    if args.exact_check is not None:
        n = _require_prime(args.exact_check)
        _check_cap(n, args.allow_large)
        result = exact_validate(result, n)
        chk = result.exact_check
        rel = abs(chk.normalized - result.asym_value) / result.asym_value
        lines.append(
            f"exact-check N={chk.n} offsets={','.join(map(str, chk.offsets))} "
            f"normalized={fmt(chk.normalized)} rel_err={fmt(rel)}"
        )
    _emit(lines, args.output)
    return 0


def cmd_validate(args) -> int:
    if args.max_n < 7:
        raise UsageError("--max-n must be >= 7")
    results = selfcheck.run_validation(args.max_n, args.seed)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        line = f"{status:4s} {r.name:28s} max_error={r.max_error:.3e} tol={r.tolerance:.1e}"
        if not r.passed:
            line += f" worst={r.worst_input}"
        lines.append(line)
    _emit(lines, args.output)
    if not all(r.passed for r in results):
        failed = ", ".join(r.name for r in results if not r.passed)
        raise ValidationFailure(f"failed checks: {failed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="islkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print one rotated Legendre sequence")
    p.add_argument("--n", type=int, required=True, help="odd prime length")
    p.add_argument("--fraction", default="0", help="rotation fraction (decimal or p/q)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("isl", help="exact ISL of a rotated-sequence set")
    p.add_argument("--n", type=int, required=True, help="odd prime length")
    p.add_argument("--fractions", nargs="+", required=True,
                   help="rotation fractions (decimals or p/q, space or comma separated)")
    p.add_argument("--allow-large", action="store_true",
                   help=f"permit n beyond {DIRECT_N_CAP}")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_isl)

    p = sub.add_parser("asym", help="asymptotic normalized ISL of a rotation set")
    p.add_argument("--fractions", nargs="+", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("surface", help="asymptotic ISL grid for two rotations")
    p.add_argument("--resolution", type=int, default=128, help="grid cells per axis")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("sweep", help="exact vs asymptotic ISL over a prime range")
    p.add_argument("--m", type=int, default=None, help="set size (with --optimal)")
    p.add_argument("--fractions", nargs="+", default=None)
    p.add_argument("--optimal", action="store_true",
                   help="use rotations minimizing the asymptotic ISL")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="minimize the asymptotic ISL over rotations")
    p.add_argument("--m", type=int, required=True, help=f"set size, 1..{M_CAP}")
    p.add_argument("--exact-check", type=int, default=None,
                   help="also compute the exact normalized ISL at this prime")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="run all cross-path consistency checks")
    p.add_argument("--max-n", type=int, default=61)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationFailure, RoundingResidualError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
