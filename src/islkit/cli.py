"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 numerical-validation failure.
All data output is CSV with a header row; floats are printed with up to
12 significant digits and a '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

# Each command imports the other layers it computes with when it runs:
# the exact path (gen, isl above SPECTRAL_CHECK_MAX_N, sweep's exact
# column) needs only these two, which the argument checks and the
# exit-code mapping read as well.
from .correlation import (MAX_EXACT_N, RoundingResidualError, _legendre_totals, isl_report,
                          isl_totals)
from .sequences import (bind_rotations, check_fractions, is_prime, legendre_sequence,
                        primes_in_range)

# Every exact value comes from one engine (correlation._column_sums).
# isl streams each rotation as a one-row set, one FFT round trip of
# length ~2n per block of rows, in O(n) memory, and checks its total
# against the set's column sum, one round trip of at most two rows; so
# this bound on M * sum(n) * log2(n_max), summed over every odd n in
# range, limits its time.  On a 2-core x86-64 host with one BLAS thread,
# fresh processes, at the bound: isl with 55 rotations at n = 2399993
# takes ~18 s at ~250 MB and 140 at n = 999983 ~15 s at ~122 MB.  isl
# at n <= SPECTRAL_CHECK_MAX_N takes its terms from isl_report instead,
# which builds the (M, n) array and the pair matrices its spectral
# cross-check compares: 1000 rotations at n = 199 take ~0.35 s at
# ~85 MB.  sweep and optimize --exact-check take only the column sum
# per prime, whose cost does not grow with M (see _check_exact_work):
# from n = 3, one rotation sweeps to n = 27554 in ~3.5 s, two to 19806
# in ~2.5 s, three to 16332 in ~2.2 s, four to 14244 in ~2.1 s, 100 to
# 3106 and 1000 to 1056 in ~0.35-0.5 s (~52 MB, the asymptotic column's
# M x M arrays); 55 rotations at n = 2399993 take ~0.8 s at ~230 MB;
# the 8 rotations over 23..499 of the README take ~0.15 s.
MAX_EXACT_WORK = 28 * 10**8
SPECTRAL_CHECK_MAX_N = 199
# surface --resolution R prints (R+1)^2 rows; R = 1000 takes ~3.5 s and
# peaks near 340 MB, and the cost grows with R^2.
SURFACE_RESOLUTION_CAP = 1000
# Bounds --m (optimize, sweep --optimal) and every --fractions list (isl,
# sweep, asym).  isl_limit evaluates a set with M x M arrays: asym with
# 1000 fractions peaks near 53 MB RSS, and so does sweep's asymptotic
# column.  optimize itself is closed-form and costs O(M).
M_CAP = 1000
# validate runs its three Legendre checks on every prime up to --max-n,
# each prime with one build, one transform and one exact-engine round
# trip (selfcheck.prime_checks).  In fresh processes with one BLAS thread
# on a 2-core x86-64 host, --max-n 2003 takes ~0.3 s of CPU and 10000
# ~1.5 s.  Time no longer sets the cap: every check's tolerance has been
# verified up to it, and gauss-sum-magnitude's, which grows with n
# (selfcheck._magnitude_tolerance), needs re-deriving above it.
VALIDATE_MAX_N = 10_000


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
    """Rotation fraction in [0, 1] from a decimal or a p/q rational literal."""
    try:
        if "/" in token:
            from fractions import Fraction  # with decimal: only for a p/q token

            value = float(Fraction(token))
        else:
            value = float(token)
    except OverflowError:  # a rational too large for a float
        value = math.inf
    except ZeroDivisionError:  # its text is only the Fraction call
        raise UsageError(f"invalid fraction {token!r}: zero denominator") from None
    except ValueError as exc:
        raise UsageError(f"invalid fraction {token!r}: {exc}") from None
    if not math.isfinite(value):
        raise UsageError(f"invalid fraction {token!r}: not a finite number")
    try:
        check_fractions(value)
    except ValueError as exc:
        raise UsageError(f"invalid fraction {token!r}: {exc}") from None
    return value


def parse_fraction_list(tokens) -> list[float]:
    """Fractions from space- or comma-separated tokens, at most M_CAP."""
    tokens = [t for token in tokens for t in token.split(",") if t]
    if not tokens:
        raise UsageError("at least one fraction is required")
    if len(tokens) > M_CAP:
        raise UsageError(f"at most {M_CAP} fractions are allowed, got {len(tokens)}")
    return [parse_fraction(t) for t in tokens]


def _exact_length(n: int, m: int) -> int:
    """n, once m rotations of it pass the O(1) work bound and n is an odd
    prime: Miller-Rabin on a ~1300-digit n takes seconds."""
    _check_exact_work(m, n, n)
    if n == 2 or not is_prime(n):
        raise UsageError(f"n must be an odd prime, got {n}")
    return n


def _check_exact_work(m: int, n_min: int, n_max: int) -> None:
    # O(1), before any sequence is built, any prime is listed or n is
    # tested; the sum runs over every odd n in range, an upper bound on
    # the primes.  It counts M for sweep and optimize --exact-check too,
    # whose column sums cost the same at any M: a bound re-fitted to them
    # would admit commands that exit 1 today, such as optimize --m 1000
    # --exact-check 999983 of the golden corpus, and would be a second
    # bound keyed on the command.  So every refusal stays, and they run
    # far inside it.
    if n_max > MAX_EXACT_N:
        raise UsageError(f"n={n_max} exceeds {MAX_EXACT_N}, beyond which ISL energies overflow int64")
    lo, hi = max(n_min, 3) | 1, n_max - 1 + n_max % 2
    if hi < lo:
        return
    work = m * ((hi - lo) // 2 + 1) * (lo + hi) // 2 * math.log2(hi)
    if work > MAX_EXACT_WORK:
        raise UsageError(f"M={m} sequences of length n in [{n_min}, {n_max}] need "
                         f"~{work:.3g} units of work, more than the bound {MAX_EXACT_WORK}")


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
        # flushed here, so a closed pipe raises inside main, not at exit
        print("\n".join(lines), flush=True)


def cmd_gen(args) -> int:
    n = _exact_length(args.n, 1)
    rset = bind_rotations([parse_fraction(args.fraction)], n)
    seq = rset.sequences()[0]
    _emit([" ".join(str(int(v)) for v in seq)], args.output)
    return 0


def _isl_spectral_crosscheck(report, seqs) -> None:
    from . import selfcheck
    from .spectral import energy_matrix_spectral

    direct = report.cross_terms + np.diag(report.auto_terms)
    spectral = energy_matrix_spectral(seqs) - report.n**2 * np.eye(report.m)
    err = np.abs(spectral - direct) / np.maximum(np.abs(direct), 1.0)

    def label(i):
        at = np.unravel_index(i, err.shape)
        p, q = sorted(at)
        name = f"auto[{p}]" if p == q else f"cross[{p},{q}]"
        return f"{name}: direct={direct[at]} spectral={float(spectral[at])!r}"

    result = selfcheck._worst_error("isl-spectral-crosscheck", selfcheck._SPECTRAL_VS_EXACT_TOL,
                                     [(err, label)])
    if not result.passed:
        raise ValidationFailure(f"spectral cross-check failed for {result.worst_input} "
                                f"rel_err={result.max_error:.3e}")


def _checked_totals(rset):
    """The set's terms from one exact pass, each value checked by one twin.
    At n <= SPECTRAL_CHECK_MAX_N they are isl_report's, every term checked
    against the spectral path; above it isl_totals streams them from the
    one Legendre base.  At every n the total must equal the set's
    fold-checked column sum (_legendre_totals): M one-row spectra against
    the base's two rows, or, where every offset is equal, one row checked
    by the fold alone."""
    base = legendre_sequence(rset.n)
    if rset.n <= SPECTRAL_CHECK_MAX_N:
        seqs = rset.sequences()
        terms = isl_report(seqs)
        _isl_spectral_crosscheck(terms, seqs)
    else:
        terms = isl_totals(base, rset.offsets)
    twin, = _legendre_totals([(base, rset.offsets)])
    if twin != terms.total:
        raise ValidationFailure(f"FFT column sum of n={rset.n} gives the total {twin}, "
                                f"its rows {terms.total}")
    return terms


def cmd_isl(args) -> int:
    fractions = parse_fraction_list(args.fractions)
    n = _exact_length(args.n, len(fractions))
    rset = bind_rotations(fractions, n)
    totals = _checked_totals(rset)
    # Python ints: exact at any n, and the same digits as fmt below 10^12
    auto_part = sum(totals.auto_terms.tolist())
    cross_part = totals.total - auto_part
    lines = [
        "N,M,total,normalized,auto_part,cross_part",
        ",".join(
            [str(n), str(totals.m), str(totals.total), fmt(totals.normalized),
             str(auto_part), str(cross_part)]
        ),
    ]
    _emit(lines, args.output)
    return 0


def cmd_asym(args) -> int:
    from .asymptotic import isl_limit

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
    from .asymptotic import isl_limit

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
        from .optimize import optimize_rotations

        fractions = list(optimize_rotations(_check_m(args.m)).fractions)
    else:
        fractions = parse_fraction_list(args.fractions)
        if args.m is not None and args.m != len(fractions):
            raise UsageError(f"--m {args.m} contradicts {len(fractions)} fractions")
    if args.n_min > args.n_max:
        raise UsageError("--n-min must not exceed --n-max")
    _check_exact_work(len(fractions), args.n_min, args.n_max)
    primes = primes_in_range(max(args.n_min, 3), args.n_max)
    if not primes:
        raise UsageError(f"no odd primes in [{args.n_min}, {args.n_max}]")
    from .asymptotic import isl_limit

    asym = isl_limit(fractions).total
    lines = ["N,exact_normalized,asymptotic,relative_error"]
    sets = ((legendre_sequence(n), bind_rotations(fractions, n).offsets) for n in primes)
    for n, total in zip(primes, _legendre_totals(sets)):
        exact = total / n**2
        rel = abs(exact - asym) / abs(asym)
        lines.append(",".join([str(n), fmt(exact), fmt(asym), fmt(rel)]))
    _emit(lines, args.output)
    return 0


def cmd_optimize(args) -> int:
    from .optimize import optimize_rotations

    result = optimize_rotations(_check_m(args.m))
    lines = [
        " ".join(f"{f:.6g}" for f in result.fractions) + f"  {result.asym_value:.6f}"
    ]
    if args.exact_check is not None:
        n = _exact_length(args.exact_check, args.m)
        rset = bind_rotations(result.fractions, n)
        total, = _legendre_totals([(legendre_sequence(n), rset.offsets)])
        normalized = total / n**2
        rel = abs(normalized - result.asym_value) / result.asym_value
        lines.append(
            f"exact-check N={n} offsets={','.join(map(str, rset.offsets))} "
            f"normalized={fmt(normalized)} rel_err={fmt(rel)}"
        )
    _emit(lines, args.output)
    return 0


def cmd_validate(args) -> int:
    if not 7 <= args.max_n <= VALIDATE_MAX_N:
        raise UsageError(f"--max-n must lie in [7, {VALIDATE_MAX_N}], got {args.max_n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    from . import selfcheck

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
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("isl", help="exact ISL of a rotated-sequence set")
    p.add_argument("--n", type=int, required=True, help="odd prime length")
    p.add_argument("--fractions", nargs="+", required=True,
                   help="rotation fractions (decimals or p/q, space or comma separated)")
    p.set_defaults(func=cmd_isl)

    p = sub.add_parser("asym", help="asymptotic normalized ISL of a rotation set")
    p.add_argument("--fractions", nargs="+", required=True)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("surface", help="asymptotic ISL grid for two rotations")
    p.add_argument("--resolution", type=int, default=128, help="grid cells per axis")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("sweep", help="exact vs asymptotic ISL over a prime range")
    p.add_argument("--m", type=int, default=None, help="set size (with --optimal)")
    rotations = p.add_mutually_exclusive_group(required=True)
    rotations.add_argument("--fractions", nargs="+")
    rotations.add_argument("--optimal", action="store_true",
                           help="use rotations minimizing the asymptotic ISL")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="minimize the asymptotic ISL over rotations")
    p.add_argument("--m", type=int, required=True, help=f"set size, 1..{M_CAP}")
    p.add_argument("--exact-check", type=int, default=None,
                   help="also compute the exact normalized ISL at this prime")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="run all cross-path consistency checks")
    p.add_argument("--max-n", type=int, default=61,
                   help=f"largest length checked, 7..{VALIDATE_MAX_N}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    for p in sub.choices.values():
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # no CLI check caught it: name the function that raised
        import traceback  # only on this path, so start-up stays lean

        origin = traceback.extract_tb(exc.__traceback__)[-1].name
        print(f"error in {origin}: {exc}", file=sys.stderr)
        return 1
    except (ValidationFailure, RoundingResidualError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
