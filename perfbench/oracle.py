"""Output oracles for every op the benchmark runs.

Nothing here imports islkit: the Legendre sequence, the rotation offsets,
the correlation energies and the asymptotic formula are rebuilt from
their definitions, so a defect in islkit cannot hide in its own check.
Each `check_*` returns None when the output is right, else the reason.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import primes_between

VALIDATE_CHECKS = (
    "spectral-vs-direct",
    "kernel-twin",
    "gauss-sum-closed-form",
    "gauss-sum-magnitude",
    "periodic-bound",
    "dilog-series",
    "lagrange-interpolation",
    "pattern-decomposition",
)

# Largest distance of an FFT correlation value from its integer that
# still counts as rounding noise; integer inputs give integer correlations.
MAX_ROUNDING_RESIDUAL = 0.25


class OracleError(Exception):
    """The oracle itself could not produce a trustworthy value."""


def fmt(x: float) -> str:
    """The CLI's float format: 12 significant digits."""
    return f"{x:.12g}"


def legendre(n: int) -> np.ndarray:
    """+1 at 0 and at the nonzero squares mod n, -1 elsewhere."""
    seq = np.full(n, -1, dtype=np.int64)
    seq[[j * j % n for j in range(1, n)]] = 1
    seq[0] = 1
    return seq


def offset(fraction: float, n: int) -> int:
    """Half-up rounded rotation offset of a fraction at length n."""
    return math.floor(fraction * n + 0.5) % n


def energies(n: int, fractions) -> tuple[int, int]:
    """(auto part, cross part) of the exact ISL of the rotated set.

    The auto part sums each sequence's squared correlations over nonzero
    lags; the cross part sums the squared cross-correlations over all
    lags and both orders of every pair.  Correlations come from one FFT
    per rotation and are rounded to integers after a residual check.
    """
    base = legendre(n)
    idx = np.arange(n)
    rows = np.stack([base[(idx + offset(f, n)) % n] for f in fractions]).astype(np.float64)
    length = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1: no wrap-around
    spectra = np.fft.rfft(rows, length)
    p, q = np.triu_indices(len(fractions))
    corr = np.fft.irfft(spectra[p] * spectra[q].conj(), length)
    rounded = np.rint(corr)
    residual = float(np.max(np.abs(corr - rounded)))
    if residual >= MAX_ROUNDING_RESIDUAL:
        raise OracleError(f"FFT rounding residual {residual} at n={n}")
    energy = (rounded.astype(np.int64) ** 2).sum(axis=1)
    auto = int(energy[p == q].sum()) - len(fractions) * n * n
    return auto, 2 * int(energy[p != q].sum())


def asymptotic_total(fractions) -> float:
    """Large-n limit of ISL / n^2 for rotation fractions in [0, 1]."""
    f = np.asarray(fractions, dtype=np.float64)
    d = np.abs(f - 0.5)
    auto = np.sum(2.0 / 3.0 - 4.0 * d + 8.0 * d * d, axis=-1)
    a, b = f[..., :, None], f[..., None, :]
    pair = 2.0 / 3.0 + 2.0 * (np.abs(a + b - 1.0) - 0.5) ** 2 + 2.0 * (np.abs(a - b) - 0.5) ** 2
    m = f.shape[-1]
    off_diagonal = ~np.eye(m, dtype=bool)
    return auto + np.sum(np.where(off_diagonal, pair, 0.0), axis=(-2, -1))


def optimum(m: int) -> float:
    """Minimum asymptotic ISL / n^2 of m rotations: m^2 - m + 1/6."""
    return m * m - m + 1.0 / 6.0


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _fraction_tokens(argv: list[str]) -> list[str]:
    start = argv.index("--fractions") + 1
    end = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    return argv[start:end]


def _close(printed: str, expected: float, rel: float) -> bool:
    return abs(float(printed) - expected) <= rel * max(abs(expected), 1.0)


def check_isl(argv: list[str], stdout: str) -> str | None:
    n = int(_flag(argv, "--n"))
    fractions = [float(t) for t in _fraction_tokens(argv)]
    auto, cross = energies(n, fractions)
    total = auto + cross
    expected = [
        "N,M,total,normalized,auto_part,cross_part",
        ",".join([str(n), str(len(fractions)), fmt(total), fmt(total / n**2),
                  fmt(auto), fmt(cross)]),
    ]
    lines = stdout.splitlines()
    if lines != expected:
        return f"isl output {lines!r} != {expected!r}"
    return None


def check_sweep(argv: list[str], stdout: str) -> str | None:
    fractions = [float(t) for t in _fraction_tokens(argv)]
    primes = primes_between(max(int(_flag(argv, "--n-min")), 3), int(_flag(argv, "--n-max")))
    asym = float(asymptotic_total(fractions))
    lines = stdout.splitlines()
    if lines[:1] != ["N,exact_normalized,asymptotic,relative_error"]:
        return f"sweep header {lines[:1]!r}"
    if len(lines) != len(primes) + 1:
        return f"sweep has {len(lines) - 1} rows, expected {len(primes)}"
    for n, line in zip(primes, lines[1:]):
        cells = line.split(",")
        auto, cross = energies(n, fractions)
        exact = (auto + cross) / n**2
        if len(cells) != 4 or cells[:2] != [str(n), fmt(exact)]:
            return f"sweep row {line!r}: expected N={n} exact={fmt(exact)}"
        if not _close(cells[2], asym, 1e-9):
            return f"sweep row {line!r}: asymptotic != {asym!r}"
        if not _close(cells[3], abs(exact - asym) / asym, 1e-6):
            return f"sweep row {line!r}: relative_error mismatch"
    return None


def check_optimize(argv: list[str], stdout: str) -> str | None:
    m = int(_flag(argv, "--m"))
    tokens = stdout.split()
    if len(tokens) != m + 1:
        return f"optimize printed {tokens!r}, expected {m} fractions and a value"
    fractions = [float(t) for t in tokens[:m]]
    best = optimum(m)
    if tokens[m] != f"{best:.6f}":
        return f"optimize value {tokens[m]} != {best:.6f}"
    if not all(0.0 <= f <= 1.0 for f in fractions):
        return f"optimize fractions {fractions} outside [0, 1]"
    at_printed = float(asymptotic_total(fractions))
    if abs(at_printed - best) > 1e-4:
        return f"asymptotic ISL at printed fractions {at_printed} != {best}"
    return None


def check_surface(argv: list[str], stdout: str) -> str | None:
    r = int(_flag(argv, "--resolution"))
    lines = stdout.splitlines()
    if lines[:1] != ["f1,f2,asym_isl"]:
        return f"surface header {lines[:1]!r}"
    if len(lines) != (r + 1) ** 2 + 1:
        return f"surface has {len(lines) - 1} rows, expected {(r + 1) ** 2}"
    try:
        data = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        return f"surface row does not parse: {exc}"
    if data.shape != ((r + 1) ** 2, 3):
        return f"surface rows have shape {data.shape}"
    grid = np.arange(r + 1) / r
    f1, f2 = np.repeat(grid, r + 1), np.tile(grid, r + 1)
    expected = asymptotic_total(np.stack([f1, f2], axis=1))
    if not (np.allclose(data[:, 0], f1, rtol=0, atol=1e-11)
            and np.allclose(data[:, 1], f2, rtol=0, atol=1e-11)):
        return "surface grid coordinates mismatch"
    worst = float(np.max(np.abs(data[:, 2] - expected) / np.maximum(np.abs(expected), 1.0)))
    if worst > 1e-9:
        return f"surface asym_isl off by {worst:.3e}"
    return None


def validate_err_ratios(stdout: str) -> dict[str, float] | None:
    """max_error / tol per check from validate output; None unless it is
    exactly the eight checks, in order, each `ok`."""
    ratios = {}
    lines = stdout.splitlines()
    if len(lines) != len(VALIDATE_CHECKS):
        return None
    for name, line in zip(VALIDATE_CHECKS, lines):
        fields = line.split()
        if (len(fields) != 4 or fields[:2] != ["ok", name]
                or not fields[2].startswith("max_error=") or not fields[3].startswith("tol=")):
            return None
        max_error = float(fields[2].removeprefix("max_error="))
        tol = float(fields[3].removeprefix("tol="))
        if not max_error <= tol:
            return None
        ratios[name] = max_error / tol
    return ratios


def check_validate(argv: list[str], stdout: str) -> str | None:
    if validate_err_ratios(stdout) is None:
        return f"validate output is not the eight ok lines: {stdout!r}"
    return None


CHECKS = {
    "isl": check_isl,
    "sweep": check_sweep,
    "optimize": check_optimize,
    "surface": check_surface,
    "validate": check_validate,
}


def check(argv: list[str], returncode: int, stdout: str, stderr: str) -> str | None:
    """None if the op succeeded with the right output, else why it failed."""
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-500:]}"
    if "Traceback" in stderr:
        return f"traceback on stderr: {stderr.strip()[-500:]}"
    try:
        return CHECKS[argv[0]](argv, stdout)
    except (ValueError, IndexError, OracleError) as exc:
        return f"output check raised {type(exc).__name__}: {exc}"
