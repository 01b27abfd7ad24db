"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import islkit as ik

SEED = 20240901


def criterion(number, budget_s, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed <= budget_s, (
                    f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"
                )
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description} [{elapsed:.1f}s]")
        return wrapper
    return decorate


@criterion(1, 60, "spectral cross-energy identity vs direct oracle, odd n in 3..199")
def test_criterion_01_spectral_identity():
    rng = np.random.default_rng(SEED)
    for n in range(3, 200, 2):
        for _ in range(50):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            direct = ik.cross_energy(a, b)
            spectral = ik.energy_matrix_spectral([a, b])[0, 1]
            assert abs(spectral - direct) <= 1e-9 * direct, (n, direct, spectral)


@criterion(2, 60, "kernel-sum closed forms vs direct sums, all five patterns")
def test_criterion_02_kernel_twin():
    from islkit.selfcheck import random_quads
    from islkit.spectral import kernel_sums_closed_form, kernel_sums_direct

    rng = np.random.default_rng(SEED + 1)
    for n in range(5, 102, 2):
        quads = random_quads(rng, n, 10_000)
        direct = kernel_sums_direct(quads, n)
        closed = kernel_sums_closed_form(quads, n)
        err = np.abs(closed - direct) - 1e-8 * (1.0 + np.abs(direct))
        worst = int(np.argmax(err))
        assert err[worst] <= 0, (n, tuple(quads[worst]), closed[worst], direct[worst])


@criterion(3, 120, "pattern-sum reconstruction of the negated-roots power sum")
def test_criterion_03_pattern_reconstruction():
    rng = np.random.default_rng(SEED + 2)
    for n in ik.primes_in_range(3, 61):
        base = ik.legendre_sequence(n)
        for _ in range(3):
            a = ik.rotate_left(base, int(rng.integers(0, n)))
            b = ik.rotate_left(base, int(rng.integers(0, n)))
            direct = ik.power_sum_at_negated_roots(a, b)
            recon = ik.pattern_decomposition(a, b).negated_power_sum
            assert abs(recon.real - direct) <= 1e-6 * direct, n
            assert abs(recon.imag) <= 1e-6 * direct, n


@criterion(4, 30, "Legendre generating-function closed form at every root, primes <= 499")
def test_criterion_04_gauss_sum():
    for n in ik.primes_in_range(3, 499):
        ell = ik.legendre_sequence(n)
        vals = ik.gf_at_roots(ell)
        closed = np.array(
            [ik.legendre_gf_closed_form(n, j, int(ell[j])) for j in range(n)]
        )
        # equation-level equivalence of the closed form
        assert np.all(np.abs(closed - vals) <= 1e-9 * (1 + np.abs(vals))), n
        offsets = vals[1:] - 1.0
        # Gauss-sum magnitude: |Q - 1|^2 = n exactly, every j != 0
        assert np.all(np.abs(np.abs(offsets) ** 2 - n) <= 1e-6 * n), n
        # branch: offset real for n = 1 (mod 4), imaginary for n = 3 (mod 4)
        if n % 4 == 1:
            assert np.max(np.abs(offsets.imag)) <= 1e-9 * np.sqrt(n), n
        else:
            assert np.max(np.abs(offsets.real)) <= 1e-9 * np.sqrt(n), n
            # |Q|^2 = n + 1 is exact only where the offset is orthogonal
            # to the constant term (the imaginary-offset branch)
            assert np.all(
                np.abs(np.abs(vals[1:]) ** 2 - (n + 1)) <= 1e-6 * (n + 1)
            ), n


@criterion(5, 60, "periodic Legendre correlation bounded by 3, primes <= 2003")
def test_criterion_05_periodic_bound():
    for n in ik.primes_in_range(3, 2003):
        c = ik.periodic_autocorrelation(ik.legendre_sequence(n))
        assert np.array_equal(c, np.round(c)), n
        assert int(np.max(np.abs(c))) <= 3, n


@criterion(6, 120, "quarter-rotation sidelobe energy approaches n^2/6")
def test_criterion_06_quarter_rotation_anchor():
    errors = []
    for n in (101, 1009, 10007):
        seq = ik.bind_rotations([0.25], n).sequences()[0]
        value = (ik.cross_energy(seq, seq) - n**2) / n**2
        errors.append(abs(value - 1 / 6))
    assert errors[-1] <= 0.03 * (1 / 6), errors
    assert errors[0] > errors[1] > errors[2], errors


@criterion(7, 120, "cross-energy convergence to its limit over random rotation pairs")
def test_criterion_07_cross_convergence():
    rng = np.random.default_rng(SEED + 3)
    pairs = rng.uniform(0, 1, size=(10, 2))
    improved = 0
    for fa, fb in pairs:
        limit = ik.isl_limit([fa, fb]).cross_part / 2
        errs = {}
        for n in (101, 2003):
            sa, sb = ik.bind_rotations([fa, fb], n).sequences()
            errs[n] = abs(ik.cross_energy(sa, sb) / n**2 - limit)
        assert errs[2003] <= 0.10 * limit, (fa, fb, errs)
        improved += errs[2003] < errs[101]
    assert improved >= 9, improved


@criterion(8, 120, "optimized 4-set beats arbitrary rotations at every prime 23..499")
def test_criterion_08_optimal_crossover():
    optimal = list(ik.optimize_rotations(4).fractions)
    arbitrary = [0.1, 0.2, 0.3, 0.4]
    for n in ik.primes_in_range(23, 499):
        opt_total = ik.isl_report(ik.bind_rotations(optimal, n).sequences()).total
        arb_total = ik.isl_report(ik.bind_rotations(arbitrary, n).sequences()).total
        assert opt_total < arb_total, (n, opt_total, arb_total)


@criterion(9, 30, "dilogarithm closed form vs million-term series on a 1000-point grid")
def test_criterion_09_dilog_identity():
    terms, block = 1_000_000, 1000
    k = np.arange(1, terms + 1, dtype=np.float64)
    weights = (1.0 / (k * k)).reshape(terms // block, block)
    offs = np.arange(1, block + 1, dtype=np.float64)
    bases = np.arange(terms // block, dtype=np.float64) * block

    def series(theta):
        # truncated sum of cos(k theta)/k^2, regrouped blockwise through
        # the cosine addition identity so it stays O(terms) flops
        cr, sr = np.cos(offs * theta), np.sin(offs * theta)
        cb, sb = np.cos(bases * theta), np.sin(bases * theta)
        return float(cb @ (weights @ cr) - sb @ (weights @ sr))

    thetas = np.linspace(-2 * np.pi, 2 * np.pi, 1002)[1:-1]
    for theta in thetas:
        assert abs(ik.re_dilog_on_circle(theta) - series(theta)) <= 1e-6, theta


@criterion(10, 60, "optimizer sanity: analytic single-rotation minimum and invariances")
def test_criterion_10_optimizer_sanity():
    single = ik.optimize_rotations(1)
    assert abs(single.fractions[0] - 0.25) <= 1e-6
    assert abs(single.asym_value - 1 / 6) <= 1e-6

    pair = ik.optimize_rotations(2)
    reversed_total = ik.isl_limit(list(pair.fractions)[::-1]).total
    reflected_total = ik.isl_limit([1 - f for f in pair.fractions]).total
    assert abs(reversed_total - pair.asym_value) <= 1e-10
    assert abs(reflected_total - pair.asym_value) <= 1e-10

    for r in (64, 128, 256):
        lattice = np.array(list(itertools.product(range(r + 1), repeat=2))) / r
        assert pair.asym_value <= ik.isl_limit(lattice).total.min() + 1e-12, r
