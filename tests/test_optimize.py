import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit.asymptotic import isl_limit
from islkit.cli import M_CAP
from islkit.correlation import isl_report
from islkit.optimize import optimize_rotations
from islkit.sequences import bind_rotations


def optimum(m):
    return m * m - m + 1 / 6


def lattice_min(m, r):
    """Brute-force minimum of the asymptotic ISL over {0, 1/r, ..., 1}^m."""
    grid = np.array(list(itertools.product(range(r + 1), repeat=m))) / r
    return float(isl_limit(grid).total.min())


class TestGridSearch:
    """The brute-force lattice scan is the twin of the closed form."""

    def test_single_rotation(self):
        assert lattice_min(1, 256) == pytest.approx(1 / 6, abs=1e-12)
        assert optimize_rotations(1).asym_value == pytest.approx(1 / 6, abs=1e-12)

    def test_beats_every_lattice_point_independent_rescan(self):
        for m, r in itertools.product((1, 2, 3), (12, 64)):
            closed = optimize_rotations(m).asym_value
            scanned = lattice_min(m, r)
            if r % (4 * m) == 0:
                # the lattice holds (2p - 1)/(4m)
                assert scanned == pytest.approx(closed, abs=1e-12), (m, r)
            else:
                assert scanned >= closed - 1e-12, (m, r)

    def test_resolution_monotonicity(self):
        values = [lattice_min(2, r) for r in (64, 128, 256)]
        assert values[1] <= values[0] + 1e-15
        assert values[2] <= values[1] + 1e-15
        assert optimize_rotations(2).asym_value <= values[2] + 1e-12


class TestOptimizeRotations:
    def test_single_rotation(self):
        res = optimize_rotations(1)
        assert res.fractions == (0.25,)
        assert res.asym_value == pytest.approx(1 / 6, abs=1e-12)
        assert res.refinement_steps == 0

    def test_closed_form(self):
        for m in range(1, 13):
            res = optimize_rotations(m)
            assert res.fractions == tuple((2 * p - 1) / (4 * m) for p in range(1, m + 1))
            assert res.asym_value == pytest.approx(optimum(m), rel=1e-13)

    def test_value_is_the_closed_form_for_every_m(self):
        # the printed value rounds the proven optimum, not a float sum of
        # m^2 pair terms (which printed 261632.166666 at m = 512)
        for m in range(1, M_CAP + 1):
            res = optimize_rotations(m)
            assert res.asym_value == m * m - m + 1 / 6, m
            assert f"{res.asym_value:.6f}" == f"{m * m - m}.166667", m

    def test_limit_at_the_fractions_meets_the_closed_form(self):
        # the summed limit agrees to 1e-10 M^2 (worst seen 3.9e-12 M^2, m = 512)
        for m in sorted({*range(1, M_CAP + 1, 37), 511, 512, 513, M_CAP}):
            res = optimize_rotations(m)
            assert abs(isl_limit(res.fractions).total - res.asym_value) <= 1e-10 * m * m, m

    def test_rejects_m_below_one(self):
        for m in (0, -3):
            with pytest.raises(ValueError):
                optimize_rotations(m)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_lower_bound(self, fr):
        assert isl_limit(fr).total >= optimum(len(fr)) - 1e-12

    def test_reflection_ties_pick_the_smallest(self):
        # f_p -> 1 - f_p leaves the value unchanged, so all 2^M reflections
        # of the optimum tie; the returned sorted tuple is the least of them
        for m in range(1, 9):
            res = optimize_rotations(m)
            f = np.array(res.fractions)
            flips = np.array(list(itertools.product([False, True], repeat=m)))
            tied = np.sort(np.where(flips, 1.0 - f, f), axis=1)
            assert np.allclose(isl_limit(tied).total, res.asym_value, rtol=0, atol=1e-12)
            assert min(map(tuple, tied.tolist())) == res.fractions

    def test_stored_value_reproducible(self):
        res = optimize_rotations(2)
        assert isl_limit(res.fractions).total == pytest.approx(res.asym_value, abs=1e-12)

    def test_canonical_sorted(self):
        res = optimize_rotations(3)
        assert list(res.fractions) == sorted(res.fractions)

    def test_pair_beats_coincident_rotations(self):
        res = optimize_rotations(2)
        assert res.asym_value < isl_limit([0.25, 0.25]).total

    def test_fixed_point_of_refinement(self):
        # no single-coordinate move of a coordinate-descent probe improves it
        for m in range(1, 9):
            res = optimize_rotations(m)
            for i in range(m):
                for step in (1 / 128, -1 / 128, 1e-6, -1e-6):
                    f = list(res.fractions)
                    f[i] += step
                    assert isl_limit(f).total >= res.asym_value - 1e-12

    def test_deterministic(self):
        assert optimize_rotations(5) == optimize_rotations(5)

    def test_objective_invariances_at_optimum(self):
        res = optimize_rotations(2)
        f = list(res.fractions)
        assert isl_limit(f[::-1]).total == pytest.approx(res.asym_value, abs=1e-10)
        assert isl_limit([1 - x for x in f]).total == pytest.approx(
            res.asym_value, abs=1e-10
        )


class TestExactValidate:
    # the optimum realized at a prime length, as optimize --exact-check does
    def test_single_rotation_near_limit(self):
        res = optimize_rotations(1)
        rset = bind_rotations(res.fractions, 101)
        report = isl_report(rset.sequences())
        assert rset.n == 101
        assert rset.offsets == (25,)
        assert tuple(t / rset.n for t in rset.offsets) == (25 / 101,)
        # moderate n: within 15% of the asymptotic value
        assert abs(report.normalized - res.asym_value) <= 0.15 * res.asym_value

    def test_error_shrinks_with_n(self):
        res = optimize_rotations(2)
        small = isl_report(bind_rotations(res.fractions, 101).sequences())
        large = isl_report(bind_rotations(res.fractions, 997).sequences())
        err_small = abs(small.normalized - res.asym_value)
        err_large = abs(large.normalized - res.asym_value)
        assert err_large < err_small

    def test_rejects_nonprime(self):
        res = optimize_rotations(1)
        with pytest.raises(ValueError):
            bind_rotations(res.fractions, 100)
