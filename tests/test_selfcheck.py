import numpy as np
import pytest

from islkit import selfcheck
from islkit.asymptotic import re_dilog_on_circle
from islkit.selfcheck import _distinct_draws, dilog_series, random_quads


def _pattern(row):
    # multiplicities of the row's values, largest first
    return tuple(sorted(np.unique(row, return_counts=True)[1], reverse=True))


class TestRandomQuads:
    @pytest.mark.parametrize("n,count", [(5, 500), (7, 23), (101, 500)])
    def test_exact_stratification(self, n, count):
        quads = random_quads(np.random.default_rng(1), n, count)
        per = count // 5
        assert quads.shape == (5 * per, 4)
        assert quads.min() >= 0 and quads.max() < n
        patterns = [_pattern(row) for row in quads]
        for pattern in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            assert patterns.count(pattern) == per, pattern

    def test_all_distinct_rows_hold_four_indices(self):
        quads = random_quads(np.random.default_rng(2), 5, 1000)
        distinct = quads[4::5]  # each draw's rows follow the pattern order
        assert all(len(set(row)) == 4 for row in distinct.tolist())

    def test_same_seed_same_rows(self):
        first = random_quads(np.random.default_rng(3), 31, 500)
        again = random_quads(np.random.default_rng(3), 31, 500)
        other = random_quads(np.random.default_rng(4), 31, 500)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            random_quads(np.random.default_rng(0), 4, 10)


class TestDistinctDraws:
    def test_rows_are_distinct_and_in_range(self):
        draws = _distinct_draws(np.random.default_rng(5), 6, 2000, 4)
        assert draws.min() >= 0 and draws.max() < 6
        assert all(len(set(row)) == 4 for row in draws.tolist())

    def test_uniform_over_ordered_tuples(self):
        # 5 * 4 = 20 ordered pairs, 20 000 draws: each near 1000
        draws = _distinct_draws(np.random.default_rng(6), 5, 20_000, 2)
        counts = np.bincount(draws[:, 0] * 5 + draws[:, 1], minlength=25)
        taken = counts[counts > 0]
        assert len(taken) == 20
        assert np.all(np.abs(taken - 1000) < 150)


class TestDilogSeries:
    # the validate grid: 101 angles strictly inside (-2 pi, 2 pi)
    GRID = np.linspace(-2 * np.pi, 2 * np.pi, 103)[1:-1]

    def test_grid_holds_zero_and_stays_off_one_elsewhere(self):
        assert self.GRID[50] == 0.0
        gap = np.abs(1 - np.exp(1j * np.delete(self.GRID, 50)))
        assert gap.min() > 0.123

    @pytest.mark.parametrize("terms", [2000, 20_000])
    def test_tail_at_zero(self, terms):
        value, bound = dilog_series([0.0], terms)
        assert abs(value[0] - np.pi**2 / 6) <= bound[0]
        # the Euler-Maclaurin tail, not the bare head, closes the gap
        assert abs(value[0] - np.pi**2 / 6) < 1e-11
        assert bound[0] < 1e-11

    @pytest.mark.parametrize("terms", [2000, 20_000])
    def test_tail_next_to_full_turns(self, terms):
        thetas = self.GRID[[0, 1, -2, -1]]
        value, bound = dilog_series(thetas, terms)
        err = np.abs(value - re_dilog_on_circle(thetas))
        assert np.all(err <= bound)
        assert np.all(bound <= 4.0 / ((terms + 1) ** 3 * 0.123**2) + terms * 2.3e-16 * 1.7)

    def test_whole_grid_within_default_tolerance(self):
        result = selfcheck.check_dilog_series(None)
        assert result.passed
        assert result.tolerance == 1e-10
        assert result.max_error < 1e-10

    def test_blocks_cover_every_angle(self):
        # unsorted angles, and a term count whose last block is padded
        thetas = np.random.default_rng(7).uniform(0.5, 5.5, 37)
        value, bound = dilog_series(thetas, 50_000)
        assert np.all(np.abs(value - re_dilog_on_circle(thetas)) <= bound)


class TestRunValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_workload_depth_passes_at_unchanged_tolerances(self, seed):
        # the depth validate runs at in the benchmark: --max-n 199
        results = selfcheck.run_validation(199, seed)
        assert [r.name for r in results] == [
            "spectral-vs-direct", "kernel-twin", "gauss-sum-closed-form",
            "gauss-sum-magnitude", "periodic-bound", "dilog-series",
            "lagrange-interpolation", "pattern-decomposition"]
        assert all(r.passed for r in results), results
        assert tuple(r.tolerance for r in results) == (
            1e-9, 1e-8, 1e-9, 1e-6, 3.0, 1e-10, 1e-8, 1e-6)
