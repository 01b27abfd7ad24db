import numpy as np
import pytest

from islkit import selfcheck, spectral
from islkit.asymptotic import re_dilog_on_circle
from islkit.correlation import periodic_autocorrelation
from islkit.selfcheck import _distinct_draws, _Draws, dilog_series, random_quads
from islkit.sequences import legendre_sequence, primes_in_range, rotate_left


def _pattern(row):
    # multiplicities of the row's values, largest first
    return tuple(sorted(np.unique(row, return_counts=True)[1], reverse=True))


class TestRandomQuads:
    # the draws validate makes; the subclass below runs every test on the
    # numpy Generator, which the functions also accept
    rng = staticmethod(_Draws)

    @pytest.mark.parametrize("n,count", [(5, 500), (7, 23), (101, 500)])
    def test_exact_stratification(self, n, count):
        quads = random_quads(self.rng(1), n, count)
        per = count // 5
        assert quads.shape == (5 * per, 4)
        assert quads.min() >= 0 and quads.max() < n
        patterns = [_pattern(row) for row in quads]
        for pattern in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            assert patterns.count(pattern) == per, pattern

    def test_all_distinct_rows_hold_four_indices(self):
        quads = random_quads(self.rng(2), 5, 1000)
        distinct = quads[4::5]  # each draw's rows follow the pattern order
        assert all(len(set(row)) == 4 for row in distinct.tolist())

    def test_same_seed_same_rows(self):
        first = random_quads(self.rng(3), 31, 500)
        again = random_quads(self.rng(3), 31, 500)
        other = random_quads(self.rng(4), 31, 500)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            random_quads(self.rng(0), 4, 10)


class TestRandomQuadsFromNumpy(TestRandomQuads):
    rng = staticmethod(np.random.default_rng)


class TestDistinctDraws:
    rng = staticmethod(_Draws)

    def test_rows_are_distinct_and_in_range(self):
        draws = _distinct_draws(self.rng(5), 6, 2000, 4)
        assert draws.min() >= 0 and draws.max() < 6
        assert all(len(set(row)) == 4 for row in draws.tolist())

    def test_uniform_over_ordered_tuples(self):
        # 5 * 4 = 20 ordered pairs, 20 000 draws: each near 1000
        draws = _distinct_draws(self.rng(6), 5, 20_000, 2)
        counts = np.bincount(draws[:, 0] * 5 + draws[:, 1], minlength=25)
        taken = counts[counts > 0]
        assert len(taken) == 20
        assert np.all(np.abs(taken - 1000) < 150)


class TestDistinctDrawsFromNumpy(TestDistinctDraws):
    rng = staticmethod(np.random.default_rng)


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_uniform_and_integers_stay_in_range(self, seed):
        draws = _Draws(seed)
        u = draws.uniform(-1, 1, 100_000)
        assert u.min() >= -1 and u.max() < 1 and abs(u.mean()) < 0.01
        for high in (1, 2, 7, 10**6, 2**53 - 1):
            k = draws.integers(0, high, (50, 200))
            assert k.shape == (50, 200) and k.dtype == np.int64
            assert k.min() >= 0 and k.max() < high
        assert set(draws.integers(3, 10, 2000).tolist()) == set(range(3, 10))

    @pytest.mark.parametrize("high", [1, 3, 7, 10**6 + 3, 2**52 + 1, 2**53 - 1])
    def test_largest_uniform_stays_below_high(self, high, monkeypatch):
        # u = 1 - 2^-53, the largest grid value: u * high rounds below high
        draws = _Draws(0)
        monkeypatch.setattr(draws, "_uniforms", lambda size: np.full(size, 1 - 2.0**-53))
        assert draws.integers(0, high, 3).tolist() == [high - 1] * 3
        assert draws.uniform(-1, 1, 1)[0] < 1

    def test_permuted_shuffles_each_row(self):
        rows = np.tile(np.arange(4), (3000, 1))
        shuffled = _Draws(1).permuted(rows, axis=1)
        assert np.array_equal(np.sort(shuffled, axis=1), rows)
        # all 24 orders, each near 125 times
        codes = shuffled @ 4 ** np.arange(4)
        counts = np.unique(codes, return_counts=True)[1]
        assert len(counts) == 24 and np.all(np.abs(counts - 125) < 50)


class TestPeriodicFold:
    def test_equals_its_correlate_twin(self):
        # every prime <= 1000, and random +-1 rows of every length up to 40
        rng = np.random.default_rng(9)
        rows = [legendre_sequence(n) for n in primes_in_range(3, 1000)]
        rows += [2 * rng.integers(0, 2, n) - 1 for n in range(1, 41)]
        for row in rows:
            got = selfcheck.periodic_autocorrelation_exact(row)
            assert got.dtype == np.int64
            assert np.array_equal(got, periodic_autocorrelation(row)), len(row)


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
            1e-9, 1e-8, 1e-9, 1e-11, 3.0, 1e-10, 1e-8, 1e-8)

    @pytest.mark.parametrize("max_n,tolerance", [(7, 1e-12), (199, 1e-11), (10_000, 1e-10)])
    def test_magnitude_tolerance_follows_its_model(self, max_n, tolerance, monkeypatch):
        # the Legendre checks themselves are skipped: only the bound is read
        monkeypatch.setattr(selfcheck, "primes_in_range", lambda lo, hi: [])
        assert selfcheck.prime_checks(max_n)[1].tolerance == tolerance

    def test_pattern_decomposition_model_premises(self):
        # S_minus >= n^3 / 4 for every rotation pair at every prime <= 61,
        # and the model's bound at n = 61 stays under the tolerance 1e-8
        for n in primes_in_range(3, 61):
            base = legendre_sequence(n)
            rows = np.array([rotate_left(base, t) for t in range(n)])
            power = np.abs(spectral.gf_at_roots(rows * (-1) ** np.arange(n))) ** 2
            assert (power @ power.T).min() >= n**3 / 4, n
        n, q, d = 61, 1 + np.sqrt(61), selfcheck._fft_value_error(61)
        lam = 2 / n * np.sum(1 / np.abs(1 + spectral.roots_of_unity(n)))
        assert round(lam, 2) == 3.58
        # rounding in the circulants along the difference column c
        c = spectral._inverse_differences(spectral.roots_of_unity(n))
        assert np.linalg.norm(c) ** 2 == pytest.approx((n**2 - 1) / 12)
        assert np.linalg.norm(c**2) ** 2 == pytest.approx((n**2 - 1) * (n**2 + 11) / 720)
        assert round(np.abs(c).sum(), 1) == 82.3

        def spread(k):
            return d / n * (3 * np.abs(k).sum() + np.sqrt(n) * np.linalg.norm(k))
        rounding = 64 * q**4 * (4 * spread(c**2) + 3 * np.abs(c).sum() * spread(c)) / n**4
        assert rounding < 5.1e-10
        assert 16 * (lam**4 + lam**3) * q**3 * d / n**2 + rounding + 2e-11 < 7.2e-9


class TestWorstError:
    @pytest.mark.parametrize("batches,worst,where", [
        # ties keep the first strict maximum, within and across batches
        ([[0.1, 0.3, 0.3], [0.3, 0.2]], 0.3, "0:1"),
        # the first NaN is the worst, even after a larger finite error
        ([[0.1, 5.0], [0.2, np.nan, np.nan], [np.nan]], np.nan, "1:1"),
        # a scalar batch is entry 0
        ([0.0, 0.2, np.float64(0.2)], 0.2, "1:0"),
        # an all-zero check still names its first input
        ([[0.0, 0.0], 0.0], 0.0, "0:0"),
    ])
    def test_ties_and_nan(self, batches, worst, where):
        result = selfcheck._worst_error("t", 0.25, [
            (errors, lambda i, b=b: f"{b}:{i}") for b, errors in enumerate(batches)])
        assert result.worst_input == where
        np.testing.assert_equal(result.max_error, worst)  # NaN equals NaN here
        assert result.passed == (worst <= 0.25)
