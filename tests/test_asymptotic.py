import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit.asymptotic import isl_limit, re_dilog_on_circle

fractions = st.floats(0.0, 1.0)


def auto_limit(f):
    """One rotation's auto limit: the auto part of the set {f}."""
    return isl_limit([f]).auto_part


def pair_limit(fa, fb):
    """One pair's cross limit: half the cross part of {fa, fb}, whose two
    ordered terms are equal bit for bit."""
    return isl_limit([fa, fb]).cross_part / 2


class TestReDilog:
    def test_anchors(self):
        assert re_dilog_on_circle(0.0) == pytest.approx(np.pi**2 / 6)
        assert re_dilog_on_circle(np.pi) == pytest.approx(-(np.pi**2) / 12)

    def test_even_and_periodic(self):
        for theta in (0.3, 1.1, 2.9):
            assert re_dilog_on_circle(-theta) == pytest.approx(re_dilog_on_circle(theta))
            assert re_dilog_on_circle(theta + 2 * np.pi) == pytest.approx(
                re_dilog_on_circle(theta)
            )

    def test_series_oracle(self):
        # truncated cosine series; the full-length run lives in the
        # acceptance suite
        k = np.arange(1, 100_001)
        inv_k2 = 1.0 / (k * k)
        for theta in np.linspace(-2 * np.pi, 2 * np.pi, 37 + 2)[1:-1]:
            series = float(np.cos(k * theta) @ inv_k2)
            assert re_dilog_on_circle(theta) == pytest.approx(series, abs=2e-4)

    def test_fraction_parameterization(self):
        # at theta = 2*pi*f the closed form collapses to
        # pi^2 (1/6 - {f}(1 - {f})), the shape the limit formulas rest on
        for f in (-0.7, 0.0, 0.2, 0.5, 1.0, 1.25, 3.8):
            g = f - np.floor(f)
            want = np.pi**2 * (1 / 6 - g * (1 - g))
            assert re_dilog_on_circle(2 * np.pi * f) == pytest.approx(want, abs=1e-12)


class TestAutoEnergyLimit:
    def test_examples(self):
        assert auto_limit(0.5) == pytest.approx(2 / 3)
        assert auto_limit(0.25) == pytest.approx(1 / 6)
        assert auto_limit(0.0) == pytest.approx(2 / 3)

    def test_minimum_at_quarter_rotations(self):
        grid = np.linspace(0, 1, 4001)
        vals = isl_limit(grid[:, None]).auto_part  # 4001 one-rotation sets
        assert vals.min() == pytest.approx(1 / 6)
        mins = grid[vals <= vals.min() + 1e-12]
        assert set(np.round(mins, 6)) == {0.25, 0.75}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            auto_limit(1.5)
        with pytest.raises(ValueError):
            auto_limit(-0.01)
        with pytest.raises(ValueError):
            auto_limit(float("nan"))


class TestCrossEnergyLimit:
    def test_examples(self):
        assert pair_limit(0.0, 0.5) == pytest.approx(2 / 3)
        assert pair_limit(0.0, 0.0) == pytest.approx(5 / 3)
        assert pair_limit(0.5, 0.5) == pytest.approx(5 / 3)

    @given(fractions, fractions)
    def test_symmetric(self, fa, fb):
        assert pair_limit(fa, fb) == pair_limit(fb, fa)

    @given(fractions, fractions)
    def test_lower_bound(self, fa, fb):
        assert pair_limit(fa, fb) >= 2 / 3 - 1e-12

    def test_minimum_value(self):
        grid = np.linspace(0, 1, 201)
        pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)  # (201, 201, 2)
        best = (isl_limit(pairs).cross_part / 2).min()
        assert best == pytest.approx(2 / 3)


class TestIslLimit:
    def test_single(self):
        lim = isl_limit([0.25])
        assert lim.total == pytest.approx(1 / 6)
        assert lim.cross_part == 0.0

    def test_pair_example(self):
        lim = isl_limit([0.0, 0.5])
        assert lim.auto_part == pytest.approx(4 / 3)
        assert lim.cross_part == pytest.approx(4 / 3)
        assert lim.total == pytest.approx(8 / 3)

    @given(st.lists(fractions, min_size=2, max_size=5))
    @settings(max_examples=100)
    def test_permutation_invariance(self, fr):
        rng = np.random.default_rng(len(fr))
        shuffled = list(fr)
        rng.shuffle(shuffled)
        assert isl_limit(shuffled).total == pytest.approx(isl_limit(fr).total)

    @given(st.lists(fractions, min_size=1, max_size=4), st.integers(0, 3))
    @settings(max_examples=100)
    def test_reflection_invariance(self, fr, which):
        i = which % len(fr)
        reflected = [1.0 - f if j == i else f for j, f in enumerate(fr)]
        assert isl_limit(reflected).total == pytest.approx(isl_limit(fr).total)

    @given(st.lists(fractions, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_part_lower_bounds(self, fr):
        m = len(fr)
        lim = isl_limit(fr)
        assert lim.auto_part >= m / 6 - 1e-9
        assert lim.cross_part >= m * (m - 1) * 2 / 3 - 1e-9
        assert lim.total == pytest.approx(lim.auto_part + lim.cross_part)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(14)
        block = rng.uniform(0, 1, size=(4, 10, 3))
        batch = isl_limit(block)
        assert batch.total.shape == (4, 10)
        for i, j in np.ndindex(4, 10):
            single = isl_limit(block[i, j])
            assert (batch.auto_part[i, j], batch.cross_part[i, j]) == (
                single.auto_part, single.cross_part)

    @given(st.lists(fractions, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_matches_term_loop(self, fr):
        # the term-by-term sum, in the order of the exact report
        auto = sum(auto_limit(f) for f in fr)
        cross = 0.0
        for p, fp in enumerate(fr):
            for q, fq in enumerate(fr):
                if p != q:
                    cross += pair_limit(fp, fq)
        lim = isl_limit(fr)
        assert (lim.auto_part, lim.cross_part) == (auto, cross)

    def test_fourier_twin(self):
        # isl_limit = M^2 - M + (4/pi^2) sum_k (sum_p cos 2 pi k (f_p - 1/2))^2 / k^2.
        # Each term lies in [0, 4 M^2 / (pi^2 k^2)], so cutting the series at
        # K leaves a tail in [0, 4 M^2 / (pi^2 K)].
        big_k = 100_000
        k = np.arange(1, big_k + 1)
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            f = rng.uniform(0, 1, m)
            c = np.cos(2 * np.pi * np.outer(k, f - 0.5)).sum(axis=1)
            head = m * m - m + 4 / np.pi**2 * np.sum(c * c / (k * k))
            tail = 4 * m * m / (np.pi**2 * big_k)
            assert head - 1e-9 <= isl_limit(f).total <= head + tail + 1e-9, f

    def test_scalar_is_not_a_set(self):
        for f in (0.25, np.float64(0.5), np.array(0.75)):
            with pytest.raises(ValueError, match="got a scalar"):
                isl_limit(f)

    def test_empty_set(self):
        for shape in ((0,), (3, 0), (2, 4, 0)):
            with pytest.raises(ValueError, match="rotation set is empty"):
                isl_limit(np.zeros(shape))

    def test_empty_batch(self):
        # zero sets of M rotations are no empty set: empty parts of the batch shape
        for shape, batch in (((0, 2), (0,)), ((2, 0, 3), (2, 0))):
            lim = isl_limit(np.zeros(shape))
            assert lim.auto_part.shape == lim.cross_part.shape == batch
            assert lim.total.shape == batch

    def test_errors(self):
        with pytest.raises(ValueError):
            isl_limit([])
        with pytest.raises(ValueError):
            isl_limit([0.2, 1.3])
        with pytest.raises(ValueError):
            isl_limit([0.2, float("nan")])
        with pytest.raises(ValueError):
            isl_limit([[0.2, 0.3], [0.4, -0.1]])
