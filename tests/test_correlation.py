import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit.correlation import (
    MAX_EXACT_N,
    MAX_ROUNDING_RESIDUAL,
    RoundingResidualError,
    _smooth_length,
    _sum_of_squares,
    aperiodic_correlation,
    cross_energy,
    isl_report,
    isl_totals,
    periodic_autocorrelation,
)
from islkit.sequences import legendre_sequence, primes_in_range


def xcorr_loop(a, b):
    """Literal double-loop oracle for the aperiodic correlation."""
    n = len(a)
    out = []
    for k in range(-n + 1, n):
        s = 0.0
        for j in range(max(0, -k), min(n - k, n)):
            s += a[j] * b[j + k]
        out.append(s)
    return np.array(out)


def random_pair(rng, n):
    return rng.choice([-1, 1], n), rng.choice([-1, 1], n)


def correlate_energy(a, b):
    """Sum of squared aperiodic correlations from numpy's direct correlate."""
    v = np.correlate(np.asarray(b, dtype=np.int64), np.asarray(a, dtype=np.int64), mode="full")
    return int(v @ v)


class TestAperiodicCorrelation:
    def test_auto_example(self):
        assert aperiodic_correlation([1, 1, -1], [1, 1, -1]).tolist() == [-1, 0, 3, 0, -1]

    def test_cross_example(self):
        assert aperiodic_correlation([1, 1, -1], [1, -1, 1]).tolist() == [-1, 2, -1, 0, 1]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8, 13, 21):
            a, b = random_pair(rng, n)
            assert np.array_equal(aperiodic_correlation(a, b), xcorr_loop(a, b))

    def test_reversal_symmetry(self):
        # X_ab(k) = X_ba(-k)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_pair(rng, 17)
            ab = aperiodic_correlation(a, b)
            ba = aperiodic_correlation(b, a)
            assert np.array_equal(ab, ba[::-1])

    def test_profile_shape_and_lag_access(self):
        rng = np.random.default_rng(3)
        a, _ = random_pair(rng, 9)
        values = aperiodic_correlation(a, a)
        assert values.shape == (2 * 9 - 1,)
        # lag k sits at index k + n - 1
        assert values[8] == 9
        assert values[0] in (-1, 1) and values[16] in (-1, 1)
        assert np.array_equal(values, values[::-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aperiodic_correlation([1, 1], [1, 1, -1])


class TestEnergies:
    # a sequence's auto sidelobe energy is its self cross energy less
    # the n^2 mainlobe
    def test_auto_examples(self):
        assert cross_energy([1, 1, -1], [1, 1, -1]) - 3**2 == 2.0
        assert cross_energy([1], [1]) - 1**2 == 0.0

    def test_auto_legendre7_against_loop(self):
        seq = legendre_sequence(7)
        prof = xcorr_loop(seq, seq)
        expected = float(prof @ prof - 49.0)
        assert cross_energy(seq, seq) - 7**2 == expected

    def test_cross_example(self):
        assert cross_energy([1, 1, -1], [1, -1, 1]) == 7.0

    def test_cross_of_self_includes_mainlobe(self):
        rng = np.random.default_rng(4)
        for n in (3, 7, 12):
            a = rng.choice([-1, 1], n)
            prof = xcorr_loop(a, a)
            assert prof[n - 1] == n
            assert cross_energy(a, a) == float(prof @ prof - prof[n - 1] ** 2) + n**2

    def test_cross_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = random_pair(rng, 15)
            assert cross_energy(a, b) == cross_energy(b, a)


class TestIslReport:
    def test_single_sequence(self):
        rep = isl_report([[1, 1, -1]])
        assert rep.total == 2.0
        assert rep.m == 1 and rep.n == 3
        assert rep.normalized == 2.0 / 9.0

    def test_two_sequence_example_from_oracle(self):
        # brute-force each term: auto [1,1,-1] -> 2, auto [1,-1,1] -> 10,
        # cross -> 7 counted once per ordered pair
        a, b = [1, 1, -1], [1, -1, 1]
        pa = xcorr_loop(np.array(a), np.array(a))
        pb = xcorr_loop(np.array(b), np.array(b))
        pab = xcorr_loop(np.array(a), np.array(b))
        expected = (pa @ pa - 9) + (pb @ pb - 9) + 2 * (pab @ pab)
        assert expected == 26.0
        rep = isl_report([a, b])
        assert rep.total == expected
        assert rep.auto_terms.tolist() == [2.0, 10.0]
        assert rep.cross_terms[0, 1] == rep.cross_terms[1, 0] == 7.0
        assert rep.cross_terms[0, 0] == 0.0

    def test_total_assembles_terms(self):
        rng = np.random.default_rng(6)
        seqs = [rng.choice([-1, 1], 11) for _ in range(3)]
        rep = isl_report(seqs)
        assert rep.total == pytest.approx(rep.auto_terms.sum() + rep.cross_terms.sum())
        assert rep.normalized == pytest.approx(rep.total / 121)
        assert np.all(rep.auto_terms >= 0) and np.all(rep.cross_terms >= 0)

    def test_negation_invariance(self):
        rng = np.random.default_rng(7)
        seqs = [rng.choice([-1, 1], 9) for _ in range(3)]
        base = isl_report(seqs).total
        for i in range(3):
            flipped = [(-s if j == i else s) for j, s in enumerate(seqs)]
            assert isl_report(flipped).total == base

    def test_errors(self):
        with pytest.raises(ValueError):
            isl_report([])
        with pytest.raises(ValueError):
            isl_report([[1, 1], [1, 1, -1]])
        with pytest.raises(ValueError):
            isl_report([[1, 0, -1]])


class TestFftIslReport:
    @given(
        n=st.integers(1, 257),
        all_ones=st.lists(st.booleans(), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_correlate_oracle(self, n, all_ones, seed):
        rng = np.random.default_rng(seed)
        seqs = [np.ones(n, dtype=np.int64) if ones else rng.choice([-1, 1], n)
                for ones in all_ones]
        m = len(seqs)
        rep = isl_report(seqs)
        auto = [correlate_energy(s, s) - n * n for s in seqs]
        cross = [[correlate_energy(seqs[p], seqs[q]) if p != q else 0 for q in range(m)]
                 for p in range(m)]
        assert rep.auto_terms.dtype == np.int64 and rep.cross_terms.dtype == np.int64
        assert rep.auto_terms.tolist() == auto
        assert rep.cross_terms.tolist() == cross
        assert type(rep.total) is int
        assert rep.total == sum(auto) + sum(map(sum, cross))
        assert rep.normalized == rep.total / n**2

    def test_total_exact_beyond_float_precision(self):
        # all-ones pair: every energy is n^2 + (n-1) n (2n-1) / 3, and the
        # total 72004860109600826 is not a float64 value
        n = 300007
        energy = n * n + (n - 1) * n * (2 * n - 1) // 3
        rep = isl_report([np.ones(n, dtype=np.int64)] * 2)
        assert rep.total == 4 * energy - 2 * n * n == 72004860109600826
        assert int(float(rep.total)) != rep.total
        assert rep.auto_terms.tolist() == [energy - n * n] * 2
        assert rep.cross_terms[0, 1] == energy

    def test_int64_edge_at_max_exact_n(self):
        # the largest energy 2 R R^T - n^2 can hold: an all-ones pair at
        # MAX_EXACT_N, where 2 R R^T itself sits within 0.1% of 2^63
        n = MAX_EXACT_N
        rep = isl_report(np.ones((2, n), dtype=np.int64))
        energy = n * (2 * n * n + 1) // 3
        assert rep.cross_terms[0, 1] == rep.cross_terms[1, 0] == energy
        assert rep.auto_terms.tolist() == [energy - n * n] * 2
        assert rep.total == 4 * energy - 2 * n * n

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_one_fft_round_trip_per_row(self, monkeypatch, m):
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kw):
            calls.append(1)
            return rfft(*args, **kw)

        monkeypatch.setattr(np.fft, "rfft", counted)
        rng = np.random.default_rng(m)
        # one round trip per block of rows: at n = 31 (L = 64) a block
        # holds all m rows, at n = 32771 (L = 65610 > 2^16) one row
        isl_report(rng.choice([-1, 1], (m, 31)))
        assert len(calls) == 1
        isl_report(rng.choice([-1, 1], (m, 32771)))
        assert len(calls) == 1 + m

    @pytest.mark.parametrize("offset", [0.3, -0.3])
    def test_rounding_residual_guard_raises(self, monkeypatch, offset):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + offset)
        with pytest.raises(RoundingResidualError, match="from an integer"):
            isl_report([legendre_sequence(31)] * 2)

    def test_residual_below_limit_still_rounds(self, monkeypatch):
        seqs = [legendre_sequence(31), np.ones(31, dtype=np.int64)]
        expected = isl_report(seqs)
        irfft = np.fft.irfft
        offset = MAX_ROUNDING_RESIDUAL - 0.05
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + offset)
        rep = isl_report(seqs)
        assert rep.total == expected.total
        assert np.array_equal(rep.cross_terms, expected.cross_terms)

    def test_smooth_length(self):
        def smooth(k):
            for f in (2, 3, 5):
                while k % f == 0:
                    k //= f
            return k == 1

        for k in range(1, 3000):
            length = _smooth_length(k)
            assert length >= k and smooth(length)
            assert not any(smooth(j) for j in range(k, length))

    def test_int64_bound(self):
        # 2 R R^T, at most n (n + 1) (2n + 1) / 3 and the largest value
        # isl_report forms, must fit int64; so must a pair's energy
        n = MAX_EXACT_N
        assert n * (n + 1) * (2 * n + 1) // 3 < 2**63
        assert n * (2 * n * n + 1) // 3 < 2**63
        with pytest.raises(ValueError, match="overflow int64"):
            isl_report([np.ones(MAX_EXACT_N + 1, dtype=np.int64)])


class TestIslTotals:
    """The streamed totals against isl_report and the correlate oracle."""

    @given(
        base=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=257),
        offsets=st.lists(st.integers(-600, 600), min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_report_and_correlate_oracle(self, base, offsets):
        n = len(base)
        rows = [np.roll(base, -t) for t in offsets]
        got = isl_totals(base, offsets)
        rep = isl_report(rows)
        auto = [correlate_energy(r, r) - n * n for r in rows]
        cross = sum(correlate_energy(a, b) for i, a in enumerate(rows)
                    for j, b in enumerate(rows) if i != j)
        assert got.auto_terms.dtype == np.int64
        assert got.auto_terms.tolist() == rep.auto_terms.tolist() == auto
        assert type(got.total) is int
        assert got.total == rep.total == sum(auto) + cross
        assert got.normalized == rep.normalized == got.total / n**2
        assert (got.n, got.m) == (n, len(offsets))

    def test_block_sums_exact_where_one_dot_wraps(self):
        # all-ones rows at M = 1000 and n = MAX_EXACT_N: every column sum
        # is M (n - k), and sum_k M^2 (n - k)^2 = M^2 n (n + 1) (2n + 1) / 6
        # is ~4.6e24, far past 2^63
        m, n = 1000, MAX_EXACT_N
        colsum = m * np.arange(n, 0, -1, dtype=np.int64)
        exact = sum(v * v for v in colsum.tolist())
        assert exact == m * m * n * (n + 1) * (2 * n + 1) // 6 > 2**81
        assert _sum_of_squares(colsum, m * n) == exact
        assert int(colsum @ colsum) != exact  # a single int64 dot wraps
        assert _sum_of_squares(-colsum[::-1], m * n) == exact

    def test_all_ones_pair_at_max_exact_n(self):
        # the values isl_report's own edge test pins at the same bound
        n = MAX_EXACT_N
        energy = n * (2 * n * n + 1) // 3
        got = isl_totals(np.ones(n, dtype=np.int64), [0, 5])
        assert got.auto_terms.tolist() == [energy - n * n] * 2
        assert got.total == 4 * energy - 2 * n * n

    def test_memory_does_not_grow_with_m(self):
        # O(n): at a fixed n, 64 rows peak within 1.5x of 4 rows; the
        # (M, n) int64 matrix of isl_report alone would be 10 MB at M = 64
        n = 20011
        base = legendre_sequence(n)

        def peak(m):
            offsets = [p * n // m for p in range(m)]
            tracemalloc.start()
            try:
                isl_totals(base, offsets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4), peak(64)
        assert large <= 1.5 * small, (small, large)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_one_fft_round_trip_per_row(self, monkeypatch, m):
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kw):
            calls.append(1)
            return rfft(*args, **kw)

        monkeypatch.setattr(np.fft, "rfft", counted)
        # one round trip per block of rows, as in isl_report's pin
        isl_totals(legendre_sequence(31), range(m))
        assert len(calls) == 1
        isl_totals(np.random.default_rng(m).choice([-1, 1], 32771), range(m))
        assert len(calls) == 1 + m

    @pytest.mark.parametrize("offset", [0.3, -0.3, np.nan])
    def test_rounding_residual_guard_raises(self, monkeypatch, offset):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + offset)
        with pytest.raises(RoundingResidualError, match="sequence 0 .* from an integer"):
            isl_totals(legendre_sequence(31), [0, 3])

    @pytest.mark.parametrize("n, shapes", [(31, [(2, 31)]),  # one gathered block
                                           (5003, [(1, 5003)] * 2)])  # one-row views
    def test_offsets_any_integers_taken_mod_n(self, monkeypatch, n, shapes):
        base = legendre_sequence(n)
        want = isl_report([np.roll(base, -t) for t in (2**70 % n, 3)])
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kw):
            calls.append(np.shape(args[0]))
            return rfft(*args, **kw)

        monkeypatch.setattr(np.fft, "rfft", counted)
        for offsets in ([2**70, 3], [2**70 % n, 3]):
            calls.clear()
            got = isl_totals(base, offsets)
            assert calls == shapes
            assert got.auto_terms.tolist() == want.auto_terms.tolist()
            assert got.total == want.total
        with pytest.raises(ValueError, match="offsets must be integers"):
            isl_totals(base, [1.5])

    def test_errors(self):
        for base in ([1, 0, -1], [[1, 1], [1, -1]], [], [1.0, np.nan]):
            with pytest.raises(ValueError):
                isl_totals(base, [0])
        with pytest.raises(ValueError, match="need 1 <= m"):
            isl_totals([1, -1, 1], [])
        with pytest.raises(ValueError, match="need 1 <= m"):
            isl_totals(np.ones(MAX_EXACT_N, dtype=np.int64), [0] * 1266)
        with pytest.raises(ValueError, match="overflow int64"):
            isl_totals(np.ones(MAX_EXACT_N + 1, dtype=np.int64), [0])


class TestBlockedRoundTrips:
    """Both exact paths transform, round and check a block of rows per FFT
    round trip; at n = 499 (L = 1000) a block holds 16 rows."""

    N, M = 499, 40  # blocks of 16, 16 and 8 rows

    def test_partial_blocks_match_report_and_correlate_oracle(self, monkeypatch):
        n, m = self.N, self.M
        rng = np.random.default_rng(19)
        base = rng.choice([-1, 1], n)
        offsets = rng.integers(-3 * n, 3 * n, size=m)
        rows = np.array([np.roll(base, -t) for t in offsets], dtype=np.float64)
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kw):
            calls.append(np.shape(args[0]))
            return rfft(*args, **kw)

        monkeypatch.setattr(np.fft, "rfft", counted)
        got = isl_totals(base, offsets)
        rep = isl_report(rows)
        assert calls == [(16, n), (16, n), (8, n)] * 2
        autos = [np.correlate(r, r, mode="full") for r in rows]
        auto = [int(v @ v) - n * n for v in autos]
        # X_qp(k) = X_pq(-k), so each unordered pair counts twice
        cross = 2 * sum(int(v @ v) for p in range(m) for q in range(p + 1, m)
                        for v in [np.correlate(rows[q], rows[p], mode="full")])
        assert got.auto_terms.tolist() == rep.auto_terms.tolist() == auto
        assert got.total == rep.total == sum(auto) + cross

    def test_cross_terms_span_blocks(self):
        # the engine yields each block in one reused buffer, so a pair whose
        # rows sit in different blocks, such as (0, 39), (5, 20) or (17, 33),
        # must still see each row's own lags
        n, m = self.N, self.M
        rng = np.random.default_rng(19)
        base = rng.choice([-1, 1], n)
        rows = np.array([np.roll(base, -t) for t in rng.integers(-3 * n, 3 * n, size=m)],
                        dtype=np.float64)
        rep = isl_report(rows)
        cross = [[correlate_energy(rows[p], rows[q]) if p != q else 0 for q in range(m)]
                 for p in range(m)]
        assert rep.cross_terms.dtype == np.int64
        assert rep.cross_terms.tolist() == cross

    @pytest.mark.parametrize("offset", [0.3, np.nan])
    @pytest.mark.parametrize("call, row", [(0, 5), (1, 3), (2, 7)])
    def test_residual_names_its_own_row(self, monkeypatch, offset, call, row):
        # a fault planted in one row of one block names that row, not the
        # block's first
        irfft = np.fft.irfft
        calls = []

        def planted(*args, **kw):
            out = irfft(*args, **kw)
            if len(calls) == call:
                out[row] += offset
            calls.append(1)
            return out

        monkeypatch.setattr(np.fft, "irfft", planted)
        base = legendre_sequence(self.N)
        match = f"sequence {16 * call + row} \\(n={self.N}\\)"
        with pytest.raises(RoundingResidualError, match=match):
            isl_totals(base, range(self.M))
        calls.clear()
        with pytest.raises(RoundingResidualError, match=match):
            isl_report([np.roll(base, -t) for t in range(self.M)])


class TestPeriodicAutocorrelation:
    def test_all_ones(self):
        assert periodic_autocorrelation([1, 1, 1]).tolist() == [3, 3]

    def test_cyclic_sum_oracle(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 8, 13):
            a = rng.choice([-1, 1], n)
            got = periodic_autocorrelation(a)
            want = [sum(a[j] * a[(j + k) % n] for j in range(n)) for k in range(1, n)]
            assert got.tolist() == want

    def test_legendre_bound_small_primes(self):
        # |periodic correlation| <= 3 at every nonzero lag (full range in
        # the acceptance suite)
        for n in primes_in_range(3, 499):
            c = periodic_autocorrelation(legendre_sequence(n))
            assert np.max(np.abs(c)) <= 3
