import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import islkit.correlation
from islkit.correlation import (
    MAX_EXACT_N,
    MAX_ROUNDING_RESIDUAL,
    RoundingResidualError,
    _column_sums,
    _legendre_totals,
    _smooth_length,
    _sum_of_squares,
    _total,
    aperiodic_correlation,
    cross_energy,
    isl_report,
    isl_totals,
    periodic_autocorrelation,
)
from islkit.sequences import legendre_sequence, primes_in_range


# every oracle entry point, with one bad sequence in either slot
ONE_BAD_SEQUENCE = [
    lambda s: aperiodic_correlation(s, [1, 1, 1]),
    lambda s: aperiodic_correlation([1, 1, 1], s),
    lambda s: cross_energy(s, [1, 1, 1]),
    lambda s: cross_energy([1, 1, 1], s),
    periodic_autocorrelation,
]


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

    @pytest.mark.parametrize("call", ONE_BAD_SEQUENCE)
    @pytest.mark.parametrize("seq,shape", [(np.ones((2, 3)), r"\(2, 3\)"), ([], r"\(0,\)"),
                                           (1.0, r"\(\)")])
    def test_bad_shape_named(self, call, seq, shape):
        # not numpy's "object too deep" or "cannot be empty": the shape
        with pytest.raises(ValueError, match="non-empty one-dimensional sequence, got shape "
                                             + shape):
            call(seq)

    @pytest.mark.parametrize("call", ONE_BAD_SEQUENCE)
    @pytest.mark.parametrize("complex_seq", [np.array([1 + 5j, 1, 1]), [1 + 5j, 1, 1]])
    def test_complex_input_rejected(self, call, complex_seq):
        # a float64 cast would keep only the real part, with a ComplexWarning
        with pytest.raises(ValueError, match="sequence must be real, got dtype complex128"):
            call(complex_seq)


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
        with pytest.raises(RoundingResidualError, match="^FFT column sum of n=31 lies .* from an"):
            isl_totals(legendre_sequence(31), [0, 3])

    @pytest.mark.parametrize("n, shapes", [(31, [(2, 31)]),  # one gathered block
                                           (5003, [(1, 5003)] * 2)])  # one set a block
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

    def test_one_smooth_length_per_block(self, monkeypatch):
        # eight rotations at n = 211 are eight one-row sets in one block
        # (8 x 421 <= 2^14): its transform length is worked out once
        true_fn = islkit.correlation._smooth_length
        calls = []

        def counted(k):
            calls.append(k)
            return true_fn(k)

        monkeypatch.setattr(islkit.correlation, "_smooth_length", counted)
        got = isl_totals(legendre_sequence(211), range(8))
        assert calls == [421]
        assert got.total == isl_report([np.roll(legendre_sequence(211), -t)
                                        for t in range(8)]).total

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
        # a fault planted in one row of one block reports that row's own
        # residual, not the block's first: the rows before it carry 0.2,
        # under the limit
        irfft = np.fft.irfft
        calls = []

        def planted(*args, **kw):
            out = irfft(*args, **kw)
            if len(calls) == call:
                out[:row] += 0.2
                out[row] += offset
            calls.append(1)
            return out

        monkeypatch.setattr(np.fft, "irfft", planted)
        base = legendre_sequence(self.N)
        match = f"^FFT column sum of n={self.N} lies {offset:.3g} from an integer"
        with pytest.raises(RoundingResidualError, match=match):
            isl_totals(base, range(self.M))
        calls.clear()
        with pytest.raises(RoundingResidualError, match=match):
            isl_report([np.roll(base, -t) for t in range(self.M)])


def column_oracle(base, offsets):
    """Lags 0..n-1 of the rows' autocorrelations summed, from np.correlate."""
    n = len(base)
    rows = [np.roll(base, -t) for t in offsets]
    return sum(np.correlate(r, r, mode="full")[n - 1:] for r in rows)


# the ways offsets are widened: by offset n - 1 or a duplicate of the
# first, or cut to one-row sets (all starts equal)
EXTRA = ["none", "last", "duplicate", "single", "all-equal", "only-last"]


def with_extra_offset(offsets, n, extra):
    """offsets, plus offset n - 1 or a duplicate of the first; or only the
    first (M = 1), the first len(offsets) times, or only n - 1."""
    return {"none": offsets, "last": offsets + [n - 1], "duplicate": offsets + offsets[:1],
            "single": offsets[:1], "all-equal": offsets[:1] * len(offsets),
            "only-last": [n - 1]}[extra]


def counted_rfft(monkeypatch):
    """The shapes and lengths np.fft.rfft is called with, as they come."""
    calls = []
    rfft = np.fft.rfft

    def counted(rows, n=None, *args, **kw):
        calls.append((np.shape(rows), n))
        return rfft(rows, n, *args, **kw)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


class TestColumnSums:
    """The column-sum identity against the rows (isl_totals) and the
    correlate oracle, and the periodic fold that checks it."""

    @given(
        base=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=257),
        offsets=st.lists(st.integers(-600, 600), min_size=1, max_size=6),
        extra=st.sampled_from(EXTRA),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_rows_and_correlate_oracle(self, base, offsets, extra):
        n = len(base)
        offsets = with_extra_offset(offsets, n, extra)
        (_, m, c), = _column_sums([(np.array(base), offsets)])
        assert m == len(offsets) and c.dtype == np.int64
        assert c.tolist() == column_oracle(base, offsets).tolist()
        assert _total(c, m) == isl_totals(base, offsets).total

    @given(
        n=st.sampled_from(primes_in_range(3, 600)),
        offsets=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
        extra=st.sampled_from(EXTRA),
    )
    @settings(max_examples=120, deadline=None)
    def test_legendre_totals_match_rows(self, n, offsets, extra):
        offsets = with_extra_offset(offsets, n, extra)
        base = legendre_sequence(n)
        assert list(_legendre_totals([(base, offsets)])) == [isl_totals(base, offsets).total]

    def test_fold_passes_at_every_prime_below_600(self):
        ns = primes_in_range(3, 600)
        sets = [(legendre_sequence(n), [0, n // 3, n // 3, n - 1]) for n in ns]
        assert list(_legendre_totals(sets)) == [isl_totals(*s).total for s in sets]

    def test_fold_closed_form_is_the_cyclic_autocorrelation(self):
        # P(k) = (k/n) + (-k/n) - 1: -1 at n = 3 mod 4, 2 (k/n) - 1 at n = 1 mod 4
        for n in primes_in_range(3, 600):
            b = legendre_sequence(n)
            assert (b[1:] + b[:0:-1] - 1).tolist() == periodic_autocorrelation(b).tolist()

    @pytest.mark.parametrize("ns, shapes", [
        # smooth lengths 45, 64, 216 and 432: one block, padded to L = 432,
        # of one row for the one-rotation set and two for each other
        ([23, 31, 101, 211], [((7, 211), 432)]),
        # L = 4050: one- and two-row sets fill 3 x 4050 <= 2^14, a third
        # set starts a block
        ([2003, 2011, 2017], [((3, 2011), 4050), ((2, 2017), 4050)]),
    ])
    def test_blocks_mix_smooth_lengths(self, monkeypatch, ns, shapes):
        # and each set its own M: 1, 2, 3, then 4 with a duplicate
        sets = [(legendre_sequence(n), [1, n // 2, n - 1, n // 2][:i + 1])
                for i, n in enumerate(ns)]
        want = [isl_totals(*s).total for s in sets]
        calls = counted_rfft(monkeypatch)
        got = list(_column_sums(sets))
        assert calls == shapes
        for (base, offsets), (got_base, m, c) in zip(sets, got):
            assert got_base is base and m == len(offsets)
            assert c.tolist() == column_oracle(base, offsets).tolist()
        calls.clear()
        assert list(_legendre_totals(sets)) == want
        assert calls == shapes

    @pytest.mark.parametrize("n, offsets", [
        (499, [137]),  # M = 1 at an offset off 0
        (211, [-5, 206, 417, 206]),  # all-equal duplicates: one start, M = 4
        (101, [100]),  # offset n - 1
        (3, [2, 5]),
        (1, [0]),
    ])
    def test_one_row_sets_match_correlate_oracle(self, monkeypatch, n, offsets):
        # a set whose starts all equal is one row, its rotated window
        base = np.random.default_rng(n).choice([-1, 1], n)
        calls = counted_rfft(monkeypatch)
        (got_base, m, c), = _column_sums([(base, offsets)])
        assert calls == [((1, n), _smooth_length(2 * n - 1))]
        assert got_base is base and m == len(offsets) and c.dtype == np.int64
        assert c.tolist() == column_oracle(base, offsets).tolist()

    def test_budget_counts_rows_not_sets(self, monkeypatch):
        # at L = 1000 (n = 499, 491) a block holds 16 rows: fourteen
        # one-row sets and one two-row set fill it, the next set starts a
        # block; at two rows a set it would hold 8
        sets = [(legendre_sequence(499), [t] * (1 + t % 3)) for t in range(14)]
        sets += [(legendre_sequence(499), [0, 250]), (legendre_sequence(491), [3, 3])]
        calls = counted_rfft(monkeypatch)
        got = list(_column_sums(sets))
        assert calls == [((16, 499), 1000), ((1, 491), 1000)]
        for (base, offsets), (_, m, c) in zip(sets, got, strict=True):
            assert m == len(offsets)
            assert c.tolist() == column_oracle(base, offsets).tolist()
        assert list(_legendre_totals(sets)) == [isl_totals(*s).total for s in sets]

    def test_all_ones_at_max_exact_n_within_residual_limit(self, monkeypatch):
        # the largest inputs the commands allow: |c(k)| = M (n - k) up to
        # 2.4e9 at M = 1000; the worst rounding error measured is 2.4e-6
        n, m = MAX_EXACT_N, 1000
        residuals = []
        true_fn = islkit.correlation._rint_checked

        def spy(values, out, name, labels):
            true_fn(values, out, name, labels)
            residuals.append(float(np.abs(values).max()))

        monkeypatch.setattr(islkit.correlation, "_rint_checked", spy)
        offsets = np.random.default_rng(0).integers(0, n, m).tolist()
        (_, _, c), = _column_sums([(np.ones(n), offsets)])
        assert np.array_equal(c, m * np.arange(n, 0, -1))
        assert len(residuals) == 1 and residuals[0] < MAX_ROUNDING_RESIDUAL / 1000

    @pytest.mark.parametrize("offset", [0.3, -0.3, np.nan])
    @pytest.mark.parametrize("offsets", [[0, 3, 7], [5], [4, 4]])  # two rows, one, one
    def test_rounding_residual_guard_names_its_own_n(self, monkeypatch, offset, offsets):
        # a fault planted in the third set of a block names that set's n
        irfft = np.fft.irfft

        def planted(*args, **kw):
            out = irfft(*args, **kw)
            out[2] += offset
            return out

        monkeypatch.setattr(np.fft, "irfft", planted)
        sets = [(legendre_sequence(n), offsets) for n in (23, 31, 101, 211)]
        with pytest.raises(RoundingResidualError, match=r"^FFT column sum of n=101 lies"):
            list(_column_sums(sets))

    @pytest.mark.parametrize("fault", [1, -2])
    @pytest.mark.parametrize("lag, named", [(0, 0), (1, 1), (17, 17), (84, 17), (100, 1)])
    def test_planted_one_lag_fault_breaks_the_fold(self, monkeypatch, fault, lag, named):
        true_fn = islkit.correlation._column_sums

        def planted(sets):
            for base, m, c in true_fn(sets):
                c = c.copy()
                c[lag] += fault
                yield base, m, c

        monkeypatch.setattr(islkit.correlation, "_column_sums", planted)
        sets = [(legendre_sequence(101), [0, 30, 30, 100])]
        with pytest.raises(RoundingResidualError,
                           match=f"n=101 breaks the periodic fold .* at lag {named}$"):
            list(_legendre_totals(sets))


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
