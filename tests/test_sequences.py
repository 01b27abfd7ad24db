import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit import selfcheck
from islkit.asymptotic import isl_limit
from islkit.correlation import isl_report, isl_totals
from islkit.spectral import legendre_gf_closed_form
from islkit.sequences import (
    RotationSet,
    bind_rotations,
    check_antipodal,
    is_prime,
    legendre_sequence,
    primes_in_range,
    rotate_left,
    round_half_up,
)


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def euler_criterion(j, n):
    j %= n
    if j == 0:
        return 0
    return 1 if pow(j, (n - 1) // 2, n) == 1 else -1


def squares_mod(n):
    return {(k * k) % n for k in range(1, n)}


class TestIsPrime:
    def test_examples(self):
        assert is_prime(7)
        assert not is_prime(1)
        assert trial_division(10007)
        assert is_prime(10007)

    def test_agrees_with_trial_division(self):
        for n in range(1, 3000):
            assert is_prime(n) == trial_division(n), n

    def test_large_inputs(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_numpy_integers_pass(self):
        # past the witnesses, pow() used to refuse a numpy modulus with TypeError
        assert is_prime(np.int64(41)) and not is_prime(np.int32(49))

    @pytest.mark.parametrize("n", [7.0, 41.0, np.float64(41.0)])
    def test_rejects_float_length(self, n):
        # 7.0 used to pass and 41.0 to fail inside pow(); every float names no length
        for call in (lambda: is_prime(n), lambda: bind_rotations([0.1], n),
                     lambda: legendre_gf_closed_form(n, 1, 1)):
            with pytest.raises(TypeError):
                call()

    def test_prime_iteration(self):
        assert primes_in_range(8, 11) == [11]
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(24, 28) == []

    @pytest.mark.parametrize("lo, hi", [(23, 499), (3, 27554), (2399000, 2399993), (0, 1),
                                        (2, 2), (2397000, 2399993), (10**18, 10**18 + 200)])
    def test_sieve_matches_miller_rabin(self, lo, hi):
        # the segmented sieve against its twin, is_prime on every integer
        assert primes_in_range(lo, hi) == [p for p in range(lo, hi + 1) if is_prime(p)]

    def test_narrow_window_at_large_hi(self):
        # a sieve here would need a 10^9-byte table of base primes; a window
        # narrower than sqrt(hi) (2399000..2399993 too) is tested by is_prime
        assert primes_in_range(10**18, 10**18 + 100) == [10**18 + k for k in (3, 9, 31, 79)]


class TestLegendreSymbol:
    # the symbol as legendre_sequence realizes it: element j (j != 0 mod n)
    def test_examples(self):
        assert euler_criterion(2, 7) == 1
        assert legendre_sequence(7)[2] == 1
        assert pow(3, 3, 7) == 7 - 1  # 27 = -1 mod 7
        assert legendre_sequence(7)[3] == -1

    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_matches_euler_criterion(self, n):
        seq = legendre_sequence(n)
        for j in range(-n, 2 * n):
            if j % n:
                assert seq[j % n] == euler_criterion(j, n)

    @pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 100])
    def test_rejects_nonprime_or_even(self, bad):
        with pytest.raises(ValueError):
            legendre_sequence(bad)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_multiplicative(self, a, b):
        n = 101
        if a % n == 0 or b % n == 0:
            return
        seq = legendre_sequence(n)
        assert seq[a * b % n] == seq[a % n] * seq[b % n]


class TestLegendreSequence:
    def test_n7(self):
        assert squares_mod(7) == {1, 2, 4}
        assert legendre_sequence(7).tolist() == [1, 1, 1, -1, 1, -1, -1]

    def test_n3(self):
        assert squares_mod(3) == {1}
        assert legendre_sequence(3).tolist() == [1, 1, -1]

    def test_leading_element_forced_positive(self):
        for n in (3, 5, 7, 11):
            assert legendre_sequence(n)[0] == 1

    def test_sums_to_one(self):
        for n in primes_in_range(3, 499):
            assert legendre_sequence(n).sum() == 1

    def test_exhaustive_square_oracle(self):
        for n in primes_in_range(3, 499):
            seq = legendre_sequence(n)
            sq = squares_mod(n)
            expected = [1] + [1 if j in sq else -1 for j in range(1, n)]
            assert seq.tolist() == expected

    def test_agrees_with_symbol(self):
        for n in primes_in_range(3, 199):
            seq = legendre_sequence(n)
            assert all(seq[j] == euler_criterion(j, n) for j in range(1, n))

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            legendre_sequence(9)


class TestRotate:
    def test_examples(self):
        s = np.array([1, 1, -1])
        assert rotate_left(s, 0).tolist() == [1, 1, -1]
        assert rotate_left(s, 1).tolist() == [1, -1, 1]
        assert rotate_left(s, 3).tolist() == [1, 1, -1]

    def test_negative_shift(self):
        s = np.array([1, 2, 3, 4, 5])
        assert rotate_left(s, -1).tolist() == [5, 1, 2, 3, 4]

    @given(st.integers(-100, 100), st.integers(2, 30))
    @settings(max_examples=100)
    def test_roundtrip(self, t, n):
        rng = np.random.default_rng(abs(t) + n)
        s = rng.choice([-1, 1], n)
        assert np.array_equal(rotate_left(rotate_left(s, t), n - t), s)

    def test_definition(self):
        rng = np.random.default_rng(5)
        s = rng.choice([-1, 1], 11)
        for t in range(-11, 23):
            out = rotate_left(s, t)
            assert all(out[j] == s[(j + t) % 11] for j in range(11))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="sequence must be nonempty"):
            rotate_left(np.array([], dtype=np.int64), 1)


class TestCheckAntipodal:
    @pytest.mark.parametrize("seq", [
        [1, -1, 1], [1.0, -1.0], [[1, -1], [-1, -1]], np.ones(3, dtype=np.int8),
    ])
    def test_accepts_plus_minus_one_as_int64(self, seq):
        values = check_antipodal(seq)
        assert values.dtype == np.int64
        assert np.array_equal(values, seq)

    @pytest.mark.parametrize("seq", [
        [1, 0, -1], [1, 2], [-2, 1], [1.5, 1], [1.0, np.nan], [np.inf, 1.0], [-1.0, -np.inf],
        [1, 1j], [1 + 0j, -1 + 0j], [[1, -1], [1, np.nan]],
    ])
    def test_rejects_other_entries_without_a_warning(self, seq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exactly -1 or \\+1"):
                check_antipodal(seq)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_antipodal([])


class TestBindRotations:
    def test_round_half_up(self):
        assert round_half_up(25.25) == 25
        assert round_half_up(3.5) == 4
        assert round_half_up(5.25) == 5

    def test_examples(self):
        rs = bind_rotations([0.25], 101)
        assert rs.offsets == (25,)
        assert rs.n == 101
        assert bind_rotations([0.0], 7).offsets == (0,)
        assert bind_rotations([0.5, 0.75], 7).offsets == (4, 5)

    def test_fractions_rederived(self):
        # each offset, read back as t / n, is the nearest to its fraction
        rs = bind_rotations([0.1, 0.9], 13)
        assert rs.offsets == (1, 12)
        assert all(abs(t / 13 - f) <= 0.5 / 13 for t, f in zip(rs.offsets, (0.1, 0.9)))
        assert all(0 <= t < 13 for t in rs.offsets)

    def test_rejects_out_of_range(self):
        for f in (1.0 + 1e-12, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                bind_rotations([f], 7)

    def test_full_turn_binds_to_offset_zero(self):
        for f in (1.0, 1.0 - 1e-12):
            rs = bind_rotations([f], 7)
            assert rs.offsets == (0,) and rs.n == 7

    def test_rejects_nonprime_length(self):
        with pytest.raises(ValueError):
            bind_rotations([0.5], 10)

    @pytest.mark.parametrize("fractions", [np.array([0.1 + 0.5j]), [0.1 + 0.5j]])
    def test_rejects_complex_fractions_without_a_warning(self, fractions):
        # a float64 cast would bind the real part of an array (offset 1 at
        # n = 7) and raise TypeError on a list
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: bind_rotations(fractions, 7), lambda: isl_limit(fractions)):
                with pytest.raises(ValueError, match="must be real, got dtype complex128"):
                    call()

    def test_exact_fractions_bind_as_their_floats(self):
        # object arrays of real numbers still cast; only complex is refused
        exact = [Fraction(1, 4), Fraction(3, 5), Decimal("0.9")]
        assert bind_rotations(exact, 7) == bind_rotations([0.25, 0.6, 0.9], 7)
        assert isl_limit(exact).total == isl_limit([0.25, 0.6, 0.9]).total

    def test_rejects_fractions_not_one_dimensional(self):
        for fractions, shape in ((0.25, r"\(\)"), ([[0.25, 0.5]], r"\(1, 2\)")):
            with pytest.raises(ValueError, match=r"shape \(M,\), got shape " + shape):
                bind_rotations(fractions, 7)

    def test_sequences_realization(self):
        rs = bind_rotations([0.0, 2 / 7], 7)
        a, b = rs.sequences()
        assert a.tolist() == legendre_sequence(7).tolist()
        assert b.tolist() == rotate_left(legendre_sequence(7), 2).tolist()

    @pytest.mark.parametrize("n", [3, 7, 101])
    @pytest.mark.parametrize("fractions", [[0.0], [0.25], [0.0, 0.3, 1.0, 0.5, 0.99]])
    def test_sequences_array_rows_are_rotations(self, n, fractions):
        rs = bind_rotations(fractions, n)
        seqs = rs.sequences()
        assert seqs.shape == (len(fractions), n) and seqs.dtype == np.int64
        for row, t in zip(seqs, rs.offsets):
            assert np.array_equal(row, rotate_left(legendre_sequence(n), t))


class TestRotationSetOffsets:
    # one row rule for RotationSet.sequences() and isl_totals: any integer
    # offset, taken mod n
    @pytest.mark.parametrize("n", [3, 7, 101])
    def test_rows_are_rotations_for_any_integer_offset(self, n):
        offsets = (-1, -2, n, n + 1, 3 * n + 2)
        seqs = RotationSet(offsets, n).sequences()
        assert seqs.shape == (len(offsets), n) and seqs.dtype == np.int64
        for row, t in zip(seqs, offsets):
            assert np.array_equal(row, rotate_left(legendre_sequence(n), t))

    @pytest.mark.parametrize("n", [7, 101])
    def test_report_of_the_rows_gives_the_streamed_totals(self, n):
        offsets = (-1, -2, n, n + 1, 3 * n + 2, -1, 2 * n - 1)  # duplicates included
        report = isl_report(RotationSet(offsets, n).sequences())
        totals = isl_totals(legendre_sequence(n), offsets)
        assert (report.total, report.normalized) == (totals.total, totals.normalized)
        assert np.array_equal(report.auto_terms, totals.auto_terms)

    def test_non_integer_offset_rejected(self):
        with pytest.raises(ValueError, match="offsets must be integers"):
            RotationSet((0, 0.5), 7).sequences()

    def test_bool_offset_rejected_on_every_row_path(self):
        # operator.index takes True as 1, so a bool would pass as the
        # rotation by 1; bools are refused as spectral refuses bool indices
        class BoolDraws:
            def integers(self, low, high, size):
                return [True, 2]

        for offsets in ((True, 2), (0, False), np.array([True, False])):
            with pytest.raises(ValueError, match="offsets must be integers"):
                RotationSet(offsets, 7).sequences()
            with pytest.raises(ValueError, match="offsets must be integers"):
                isl_totals(legendre_sequence(7), offsets)
        with pytest.raises(ValueError, match="offsets must be integers, got a bool"):
            selfcheck.check_pattern_decomposition(7, BoolDraws())


@pytest.mark.parametrize("f, ok", [
    (0.0, True), (1.0, True), (1.0 - 1e-12, True),
    (-1e-12, False), (1.0 + 1e-12, False), (float("nan"), False),
])
def test_one_fraction_domain(f, ok):
    # the exact and the asymptotic path share one domain, [0, 1]
    outcomes = []
    for call in (lambda: bind_rotations([f], 7), lambda: isl_limit([f])):
        try:
            call()
            outcomes.append(True)
        except ValueError:
            outcomes.append(False)
    assert outcomes == [ok, ok]
