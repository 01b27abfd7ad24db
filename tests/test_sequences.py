import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit.asymptotic import isl_limit
from islkit.sequences import (
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

    def test_prime_iteration(self):
        assert primes_in_range(8, 11) == [11]
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(24, 28) == []


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
