import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islkit.correlation import cross_energy
from islkit.sequences import legendre_sequence, primes_in_range, rotate_left
from islkit.spectral import (
    _inverse_differences,
    _pattern_sums,
    energy_matrix_spectral,
    gf_at_roots,
    gf_eval,
    interpolate_negated_root,
    kernel_sums_closed_form,
    kernel_sums_direct,
    legendre_gf_closed_form,
    pattern_decomposition,
    power_sum_at_negated_roots,
    roots_of_unity,
)


def s_plus(a, b):
    """S_plus = sum_j |Q_a(eps_j)|^2 |Q_b(eps_j)|^2 over the n-th roots of unity."""
    qa, qb = gf_at_roots(a), gf_at_roots(b)
    return float(np.sum(np.abs(qa) ** 2 * np.abs(qb) ** 2))


def xcorr_loop(a, b):
    n = len(a)
    return {
        k: sum(a[j] * b[j + k] for j in range(max(0, -k), min(n - k, n)))
        for k in range(-n + 1, n)
    }


class TestGfEval:
    def test_examples(self):
        assert gf_eval([1, 1, -1], 1) == 1
        assert gf_eval([1, 1, -1], -1) == -1
        assert gf_eval([5, 1, -1], 0) == 5

    def test_matches_polyval(self):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=9)
        for z in (0.5 + 0.2j, -1.5, 1j):
            assert gf_eval(seq, z) == pytest.approx(np.polyval(seq[::-1], z))

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(18)
        for n in (1, 8, 33, 199):
            seq = rng.normal(size=n)
            for z in (0.5 + 0.2j, -1.5, 1j, -roots_of_unity(n)[n // 3]):
                want = sum(c * z**k for k, c in enumerate(seq.tolist()))
                assert abs(gf_eval(seq, z) - want) <= 1e-12 * max(1.0, abs(z)) ** n * n

    def test_multi_axis_sequence_rejected(self):
        with pytest.raises(ValueError, match=r"one-dimensional sequence, got shape \(2, 3\)"):
            gf_eval(np.ones((2, 3)), 1.0)

    def test_array_points_match_scalar_points(self):
        rng = np.random.default_rng(17)
        seq = rng.normal(size=11)
        z = -roots_of_unity(11)
        vals = gf_eval(seq, z)
        assert vals.shape == (11,)
        assert vals.tolist() == [gf_eval(seq, zj) for zj in z]


class TestGfAtRoots:
    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(1)
        for n in (3, 7, 18, 31):
            seq = rng.choice([-1, 1], n)
            eps = roots_of_unity(n)
            vals = gf_at_roots(seq)
            for j in range(n):
                assert vals[j] == pytest.approx(gf_eval(seq, eps[j]), abs=1e-10)

    def test_chunked_path_matches(self):
        # a large prime length, which numpy.fft evaluates by Bluestein's
        # algorithm rather than by a mixed-radix transform
        rng = np.random.default_rng(2)
        n = 601
        seq = rng.choice([-1, 1], n)
        vals = gf_at_roots(seq)
        eps = roots_of_unity(n)
        for j in (0, 1, 99, 300, 600):
            assert vals[j] == pytest.approx(gf_eval(seq, eps[j]), abs=1e-8)

    def test_negated_roots(self):
        # Q(-eps_j) is the transform of the sequence, odd-indexed terms negated
        rng = np.random.default_rng(3)
        for n in (9, 601):
            seq = rng.choice([-1, 1], n)
            vals = gf_at_roots(seq * (-1) ** np.arange(n))
            eps = roots_of_unity(n)
            for j in range(n):
                assert vals[j] == pytest.approx(gf_eval(seq, -eps[j]), abs=1e-10)

    def test_complex_sequence(self):
        # the imaginary parts are kept, not cast away
        rng = np.random.default_rng(4)
        for seq in ([1 + 2j, 0, 1j], rng.normal(size=9) + 1j * rng.normal(size=9)):
            vals = gf_at_roots(seq)
            eps = roots_of_unity(len(seq))
            assert np.allclose(vals, gf_eval(seq, eps), rtol=0, atol=1e-12)

    @given(st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, half_n):
        n = 2 * half_n + 1
        seq = np.random.default_rng(n).choice([-1, 1], n)
        assert np.sum(np.abs(gf_at_roots(seq)) ** 2) == pytest.approx(n * n)

    def test_parseval_general_real(self):
        rng = np.random.default_rng(15)
        for n in (5, 12, 33):
            seq = rng.normal(size=n)
            total = np.sum(np.abs(gf_at_roots(seq)) ** 2)
            assert total == pytest.approx(n * np.sum(seq**2))


class TestLegendreGfClosedForm:
    def test_dc_value(self):
        for n in (3, 5, 7, 13):
            assert legendre_gf_closed_form(n, 0, 1) == 1.0

    def test_n7_first_root(self):
        assert legendre_gf_closed_form(7, 1, 1) == pytest.approx(1 + 1j * np.sqrt(7))

    def test_branch_by_residue_class(self):
        v5 = legendre_gf_closed_form(5, 1, 1)  # 5 = 1 mod 4: real offset
        assert v5.imag == 0 and v5.real == pytest.approx(1 + np.sqrt(5))
        v7 = legendre_gf_closed_form(7, 3, -1)  # 7 = 3 mod 4: imaginary offset
        assert v7.real == 1 and v7.imag == pytest.approx(-np.sqrt(7))

    def test_matches_direct_evaluation(self):
        for n in primes_in_range(3, 101):
            ell = legendre_sequence(n)
            vals = gf_at_roots(ell)
            for j in range(n):
                closed = legendre_gf_closed_form(n, j, int(ell[j]))
                assert abs(closed - vals[j]) < 1e-9 * (1 + abs(vals[j]))

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            legendre_gf_closed_form(9, 1, 1)

    def test_non_integer_root_index_rejected(self):
        # 0.5 % 7 != 0 would give 1 + sqrt(7) i, a value at no root of unity
        for j in (0.5, np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="root indices must be integers, got dtype float"):
                legendre_gf_closed_form(7, j, 1)
        assert legendre_gf_closed_form(7, np.int32(3), -1) == legendre_gf_closed_form(7, 3, -1)

    @pytest.mark.parametrize("ell", [3, 0.5])
    def test_value_that_is_no_legendre_symbol_rejected(self, ell):
        # unchecked, (7, 1, 3) would read 1 + 7.94j, a value of no Legendre sequence
        for j, ell_j in ((1, ell), (np.arange(7), np.full(7, ell))):
            with pytest.raises(ValueError, match=r"Legendre symbols must be -1 or \+1"):
                legendre_gf_closed_form(7, j, ell_j)
        # at j = 0 the value is 1, whatever the symbol
        assert legendre_gf_closed_form(7, 0, ell) == 1.0

    @pytest.mark.parametrize("n", [3, 5, 7, 13, 101])
    def test_array_of_j_matches_scalar_j(self, n):
        ell = legendre_sequence(n)
        j = np.concatenate([np.arange(n), [-1, n, 2 * n + 3]])
        batch = legendre_gf_closed_form(n, j, ell[j % n])
        scalar = [legendre_gf_closed_form(n, int(i), int(ell[i % n])) for i in j]
        assert batch.shape == j.shape
        assert np.array_equal(batch, scalar)

    def test_rotation_covariance(self):
        # values of a rotated sequence pick up the phase eps_j^(-t)
        n = 13
        ell = legendre_sequence(n)
        base = gf_at_roots(ell)
        eps = roots_of_unity(n)
        for t in (1, 5, 12):
            rotated = gf_at_roots(rotate_left(ell, t))
            assert np.allclose(rotated, eps ** (-t) * base, atol=1e-9)


class TestPowerSums:
    def test_lag_domain_identity(self):
        # sum over roots of |Qa Qb*|^2 equals n * (sum of X^2 plus both
        # wraparound product sums), out-of-range X treated as zero
        rng = np.random.default_rng(4)
        for n in (3, 5, 9, 13):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            x = xcorr_loop(a, b)
            squares = sum(v * v for v in x.values())
            wrap_pos = sum(x[k] * x[k - n] for k in range(1, n))
            wrap_neg = sum(x[k] * x[k + n] for k in range(-n + 1, 0))
            expected = n * (squares + wrap_pos + wrap_neg)
            assert s_plus(a, b) == pytest.approx(expected, rel=1e-12)
            expected_neg = n * (squares - wrap_pos - wrap_neg)
            assert power_sum_at_negated_roots(a, b) == pytest.approx(expected_neg, rel=1e-12)

    def test_negated_sum_via_lagrange_reconstruction(self):
        # second independent route to the negated-roots sum: interpolate
        # each factor from the plain-root values instead of re-evaluating
        rng = np.random.default_rng(16)
        for n in (5, 9, 13):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            qa_roots, qb_roots = gf_at_roots(a), gf_at_roots(b)
            total = 0.0
            for j in range(n):
                qa = interpolate_negated_root(qa_roots, j)
                qb = interpolate_negated_root(qb_roots, j)
                total += abs(qa * np.conj(qb)) ** 2
            direct = power_sum_at_negated_roots(a, b)
            assert abs(total - direct) <= 1e-8 * max(direct, 1.0)

    def test_rotation_invariance_for_legendre_pairs(self):
        n = 19
        ell = legendre_sequence(n)
        base = s_plus(ell, ell)
        rng = np.random.default_rng(5)
        for _ in range(5):
            ta, tb = rng.integers(0, n, 2)
            val = s_plus(rotate_left(ell, ta), rotate_left(ell, tb))
            assert val == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("n", primes_in_range(3, 61))
    def test_legendre_closed_value(self, n):
        # |Q(eps_j)|^2 is 1 at j=0 and n+1 plus a residue-class dependent
        # cross term elsewhere; the quartic sum follows
        ell = legendre_sequence(n)
        base = 1 + (n - 1) * (n + 1) ** 2
        expected = base if n % 4 == 3 else base + 4 * n * (n - 1)
        assert s_plus(ell, ell) == pytest.approx(expected, rel=1e-12)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            pattern_decomposition([1, -1], [1, 1])
        with pytest.raises(ValueError):
            power_sum_at_negated_roots([1, -1], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            power_sum_at_negated_roots([1, 1, -1], [1, 1])

    @pytest.mark.parametrize("function", [power_sum_at_negated_roots, pattern_decomposition])
    def test_two_dimensional_input_rejected(self, function):
        with pytest.raises(ValueError, match=r"one-dimensional sequence, got shape \(3, 5\)"):
            function(np.ones((3, 5)), np.ones((3, 5)))
        with pytest.raises(ValueError, match=r"shape mismatch: \(5,\) vs \(5, 5\)"):
            function(np.ones(5), np.ones((5, 5)))

    @pytest.mark.parametrize("function", [power_sum_at_negated_roots, pattern_decomposition])
    @pytest.mark.parametrize("complex_seq", [np.array([1 + 1j, 0, 0]), [1 + 1j, 0, 0]])
    def test_complex_input_rejected_without_a_warning(self, function, complex_seq):
        # a float64 cast would keep only the real part of an array and
        # raise TypeError on a list
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((complex_seq, [1, 0, 0]), ([1, 0, 0], complex_seq)):
                with pytest.raises(ValueError, match="must be real, got dtype complex128"):
                    function(a, b)


    @pytest.mark.parametrize("function", [power_sum_at_negated_roots, pattern_decomposition])
    def test_python_ints_beyond_int64_cast_to_float(self, function):
        big = [2**70, 0, 0]
        assert np.asarray(big).dtype == object
        assert function(big, [1, 0, 0]) == function([2.0**70, 0, 0], [1, 0, 0])

class TestInterpolateNegatedRoot:
    def test_reproduces_constants(self):
        for n in (3, 7, 11):
            at_roots = np.full(n, 2.5 + 0j)
            for j in range(n):
                assert interpolate_negated_root(at_roots, j) == pytest.approx(2.5)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        seq = rng.choice([-1, 1], 7)
        at_roots = gf_at_roots(seq)
        eps = roots_of_unity(7)
        for j in range(7):
            direct = gf_eval(seq, -eps[j])
            assert abs(interpolate_negated_root(at_roots, j) - direct) < 1e-9

    def test_small_case(self):
        seq = [1, 1, -1]
        assert interpolate_negated_root(gf_at_roots(seq), 0) == pytest.approx(
            gf_eval(seq, -1)
        )
        assert gf_eval(seq, -1) == -1

    def test_random_real_sequences(self):
        rng = np.random.default_rng(7)
        for n in (9, 33, 199):
            seq = rng.normal(size=n)
            at_roots = gf_at_roots(seq)
            eps = roots_of_unity(n)
            for j in rng.integers(0, n, 5):
                direct = gf_eval(seq, -eps[j])
                assert abs(interpolate_negated_root(at_roots, int(j)) - direct) < 1e-8

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            interpolate_negated_root(np.ones(4, dtype=complex), 0)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"one-dimensional sequence, got shape \(3, 5\)"):
            interpolate_negated_root(np.ones((3, 5)), 0)

    def test_non_integer_root_index_rejected(self):
        at_roots = gf_at_roots(legendre_sequence(7))
        for j in (1.5, np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="root indices must be integers, got dtype float"):
                interpolate_negated_root(at_roots, j)

    @pytest.mark.parametrize("n", [3, 9, 33, 199])
    def test_array_of_j_matches_scalar_j(self, n):
        at_roots = gf_at_roots(np.random.default_rng(n).normal(size=n))
        j = np.concatenate([np.arange(n), [-1, n, 2 * n + 3]])
        batch = interpolate_negated_root(at_roots, j)
        scalar = [interpolate_negated_root(at_roots, int(i)) for i in j]
        assert batch.shape == j.shape
        assert np.array_equal(batch, scalar)
        assert np.array_equal(interpolate_negated_root(at_roots, j.reshape(1, -1)), [scalar])


class TestCrossEnergySpectral:
    def test_hand_example(self):
        assert energy_matrix_spectral([[1, 1, -1], [1, -1, 1]])[0, 1] == pytest.approx(7.0)

    def test_matches_direct(self):
        rng = np.random.default_rng(8)
        for n in range(3, 100, 2):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            direct = cross_energy(a, b)
            assert abs(energy_matrix_spectral([a, b])[0, 1] - direct) <= 1e-9 * direct

    def test_self_pair_includes_mainlobe(self):
        rng = np.random.default_rng(9)
        a = rng.choice([-1, 1], 11)
        expected = cross_energy(a, a)  # the auto sidelobe energy plus the 11^2 mainlobe
        assert energy_matrix_spectral([a, a])[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_splits_into_root_and_negated_root_sums(self):
        # the 2n-bin sum is S_plus (even bins) plus S_minus (odd bins)
        rng = np.random.default_rng(11)
        for n in (3, 9, 101):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            halves = (s_plus(a, b) + power_sum_at_negated_roots(a, b)) / (2 * n)
            assert energy_matrix_spectral([a, b])[0, 1] == pytest.approx(halves, rel=1e-12)

    def test_large_n_matches_direct(self):
        n = 4999
        ell = legendre_sequence(n)
        a, b = rotate_left(ell, 500), rotate_left(ell, 1751)
        direct = cross_energy(a, b)
        assert abs(energy_matrix_spectral([a, b])[0, 1] - direct) <= 1e-9 * direct


class TestEnergyMatrixSpectral:
    def test_matches_direct_energies(self):
        rng = np.random.default_rng(12)
        for n in (1, 3, 9, 101):
            rows = rng.choice([-1, 1], (5, n))
            energies = energy_matrix_spectral(rows)
            assert energies.shape == (5, 5)
            assert np.array_equal(energies, energies.T)
            for p in range(5):
                for q in range(5):
                    direct = cross_energy(rows[p], rows[q])
                    assert abs(energies[p, q] - direct) <= 1e-9 * direct

    def test_even_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            energy_matrix_spectral(np.ones((2, 4)))

    def test_rows_must_be_two_dimensional(self):
        for rows in ([1, 1, -1], np.ones((1, 2, 3))):
            with pytest.raises(ValueError, match=r"expected an \(M, n\) array"):
                energy_matrix_spectral(rows)

    def test_complex_rows_rejected(self):
        # the transform used to refuse them with numpy's internal ufunc TypeError
        for rows in (np.ones((2, 3), dtype=complex), [[1, 1j, -1]]):
            with pytest.raises(ValueError, match="sequences must be real, got dtype complex128"):
                energy_matrix_spectral(rows)


class TestAutoSidelobeEnergySpectral:
    # the diagonal minus the n^2 mainlobe is the auto sidelobe energy
    def test_hand_example(self):
        assert energy_matrix_spectral([[1, 1, -1]])[0, 0] - 3**2 == pytest.approx(2.0)

    def test_matches_direct_for_rotated_legendre(self):
        rng = np.random.default_rng(10)
        for n in primes_in_range(3, 199):
            t = int(rng.integers(0, n))
            seq = rotate_left(legendre_sequence(n), t)
            direct = cross_energy(seq, seq) - n**2
            spectral = energy_matrix_spectral([seq])[0, 0] - n**2
            assert abs(spectral - direct) <= 1e-9 * max(direct, 1.0)

    def test_quarter_rotation_near_sixth(self):
        # the merit-factor-6 rotation: sidelobe energy close to n^2/6,
        # identical through both evaluation paths
        n = 1009
        seq = rotate_left(legendre_sequence(n), 252)  # 252 = round(n / 4)
        spectral = energy_matrix_spectral([seq])[0, 0] - n**2
        direct = cross_energy(seq, seq) - n**2
        assert abs(spectral - direct) <= 1e-9 * direct
        assert abs(spectral / n**2 - 1 / 6) <= 0.03 * (1 / 6)


def quad_for_pattern(rng, n, pattern):
    p, q, r, s = (int(v) for v in rng.choice(n, size=4, replace=False))
    quad = {
        "all_equal": (p, p, p, p),
        "three_equal": (p, p, p, q),
        "two_pairs": (p, p, q, q),
        "one_pair": (p, p, q, r),
        "all_distinct": (p, q, r, s),
    }[pattern]
    out = list(quad)
    rng.shuffle(out)
    return tuple(out)


PATTERNS = ["all_equal", "three_equal", "two_pairs", "one_pair", "all_distinct"]


class TestKernelSums:
    def test_all_equal_small_case(self):
        want = (81 / 3 + 2 * 9 / 3) / 16  # = 2.0625
        assert kernel_sums_closed_form([(0, 0, 0, 0)], 3)[0] == pytest.approx(want)
        assert kernel_sums_direct([(0, 0, 0, 0)], 3)[0] == pytest.approx(want)

    def test_all_distinct_is_zero(self):
        assert kernel_sums_closed_form([(0, 1, 2, 3)], 7)[0] == 0
        assert abs(kernel_sums_direct([(0, 1, 2, 3)], 7)[0]) < 1e-10

    def test_two_pairs_example(self):
        eps = roots_of_unity(5)
        want = -0.5 * 25 / (eps[0] - eps[1]) ** 2
        assert kernel_sums_closed_form([(0, 0, 1, 1)], 5)[0] == pytest.approx(want)
        assert kernel_sums_direct([(0, 0, 1, 1)], 5)[0] == pytest.approx(want)

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("n", [5, 7, 11, 25, 101])
    def test_twins_agree_per_pattern(self, pattern, n):
        rng = np.random.default_rng([PATTERNS.index(pattern), n])
        quads = np.array([quad_for_pattern(rng, n, pattern) for _ in range(20)])
        d = kernel_sums_direct(quads, n)
        c = kernel_sums_closed_form(quads, n)
        bad = np.abs(c - d) > 1e-8 * (1 + np.abs(d))
        assert not bad.any(), (pattern, n, quads[bad])

    @pytest.mark.parametrize("n", [5, 7])
    def test_exhaustive_dispatch(self, n):
        # every quadruple of range(n)^4: each ordering reads the same
        # (p, lo, hi) roles, so gets the same value bit for bit, and every
        # value agrees with its direct twin at the kernel-twin tolerance
        quads = np.array(list(itertools.product(range(n), repeat=4)))
        closed = kernel_sums_closed_form(quads, n)
        for order in itertools.permutations(range(4)):
            assert kernel_sums_closed_form(quads[:, order], n).tobytes() == closed.tobytes(), order
        direct = kernel_sums_direct(quads, n)
        bad = np.abs(closed - direct) > 1e-8 * (1 + np.abs(direct))
        assert not bad.any(), quads[bad]

    def test_batch_matches_scalar(self):
        # a batch gives each quadruple the value it gets on its own
        rng = np.random.default_rng(11)
        n = 13
        quads = rng.integers(0, n, size=(50, 4))
        for fn in (kernel_sums_direct, kernel_sums_closed_form):
            batch = fn(quads, n)
            assert batch.tolist() == [fn(quad[None], n)[0] for quad in quads]

    def test_indices_reduced_mod_n(self):
        raw, reduced = [(7, -1, 12, 5)], [(2, 4, 2, 0)]
        for fn in (kernel_sums_direct, kernel_sums_closed_form):
            assert fn(raw, 5)[0] == fn(reduced, 5)[0]

    def test_even_length_rejected(self):
        for fn in (kernel_sums_direct, kernel_sums_closed_form):
            for n in (4, 6):
                with pytest.raises(ValueError):
                    fn(np.zeros((1, 4), dtype=int), n)

    @pytest.mark.parametrize("fn", [kernel_sums_direct, kernel_sums_closed_form])
    def test_inputs_checked(self, fn):
        # a float length, as in is_prime, and any shape but (K, 4)
        with pytest.raises(TypeError):
            fn([(0, 0, 1, 1)], 7.0)
        for quads in ([0, 1, 2, 3], np.zeros((2, 3), int), np.zeros((1, 4, 1), int), []):
            with pytest.raises(ValueError, match=r"\(K, 4\) array of index quadruples, got shape"):
                fn(quads, 7)

    @pytest.mark.parametrize("fn", [kernel_sums_direct, kernel_sums_closed_form])
    def test_non_integer_indices_rejected(self, fn):
        # an int64 cast would read (0.5, 0, 1, 1) as (0, 0, 1, 1)
        for quads in ([(0.5, 0, 1, 1)], np.zeros((2, 4)), np.ones((1, 4), dtype=bool)):
            with pytest.raises(ValueError, match="index quadruples must be integers, got dtype"):
                fn(quads, 7)
        assert fn(np.array([(0, 0, 1, 1)], dtype=np.int32), 7) == fn([(0, 0, 1, 1)], 7)


class TestPatternDecomposition:
    def test_reconstruction_matches_direct(self):
        rng = np.random.default_rng(12)
        for n in primes_in_range(3, 31):
            base = legendre_sequence(n)
            for _ in range(3):
                a = rotate_left(base, int(rng.integers(0, n)))
                b = rotate_left(base, int(rng.integers(0, n)))
                direct = power_sum_at_negated_roots(a, b)
                recon = pattern_decomposition(a, b).negated_power_sum
                assert abs(recon.real - direct) <= 1e-6 * direct
                assert abs(recon.imag) <= 1e-6 * direct

    def test_reconstruction_random_antipodal(self):
        rng = np.random.default_rng(13)
        for n in (5, 9, 15, 21):
            a = rng.choice([-1, 1], n)
            b = rng.choice([-1, 1], n)
            direct = power_sum_at_negated_roots(a, b)
            recon = pattern_decomposition(a, b).negated_power_sum
            assert abs(recon - direct) <= 1e-8 * direct

    def test_all_equal_term_factors_through_quartic_sum(self):
        # for two rotations of one base sequence the all-equal term is the
        # closed prefactor times the quartic circle sum
        n = 17
        ell = legendre_sequence(n)
        a, b = rotate_left(ell, 3), rotate_left(ell, 9)
        parts = pattern_decomposition(a, b)
        prefactor = (n**4 / 3 + 2 * n**2 / 3) / 16
        assert parts.all_equal == pytest.approx(
            prefactor * s_plus(ell, ell), rel=1e-12
        )

    def test_no_size_gate(self):
        # O(n log n) time and O(n) memory, so lengths past the old n <= 61
        # gate run, up to n = 10007, where one n x n complex array would
        # take 1.6 GB; 63 is odd but not prime
        for n in (63, 67, 199, 10007):
            a = np.where(np.arange(n) % 3 == 0, 1, -1) if n == 63 else legendre_sequence(n)
            b = np.roll(a, n // 5)
            direct = power_sum_at_negated_roots(a, b)
            recon = pattern_decomposition(a, b).negated_power_sum
            assert abs(recon.real - direct) <= 1e-9 * direct, n
            assert abs(recon.imag) <= 1e-9 * direct, n

    def test_memory_is_linear(self):
        # no n x n array: one at n = 1009 would take 16 MB
        base = legendre_sequence(1009)
        a, b = rotate_left(base, 3), rotate_left(base, 500)
        tracemalloc.start()
        try:
            pattern_decomposition(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            pattern_decomposition([1, -1], [1, -1])


class TestInverseDifferences:
    @pytest.mark.parametrize("n", [3, 5, 7, 13, 61, 101, 1009])
    def test_transform_is_the_integer_sawtooth(self, n):
        # sum_d eps_k^d / (eps_d - 1) over d != 0 is (n - 1)/2 - ((k - 1) mod n)
        k = np.arange(n)
        got = gf_at_roots(_inverse_differences(roots_of_unity(n)))
        assert got.shape == (n,)
        assert np.abs(got - ((n - 1) / 2 - (k - 1) % n)).max() <= 1e-10


def _one_pair_triple_sum_brute(eps, qa, qb):
    """The one-pair triple sum by its literal O(n^3) definition: every
    distinct (p, q, r) with kernel -1 / ((eps_q - eps_p)(eps_r - eps_p)).
    Returns the sum and its rounding scale: the same sum over the
    magnitudes of every factor."""
    n = len(eps)
    qac, qbc = qa.conj(), qb.conj()
    aa, bb = (qa * qac).real, (qb * qbc).real
    idx = np.arange(n)
    distinct = (
        (idx[:, None, None] != idx[None, :, None])
        & (idx[:, None, None] != idx[None, None, :])
        & (idx[None, :, None] != idx[None, None, :])
    )
    diff = eps[None, :] - eps[:, None]  # diff[p, q] = eps_q - eps_p
    safe = np.where(diff == 0, 1.0, diff)
    kernel = np.where(distinct, -1.0 / (safe[:, :, None] * safe[:, None, :]), 0.0)
    terms = (
        (eps * aa, eps * qb, qbc),
        (eps * aa, qbc, eps * qb),
        (eps**2 * qa * qb, qac, qbc),
        (eps**2 * qa * qb, qbc, qac),
        (eps * qa * qbc, qac, eps * qb),
        (eps * qa * qbc, eps * qb, qac),
        (qac * qbc, eps * qa, eps * qb),
        (qac * qbc, eps * qb, eps * qa),
        (eps * bb, eps * qa, qac),
        (eps * bb, qac, eps * qa),
        (eps * qac * qb, eps * qa, qbc),
        (eps * qac * qb, qbc, eps * qa),
    )
    bracket = np.zeros((n, n, n), dtype=np.complex128)
    scale = np.zeros((n, n, n))
    for x, y, z in terms:
        bracket += x[:, None, None] * y[None, :, None] * z[None, None, :]
        scale += np.abs(x)[:, None, None] * np.abs(y)[None, :, None] * np.abs(z)[None, None, :]
    return complex(np.sum(kernel * bracket)), float(np.sum(np.abs(kernel) * scale))


def one_pair_triple_sum(qa, qb):
    # the one-pair pattern sum is n^2 / 8 times the triple sum: the
    # kernel's constant n^2 / 4, halved for the two orders of (q, r)
    return _pattern_sums(qa, qb).one_pair / (len(qa) ** 2 / 8)


class TestOnePairTripleSum:
    @pytest.mark.parametrize("n", primes_in_range(3, 31))
    def test_factored_matches_brute_force_on_legendre_rotations(self, n):
        rng = np.random.default_rng(100 + n)
        eps = np.asarray(roots_of_unity(n))
        base = legendre_sequence(n)
        for _ in range(3):
            ta, tb = rng.integers(0, n, size=2)
            qa = gf_at_roots(rotate_left(base, int(ta)))
            qb = gf_at_roots(rotate_left(base, int(tb)))
            want, scale = _one_pair_triple_sum_brute(eps, qa, qb)
            got = one_pair_triple_sum(qa, qb)
            # ta == tb can cancel the sum to rounding noise
            assert abs(got - want) <= 1e-13 * scale, (n, ta, tb)

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 21, 31])
    def test_factored_matches_brute_force_on_random_values(self, n):
        rng = np.random.default_rng(200 + n)
        eps = np.asarray(roots_of_unity(n))
        for _ in range(3):
            qa = rng.normal(size=n) + 1j * rng.normal(size=n)
            qb = rng.normal(size=n) + 1j * rng.normal(size=n)
            want, scale = _one_pair_triple_sum_brute(eps, qa, qb)
            got = one_pair_triple_sum(qa, qb)
            assert abs(got - want) <= 1e-13 * scale, n
            assert abs(got - want) <= 1e-12 * abs(want), n
