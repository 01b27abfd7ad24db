import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import islkit.asymptotic
import islkit.cli as cli
import islkit.correlation
import islkit.selfcheck
import islkit.sequences
import islkit.spectral
from islkit.correlation import cross_energy
from islkit.sequences import legendre_sequence, rotate_left


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


class TestGen:
    def test_identity_rotation(self, capsys):
        code, lines, _ = run(capsys, "gen", "--n", "7", "--fraction", "0")
        assert code == 0
        assert lines == ["1 1 1 -1 1 -1 -1"]

    def test_rotated_by_two(self, capsys):
        code, lines, _ = run(capsys, "gen", "--n", "7", "--fraction", "2/7")
        assert code == 0
        expected = rotate_left(legendre_sequence(7), 2)
        assert lines[0] == " ".join(str(int(v)) for v in expected)

    def test_nonprime_exits_one(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "6", "--fraction", "0")
        assert code == 1
        assert "odd prime" in err

    def test_full_turn_is_identity(self, capsys):
        _, identity, _ = run(capsys, "gen", "--n", "13", "--fraction", "0")
        code, lines, _ = run(capsys, "gen", "--n", "13", "--fraction", "1")
        assert code == 0
        assert lines == identity

    @pytest.mark.parametrize("n", ["2400001", "1000000007"])
    def test_length_bound_exits_one_before_building(self, capsys, n):
        # both are primes above MAX_EXACT_N; the second would need ~8 GB
        code, lines, err = run(capsys, "gen", "--n", n)
        assert code == 1
        assert lines == []
        assert f"exceeds {cli.MAX_EXACT_N}" in err
        assert "Traceback" not in err


class TestIsl:
    def test_header_and_single_sequence(self, capsys):
        code, lines, _ = run(capsys, "isl", "--n", "101", "--fractions", "0.25")
        assert code == 0
        assert lines[0] == "N,M,total,normalized,auto_part,cross_part"
        n, m, total, normalized, auto_part, cross_part = lines[1].split(",")
        assert (n, m) == ("101", "1")
        assert float(cross_part) == 0.0
        assert abs(float(normalized) - 1 / 6) < 0.2 * (1 / 6)

    def test_coincident_pair_relation(self, capsys):
        code, lines, _ = run(capsys, "isl", "--n", "7", "--fractions", "0", "0")
        assert code == 0
        _, _, total, _, auto_part, cross_part = lines[1].split(",")
        seq = legendre_sequence(7)
        auto_each = cross_energy(seq, seq) - 7**2
        assert float(auto_part) == 2 * auto_each
        assert float(cross_part) == 2 * (auto_each + 49)
        assert float(total) == float(auto_part) + float(cross_part)

    def test_rational_fraction_tokens(self, capsys):
        code_a, lines_a, _ = run(capsys, "isl", "--n", "13", "--fractions", "1/4,1/2")
        code_b, lines_b, _ = run(capsys, "isl", "--n", "13", "--fractions", "0.25", "0.5")
        assert code_a == code_b == 0
        assert lines_a == lines_b

    def test_full_turn_prints_what_zero_prints(self, capsys):
        _, zero, _ = run(capsys, "isl", "--n", "101", "--fractions", "0", "0.3")
        code, one, _ = run(capsys, "isl", "--n", "101", "--fractions", "1", "0.3")
        assert code == 0
        assert one == zero

    def test_spectral_crosscheck_mismatch_exits_two(self, capsys, monkeypatch):
        energies = islkit.spectral.energy_matrix_spectral
        for bump, name in (((0, 0), "auto[0]"), ((1, 2), "cross[1,2]"), ((2, 1), "cross[1,2]")):
            def corrupted(rows, bump=bump):
                out = energies(rows)
                out[bump] += 1.0
                return out

            monkeypatch.setattr(islkit.spectral, "energy_matrix_spectral", corrupted)
            code, _, err = run(capsys, "isl", "--n", "7", "--fractions", "0", "0.5", "0.25")
            assert code == 2
            assert "cross-check" in err and name in err
        # a NaN is the worst error, not one that compares as small
        monkeypatch.setattr(islkit.spectral, "energy_matrix_spectral",
                            lambda rows: energies(rows) * np.nan)
        code, lines, err = run(capsys, "isl", "--n", "101", "--fractions", "0.1", "0.3")
        assert code == 2
        assert lines == []
        assert "cross-check failed for auto[0]" in err and "rel_err=nan" in err

    @pytest.mark.parametrize("factor", [2.0, np.nan])
    def test_power_spectrum_corruption_exits_two(self, capsys, monkeypatch, factor):
        # the spectral path reads |Q|^2 from this primitive and the exact
        # engine makes its own round trip, so the cross-check between them
        # catches a scaled or a NaN power spectrum
        true_fn = islkit.spectral.power_spectrum
        monkeypatch.setattr(islkit.spectral, "power_spectrum",
                            lambda rows, length: true_fn(rows, length) * factor)
        code, lines, err = run(capsys, "isl", "--n", "101", "--fractions", "0.1", "0.6")
        assert code == 2
        assert lines == []
        assert "spectral cross-check failed" in err

    def test_library_value_error_names_its_origin(self, capsys, monkeypatch):
        # a check the CLI does not make itself: isl_report refuses the length
        monkeypatch.setattr(islkit.correlation, "MAX_EXACT_N", 5)
        code, lines, err = run(capsys, "isl", "--n", "7", "--fractions", "0")
        assert code == 1
        assert lines == []
        assert "error in isl_report: n=7 exceeds 5" in err
        assert "Traceback" not in err

    def test_past_the_old_length_cap_needs_no_flag(self, capsys):
        # the first prime above 10^6: one sequence is far inside the m*n bound
        code, lines, _ = run(capsys, "isl", "--n", "1000003", "--fractions", "0")
        assert code == 0
        assert lines[1].startswith("1000003,1,")

    def test_int64_bound_exits_one_before_building(self, capsys):
        # 2400001 is the first prime above MAX_EXACT_N; the check runs
        # before any length-n array exists, so even n ~ 1e9 exits at once
        for n in ("2400001", "1000000007"):
            code, lines, err = run(capsys, "isl", "--n", n, "--fractions", "0")
            assert code == 1
            assert lines == []
            assert "overflow int64" in err

    def test_set_size_bound_exits_one_before_building(self, capsys):
        # 1000 rows at n = 999983 would stream for minutes
        start = time.perf_counter()
        code, lines, err = run(capsys, "isl", "--n", "999983",
                               "--fractions", *["0.25"] * cli.M_CAP)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert f"more than the bound {cli.MAX_EXACT_WORK}" in err
        assert "Traceback" not in err

    def test_set_size_bound_admits_its_extremes(self):
        # one sequence at the int64 bound, M_CAP rows on the cross-checked
        # path and 134 rows at n = 999983 fit
        cli._check_exact_work(1, 2399993, 2399993)
        cli._check_exact_work(cli.M_CAP, cli.SPECTRAL_CHECK_MAX_N, cli.SPECTRAL_CHECK_MAX_N)
        cli._check_exact_work(134, 999983, 999983)

    def test_large_n_prints_exact_integers(self, capsys):
        code, lines, _ = run(capsys, "isl", "--n", "300007",
                             "--fractions", "0.1", "0.3", "0.55", "0.9")
        assert code == 0
        _, _, total, _, auto_part, cross_part = lines[1].split(",")
        assert total.isdigit() and auto_part.isdigit() and cross_part.isdigit()
        assert int(total) > 10**12
        assert int(total) == int(auto_part) + int(cross_part)

    def test_integer_fields_match_fmt_below_1e12(self, capsys):
        code, lines, _ = run(capsys, "isl", "--n", "19997", "--fractions", "0.1", "0.7")
        assert code == 0
        _, _, total, _, auto_part, cross_part = lines[1].split(",")
        for field in (total, auto_part, cross_part):
            assert field == cli.fmt(float(field))

    def test_rounding_residual_exits_two(self, capsys, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        code, lines, err = run(capsys, "isl", "--n", "211", "--fractions", "0", "0.5")
        assert code == 2
        assert lines == []
        assert "validation failure" in err and "from an integer" in err
        assert "Traceback" not in err

    def test_corrupted_fold_fails_the_streamed_twin(self, capsys, monkeypatch):
        # below the spectral bound the printed total is isl_report's, and
        # the column sum's total, summed by _sum_of_squares, must equal it
        true_fn = islkit.correlation._sum_of_squares
        monkeypatch.setattr(islkit.correlation, "_sum_of_squares",
                            lambda values, bound: true_fn(values, bound) + 1)
        code, lines, err = run(capsys, "isl", "--n", "7", "--fractions", "0", "0.5", "0.25")
        assert code == 2
        assert lines == []
        assert err == ("validation failure: FFT column sum of n=7 gives the total 334, "
                       "its rows 332\n")

    def test_one_engine_pass_and_one_twin_per_set(self, capsys, monkeypatch):
        # below the spectral bound isl sends its M rows through the engine
        # once, as one-row sets for isl_report, and the twin's two rows
        true_fn = islkit.correlation._column_block
        rows = []

        def counted(block):
            rows.append(sum(1 + two for _, _, two in block))
            return true_fn(block)

        monkeypatch.setattr(islkit.correlation, "_column_block", counted)
        code, lines, _ = run(capsys, "isl", "--n", "101", "--fractions", "0.1", "0.35", "0.8")
        assert (code, len(lines)) == (0, 2)
        assert sum(rows) == 3 + 2

    @pytest.mark.parametrize("fault,n", [(fault, n) for fault in ("rows", "twin", "fold")
                                         for n in ("211", "1009")]
                             + [("twin", "101"), ("fold", "101")])
    def test_isl_total_has_a_column_sum_twin_at_every_n(self, capsys, monkeypatch, n, fault):
        # the printed total (one-row sets: isl_report's at n <= 199, where
        # the spectral cross-check sees a row fault first, isl_totals'
        # above) is checked against the set's fold-checked column sum (one
        # M-row set): a fault in a row, or in the twin where the fold cannot
        # see it (+1 at lag 5, -1 at lag n - 5), is a mismatch; a fold break
        # names its lag
        argv = ["isl", "--n", n, "--fractions", "0.1", "0.35", "0.8"]
        code, lines, _ = run(capsys, *argv)
        assert code == 0
        total = lines[1].split(",")[2]
        true_fn = islkit.correlation._column_sums

        def planted(sets):
            for base, m, c in true_fn(sets):
                if (m == 1) == (fault == "rows"):
                    c[5] += 1 if fault != "fold" else 2
                    if fault == "twin":
                        c[-5] -= 1
                yield base, m, c

        monkeypatch.setattr(islkit.correlation, "_column_sums", planted)
        code, lines, err = run(capsys, *argv)
        assert (code, lines) == (2, [])
        if fault == "fold":
            assert err == (f"validation failure: FFT column sum of n={n} breaks the periodic "
                           "fold c(k) + c(n - k) = M P(k) at lag 5\n")
        else:
            twin, rows = re.fullmatch(f"validation failure: FFT column sum of n={n} gives the "
                                      r"total (\d+), its rows (\d+)\n", err).groups()
            assert ((twin == total), (rows == total)) == ((fault == "rows"), (fault == "twin"))

    @pytest.mark.parametrize("argv", [
        ["isl", "--n", "211", "--fractions", "0.1", "0.6", "0.6"],
        ["sweep", "--fractions", "0.1", "0.6", "--n-min", "3", "--n-max", "211"],
        ["optimize", "--m", "3", "--exact-check", "101"],
    ])
    def test_streamed_paths_never_build_the_set(self, capsys, monkeypatch, argv):
        # isl above n = 199, sweep and optimize --exact-check read their
        # rows from one base, set by set: no (M, n) int64 array
        def refuse(self):
            raise AssertionError("RotationSet.sequences() called")

        monkeypatch.setattr(islkit.sequences.RotationSet, "sequences", refuse)
        code, lines, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(lines) >= 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--fractions", "0", "--n-min", "211", "--n-max", "211"],
        ["optimize", "--m", "1", "--exact-check", "211"],
    ])
    def test_rounding_residual_exits_two_on_every_exact_path(self, capsys, monkeypatch, argv):
        # one rotation is one row of the one engine on every command
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        expected = run(capsys, "isl", "--n", "211", "--fractions", "0")
        assert expected[0] == 2
        assert expected[2] == ("validation failure: FFT column sum of n=211 lies 0.3 from an "
                               "integer; the limit is 0.25\n")
        assert run(capsys, *argv) == expected


    @pytest.mark.parametrize("argv", [
        # primes 2003 and 2011 share one block of the column-sum engine
        ["sweep", "--fractions", "0", "0.25", "0.5", "--n-min", "2003", "--n-max", "2011"],
        ["optimize", "--m", "3", "--exact-check", "2011"],
        ["sweep", "--fractions", "0.25", "0.75", "--n-min", "2003", "--n-max", "2011"],
        ["optimize", "--m", "2", "--exact-check", "2011"],
        # one rotation: one row per prime, two primes in one block
        ["sweep", "--fractions", "0.3", "--n-min", "2003", "--n-max", "2011"],
        ["optimize", "--m", "1", "--exact-check", "2011"],
    ])
    @pytest.mark.parametrize("fault, message", [
        ("residual", "FFT column sum of n=2011 lies 0.3 from an integer; the limit is 0.25"),
        ("fold", "FFT column sum of n=2011 breaks the periodic fold "
                 "c(k) + c(n - k) = M P(k) at lag 5"),
    ])
    def test_column_sum_fault_exits_two_naming_the_prime(self, capsys, monkeypatch, argv,
                                                         fault, message):
        # sweep and optimize --exact-check take each total from one column
        # sum, whatever M; a fault at n = 2011 alone stops the command
        if fault == "residual":
            irfft = np.fft.irfft

            def planted(spectrum, length):
                out = irfft(spectrum, length)
                out[-1] += 0.3  # the block's last set: n = 2011
                return out

            monkeypatch.setattr(np.fft, "irfft", planted)
        else:
            true_fn = islkit.correlation._column_sums

            def planted(sets):
                for base, m, c in true_fn(sets):
                    if len(base) == 2011:
                        c[5] += 2
                    yield base, m, c

            monkeypatch.setattr(islkit.correlation, "_column_sums", planted)
        code, lines, err = run(capsys, *argv)
        assert (code, lines, err) == (2, [], f"validation failure: {message}\n")


class TestAsym:
    def test_pair_example(self, capsys):
        code, lines, _ = run(capsys, "asym", "--fractions", "0", "0.5")
        assert code == 0
        assert lines[0] == "M,total,auto_part,cross_part"
        m, total, auto_part, cross_part = lines[1].split(",")
        assert m == "2"
        assert float(total) == pytest.approx(8 / 3)

    def test_corrupted_kernel_moves_the_limit(self, capsys, monkeypatch):
        # the kernel validate's dilog-series check guards (a row of
        # test_corrupted_closed_form_fails_only_its_check) is the one asym prints
        _, before, _ = run(capsys, "asym", "--fractions", "0.3")
        true_fn = islkit.asymptotic._kernel
        monkeypatch.setattr(islkit.asymptotic, "_kernel", lambda y: true_fn(y) * (1 + 1e-6))
        code, after, _ = run(capsys, "asym", "--fractions", "0.3")
        assert code == 0
        assert after[0] == before[0] and after[1] != before[1]


class TestSurface:
    @pytest.mark.parametrize("r", ["1", "1001", "100000000"])
    def test_resolution_out_of_range_exits_one(self, capsys, r):
        code, lines, err = run(capsys, "surface", "--resolution", r)
        assert code == 1
        assert lines == []
        assert f"--resolution must lie in [2, {cli.SURFACE_RESOLUTION_CAP}], got {r}" in err

    def test_grid_contents(self, capsys):
        code, lines, _ = run(capsys, "surface", "--resolution", "2")
        assert code == 0
        assert lines[0] == "f1,f2,asym_isl"
        rows = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
        assert len(rows) == 9
        assert rows[("0.5", "0")] == pytest.approx(8 / 3)

    @pytest.mark.parametrize("r", [2, 8, 136])
    def test_rows_match_per_row_formatting(self, capsys, r):
        # each axis value is formatted once; every row must read as the
        # three cells of the (f1, f2) grid, f2 fastest, formatted one by one
        axis = np.arange(r + 1) / r
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        rows = np.column_stack([grid, islkit.asymptotic.isl_limit(grid).total])
        code, lines, _ = run(capsys, "surface", "--resolution", str(r))
        assert code == 0
        assert lines == ["f1,f2,asym_isl"] + [",".join(map(cli.fmt, row)) for row in rows.tolist()]

    def test_symmetric_across_diagonal(self, capsys):
        _, lines, _ = run(capsys, "surface", "--resolution", "8")
        rows = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
        for (f1, f2), v in rows.items():
            assert rows[(f2, f1)] == pytest.approx(v)

    def test_minimum_matches_optimizer(self, capsys):
        _, lines, _ = run(capsys, "surface", "--resolution", "16")
        best = min(lines[1:], key=lambda l: float(l.split(",")[2]))
        f1, f2, v = best.split(",")
        assert sorted([float(f1), float(f2)]) == [0.125, 0.375]
        assert float(v) == pytest.approx(13 / 6)


class TestSweep:
    def test_fixed_fractions(self, capsys):
        code, lines, _ = run(
            capsys, "sweep", "--fractions", "0.25", "--n-min", "7", "--n-max", "30"
        )
        assert code == 0
        assert lines[0] == "N,exact_normalized,asymptotic,relative_error"
        ns = [int(l.split(",")[0]) for l in lines[1:]]
        assert ns == [7, 11, 13, 17, 19, 23, 29]
        asym_col = {l.split(",")[2] for l in lines[1:]}
        assert len(asym_col) == 1  # constant across N
        for line in lines[1:]:
            _, exact, asym, rel = line.split(",")
            assert float(rel) == pytest.approx(
                abs(float(exact) - float(asym)) / float(asym), rel=1e-9
            )

    def test_full_turn_sweeps_like_zero(self, capsys):
        _, zero, _ = run(capsys, "sweep", "--fractions", "0", "--n-min", "7", "--n-max", "60")
        code, one, _ = run(capsys, "sweep", "--fractions", "1", "--n-min", "7", "--n-max", "60")
        assert code == 0
        assert one == zero

    @pytest.mark.parametrize("token", ["1.5", "-0.25"])
    def test_fraction_outside_unit_interval_exits_one(self, capsys, token):
        code, lines, err = run(
            capsys, "sweep", "--fractions", token, "--n-min", "7", "--n-max", "30"
        )
        assert code == 1
        assert lines == []
        assert "must lie in [0, 1]" in err

    @pytest.mark.parametrize("m", ["0", "-3", "2"])
    def test_m_must_match_the_fraction_count(self, capsys, m):
        # --m 0 once passed unchecked because 0 is falsy
        code, lines, err = run(capsys, "sweep", "--m", m, "--fractions", "0.25",
                               "--n-min", "7", "--n-max", "30")
        assert code == 1
        assert lines == []
        assert f"--m {m} contradicts 1 fractions" in err

    def test_empty_prime_range_exits_one(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--fractions", "0.25", "--n-min", "24", "--n-max", "28"
        )
        assert code == 1
        assert "no odd primes" in err

    @pytest.mark.parametrize("argv", [
        ["--optimal", "--m", "2", "--fractions", "0.1", "0.9"],  # once dropped the fractions
        [],
    ], ids=["both", "neither"])
    def test_needs_exactly_one_of_fractions_and_optimal(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *argv, "--n-min", "23", "--n-max", "31"])
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == ""
        assert "--fractions" in out.err and "--optimal" in out.err
        assert "Traceback" not in out.err

    def test_optimal_requires_m(self, capsys):
        code, _, err = run(capsys, "sweep", "--optimal", "--n-min", "7", "--n-max", "20")
        assert code == 1

    def test_optimal_single(self, capsys):
        code, lines, _ = run(
            capsys, "sweep", "--optimal", "--m", "1", "--n-min", "7", "--n-max", "24"
        )
        assert code == 0
        asym = float(lines[1].split(",")[2])
        assert asym == pytest.approx(1 / 6, abs=1e-4)

    def test_optimal_four_set_error_shrinks(self, capsys):
        code, lines, _ = run(
            capsys, "sweep", "--optimal", "--m", "4", "--n-min", "23", "--n-max", "199"
        )
        assert code == 0
        rel_first = float(lines[1].split(",")[3])
        rel_last = float(lines[-1].split(",")[3])
        assert rel_last < rel_first

    def test_optimal_twelve_set(self, capsys):
        code, lines, _ = run(
            capsys, "sweep", "--optimal", "--m", "12", "--n-min", "23", "--n-max", "29"
        )
        assert code == 0
        assert float(lines[1].split(",")[2]) == pytest.approx(12 * 11 + 1 / 6, rel=1e-11)

    def test_n_max_bounded_before_enumerating_primes(self, capsys):
        # checked before primes_in_range, which would list ~3.8e10 primes
        start = time.perf_counter()
        code, lines, err = run(capsys, "sweep", "--fractions", "0.1",
                               "--n-min", "3", "--n-max", "1000000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert "overflow int64" in err

    def test_wide_range_refused_before_listing_primes(self, capsys):
        # n <= 2399993 passes the int64 bound; one isl per prime would take hours
        start = time.perf_counter()
        code, lines, err = run(capsys, "sweep", "--fractions", "0.1",
                               "--n-min", "3", "--n-max", "2399993")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert f"more than the bound {cli.MAX_EXACT_WORK}" in err
        assert "Traceback" not in err

    def test_thousand_rotations_to_2000_refused(self, capsys):
        fractions = [str(i / cli.M_CAP) for i in range(cli.M_CAP)]
        start = time.perf_counter()
        code, lines, err = run(capsys, "sweep", "--fractions", *fractions,
                               "--n-min", "3", "--n-max", "2000")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert f"more than the bound {cli.MAX_EXACT_WORK}" in err
        assert "Traceback" not in err

    def test_benchmark_shape_accepted(self, capsys):
        # 8 fractions over 23..499, as the sweep-small workload runs it
        fractions = ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8"]
        code, lines, _ = run(capsys, "sweep", "--fractions", *fractions,
                             "--n-min", "23", "--n-max", "499")
        assert code == 0
        assert len(lines) == 1 + 87  # header plus the primes 23..499

    @pytest.mark.parametrize("m", ["0", "-3", str(cli.M_CAP + 1)])
    def test_optimal_m_out_of_range_exits_one(self, capsys, m):
        code, _, err = run(
            capsys, "sweep", "--optimal", "--m", m, "--n-min", "7", "--n-max", "20"
        )
        assert code == 1
        assert "--m must lie in" in err


class TestOptimize:
    def test_single_rotation_line(self, capsys):
        code, lines, _ = run(capsys, "optimize", "--m", "1")
        assert code == 0
        assert lines[0] == "0.25  0.166667"

    def test_exact_check_appends(self, capsys):
        code, lines, _ = run(
            capsys, "optimize", "--m", "1", "--exact-check", "101"
        )
        assert code == 0
        assert lines[1].startswith("exact-check N=101")
        assert "normalized=" in lines[1]

    def test_exact_check_pair_within_band(self, capsys):
        code, lines, _ = run(capsys, "optimize", "--m", "2", "--exact-check", "499")
        assert code == 0
        rel = float(lines[1].split("rel_err=")[1])
        assert rel <= 0.15

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "optimize", "--m", "2")
        _, second, _ = run(capsys, "optimize", "--m", "2")
        assert first == second

    @pytest.mark.parametrize("m", range(1, 13))
    def test_closed_form_line(self, capsys, m):
        code, lines, _ = run(capsys, "optimize", "--m", str(m))
        assert code == 0
        fractions = " ".join(f"{(2 * p - 1) / (4 * m):.6g}" for p in range(1, m + 1))
        assert lines == [f"{fractions}  {m * m - m + 1 / 6:.6f}"]

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_m_below_one_exits_one(self, capsys, m):
        code, lines, err = run(capsys, "optimize", "--m", m)
        assert code == 1
        assert lines == []
        assert f"--m must lie in [1, {cli.M_CAP}], got {m}" in err

    def test_m_at_cap(self, capsys):
        code, lines, _ = run(capsys, "optimize", "--m", str(cli.M_CAP))
        assert code == 0
        value = float(lines[0].split()[-1])
        assert value == pytest.approx(cli.M_CAP**2 - cli.M_CAP + 1 / 6, rel=1e-12)

    def test_m_512_prints_the_rounded_optimum(self, capsys):
        # M^2 - M + 1/6 = 261632.1666... rounds up at the sixth decimal; a
        # float sum of the 262144 pair terms printed 261632.166666
        code, lines, _ = run(capsys, "optimize", "--m", "512")
        assert code == 0
        assert lines[0].endswith("  261632.166667")

    def test_m_above_cap_exits_one(self, capsys):
        code, lines, err = run(capsys, "optimize", "--m", str(cli.M_CAP + 1))
        assert code == 1
        assert lines == []
        assert "--m must lie in" in err

    def test_exact_check_set_size_bound_exits_one(self, capsys):
        start = time.perf_counter()
        code, lines, err = run(capsys, "optimize", "--m", "1000", "--exact-check", "999983")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert f"more than the bound {cli.MAX_EXACT_WORK}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--m", "2"],
        ["sweep", "--optimal", "--m", "2", "--n-min", "7", "--n-max", "7"],
        ["isl", "--n", "7", "--fractions", "0.25"],
    ])
    @pytest.mark.parametrize("flag", ["--resolution", "--tol", "--allow-large"])
    def test_search_flags_removed(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, flag, "64"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExactWorkBound:
    # the largest set at the int64 edge and at n = 999983, and the longest
    # sweeps from n = 3 with one rotation and with M_CAP: (M, n_min, n_max)
    @pytest.mark.parametrize("admitted, refused", [
        ((55, 2399993, 2399993), (56, 2399993, 2399993)),
        ((140, 999983, 999983), (141, 999983, 999983)),
        ((1, 3, 27554), (1, 3, 27555)),
        ((1000, 3, 1056), (1000, 3, 1057)),
    ])
    def test_straddle(self, admitted, refused):
        cli._check_exact_work(*admitted)
        with pytest.raises(cli.UsageError, match=f"more than the bound {cli.MAX_EXACT_WORK}"):
            cli._check_exact_work(*refused)

    @pytest.mark.parametrize("argv", [
        ["gen", "--n"],
        ["isl", "--fractions", "0", "--n"],
        ["optimize", "--m", "2", "--exact-check"],
    ])
    def test_length_bound_runs_before_primality(self, capsys, argv):
        # 2^4423 - 1 is a 1332-digit Mersenne prime: Miller-Rabin on it
        # takes ~3 s, the O(1) length bound refuses it at once
        start = time.perf_counter()
        code, lines, err = run(capsys, *argv, str(2**4423 - 1))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert lines == []
        assert "overflow int64" in err


class TestValidate:
    def test_passes_quickly_at_small_max_n(self, capsys):
        code, lines, _ = run(capsys, "validate", "--max-n", "13")
        assert code == 0
        assert all(l.startswith("ok") for l in lines)
        names = {l.split()[1] for l in lines}
        assert "kernel-twin" in names and "dilog-series" in names

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_names_the_flag(self, capsys, seed):
        code, lines, err = run(capsys, "validate", "--max-n", "7", "--seed", seed)
        assert code == 1
        assert lines == []
        assert f"--seed must be a non-negative integer, got {seed}" in err
        assert "Traceback" not in err

    def test_corrupted_kernel_constant_is_named(self, capsys, monkeypatch):
        true_fn = islkit.spectral.kernel_sums_closed_form

        def corrupted(quads, n):
            return true_fn(quads, n) * 1.001

        monkeypatch.setattr(islkit.spectral, "kernel_sums_closed_form", corrupted)
        code, lines, err = run(capsys, "validate", "--max-n", "13")
        assert code == 2
        assert "kernel-twin" in err
        fail_lines = [l for l in lines if l.startswith("FAIL")]
        assert len(fail_lines) == 1 and "kernel-twin" in fail_lines[0]
        assert fail_lines[0].endswith(" worst=n=13 quad=(5, 5, 5, 5)")

    def test_shifted_dilog_is_named(self, capsys, monkeypatch):
        # an error of 1e-6 passed the 1e-4 tolerance the series once needed
        true_fn = islkit.selfcheck.re_dilog_on_circle
        monkeypatch.setattr(islkit.selfcheck, "re_dilog_on_circle",
                            lambda theta: true_fn(theta) + 1e-6)
        code, lines, err = run(capsys, "validate", "--max-n", "7")
        assert code == 2
        assert "dilog-series" in err
        fail_lines = [l for l in lines if l.startswith("FAIL")]
        assert len(fail_lines) == 1 and "dilog-series" in fail_lines[0]

    @pytest.mark.parametrize("module,name,check,factor", [
        (module, name, check, factor)
        for module, name, check in [
            (islkit.spectral, "energy_matrix_spectral", "spectral-vs-direct"),
            (islkit.spectral, "kernel_sums_closed_form", "kernel-twin"),
            (islkit.spectral, "legendre_gf_closed_form", "gauss-sum-closed-form"),
            (islkit.selfcheck, "periodic_autocorrelation_exact", "periodic-bound"),
            (islkit.selfcheck, "re_dilog_on_circle", "dilog-series"),
            (islkit.asymptotic, "_kernel", "dilog-series"),
            (islkit.spectral, "interpolate_negated_root", "lagrange-interpolation"),
            (islkit.spectral, "power_sum_at_negated_roots", "pattern-decomposition"),
        ]
        for factor in (1 + 1e-6, np.nan)
    ])
    def test_corrupted_closed_form_fails_only_its_check(self, capsys, monkeypatch,
                                                        module, name, check, factor):
        true_fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: true_fn(*args) * factor)
        code, lines, err = run(capsys, "validate", "--max-n", "13")
        assert code == 2
        assert check in err
        fail_lines = [l for l in lines if l.startswith("FAIL")]
        assert len(fail_lines) == 1 and check in fail_lines[0]
        if np.isnan(factor):
            assert "max_error=nan" in fail_lines[0]

    @pytest.mark.parametrize("kernel", ["_all_equal", "_three_equal", "_two_pairs", "_one_pair"])
    @pytest.mark.parametrize("factor", [1 + 1e-6, np.nan])
    def test_corrupted_pattern_kernel_fails_both_its_callers(self, capsys, monkeypatch,
                                                             kernel, factor):
        # one copy of each pattern kernel serves the closed-form kernel sums
        # and the S_minus decomposition, so kernel-twin guards both
        true_fn = getattr(islkit.spectral, kernel)
        monkeypatch.setattr(islkit.spectral, kernel, lambda *args: true_fn(*args) * factor)
        code, lines, err = run(capsys, "validate", "--max-n", "13")
        assert code == 2
        fail_lines = [l for l in lines if l.startswith("FAIL")]
        assert [l.split()[1] for l in fail_lines] == ["kernel-twin", "pattern-decomposition"]
        if np.isnan(factor):
            assert all("max_error=nan" in l for l in fail_lines)

    def test_planted_engine_fault_fails_periodic_bound(self, capsys, monkeypatch):
        # cyclic Legendre values are -1 (n = 3 mod 4), or 1 and -3 (n = 1
        # mod 4), so +2 on one lag reads at most 3 and passes; -2 on lag 2
        # at n = 13, a non-residue whose value is -3, reads -5
        true_engine = islkit.selfcheck._column_sums

        def planted(sets):
            for base, m, lags in true_engine(sets):
                if len(base) == 13:
                    lags[2] -= 2
                yield base, m, lags

        monkeypatch.setattr(islkit.selfcheck, "_column_sums", planted)
        code, lines, err = run(capsys, "validate", "--max-n", "13")
        assert code == 2
        assert "failed checks: periodic-bound" in err
        fail_lines = [l for l in lines if l.startswith("FAIL")]
        assert len(fail_lines) == 1 and fail_lines[0].split()[1] == "periodic-bound"
        assert "max_error=5.000e+00" in fail_lines[0]
        assert fail_lines[0].endswith(" worst=n=13 k=2")

    def test_same_seed_prints_the_same_bytes(self, capsys):
        first = run(capsys, "validate", "--max-n", "61", "--seed", "7")
        assert first[0] == 0
        assert run(capsys, "validate", "--max-n", "61", "--seed", "7") == first

    def test_nan_gauss_sum_fails_the_magnitude_check(self, monkeypatch):
        # gf_at_roots feeds both Gauss-sum checks; the magnitude result is read alone
        monkeypatch.setattr(islkit.spectral, "gf_at_roots",
                            lambda seq: np.full(len(seq), np.nan + 0j))
        result = islkit.selfcheck.prime_checks(13)[1]
        assert not result.passed
        assert np.isnan(result.max_error)
        assert result.worst_input == "n=3 j=1"

    @pytest.mark.parametrize("max_n", ["13", "61"])
    def test_eight_checks_in_order(self, capsys, max_n):
        code, lines, _ = run(capsys, "validate", "--max-n", max_n)
        assert code == 0
        assert [l.split()[:2] for l in lines] == [["ok", name] for name in (
            "spectral-vs-direct", "kernel-twin", "gauss-sum-closed-form",
            "gauss-sum-magnitude", "periodic-bound", "dilog-series",
            "lagrange-interpolation", "pattern-decomposition")]

    def test_max_n_floor(self, capsys):
        code, _, err = run(capsys, "validate", "--max-n", "5")
        assert code == 1

    @pytest.mark.parametrize("max_n", ["5", str(cli.VALIDATE_MAX_N + 1), "1000000"])
    def test_max_n_out_of_range_names_the_flag(self, capsys, max_n):
        # above the cap no tolerance has been verified
        code, lines, err = run(capsys, "validate", "--max-n", max_n)
        assert code == 1
        assert lines == []
        assert f"--max-n must lie in [7, {cli.VALIDATE_MAX_N}], got {max_n}" in err

    def test_full_depth_within_time_budget(self, capsys):
        start = time.perf_counter()
        code, lines, _ = run(capsys, "validate", "--max-n", "61")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        assert len(lines) == 8


class TestPlumbing:
    def test_fmt_significant_digits(self):
        assert cli.fmt(1 / 3) == "0.333333333333"
        assert len(cli.fmt(2 / 3).replace("0.", "")) >= 12

    def test_bad_fraction_exits_one(self, capsys):
        code, _, err = run(capsys, "isl", "--n", "7", "--fractions", "abc")
        assert code == 1
        assert "invalid fraction" in err

    @pytest.mark.parametrize("token", [
        "nan", "inf", "+inf", "1e400", "NaN",
        pytest.param("1" + "0" * 400 + "/1", id="rational-too-large-for-a-float"),
    ])
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "7", "--fraction"],
        ["isl", "--n", "7", "--fractions", "0.25"],
        ["asym", "--fractions", "0.25"],
    ])
    def test_non_finite_fraction_exits_one(self, capsys, argv, token):
        code, lines, err = run(capsys, *argv, token)
        assert code == 1
        assert lines == []
        assert f"invalid fraction {token!r}: not a finite number" in err

    @pytest.mark.parametrize("token", ["1/0", "0/0", "3/00"])
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "7", "--fraction"],
        ["isl", "--n", "7", "--fractions", "0.25"],
        ["asym", "--fractions", "0.25"],
    ])
    def test_zero_denominator_is_named(self, capsys, argv, token):
        # not the bare ZeroDivisionError text, "Fraction(1, 0)"
        code, lines, err = run(capsys, *argv, token)
        assert code == 1
        assert lines == []
        assert f"error: invalid fraction {token!r}: zero denominator\n" in err

    @pytest.mark.parametrize("token", ["1.5", "-0.25", "5/4"])
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "7", "--fraction"],
        ["isl", "--n", "7", "--fractions", "0.25"],
        ["asym", "--fractions", "0.25"],
        ["sweep", "--n-min", "7", "--n-max", "30", "--fractions", "0.25"],
    ])
    def test_out_of_range_fraction_is_a_usage_error(self, capsys, argv, token):
        # refused while parsing, by the one check_fractions, and named
        code, lines, err = run(capsys, *argv, token)
        assert code == 1
        assert lines == []
        assert f"error: invalid fraction {token!r}: rotation fraction must lie in [0, 1]" in err
        assert "Traceback" not in err

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, lines, err = run(capsys, "asym", "--fractions", "0.25", "--output", str(path))
        assert code == 1
        assert lines == []
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["isl"])  # missing required arguments
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--m", "1001"],  # once ran as --max-n 1001
        ["isl", "--n", "7", "--frac", "0.25"],
        ["gen", "--n", "7", "--frac", "0.25"],
        ["sweep", "--fractions", "0.25", "--n-min", "7", "--n-max", "11", "--allow"],
    ])
    def test_flag_prefix_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "unrecognized arguments" in err or "required" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["isl", "--n", "7", "--fractions"],
        ["asym", "--fractions"],
        ["sweep", "--n-min", "7", "--n-max", "11", "--fractions"],
    ])
    @pytest.mark.parametrize("count,joined", [(cli.M_CAP + 1, False), (30000, True)])
    def test_fraction_count_bound(self, capsys, argv, count, joined):
        # 30000 fractions once asked asym for a 30000 x 30000 pair matrix
        tokens = [",".join(["0.1"] * count)] if joined else ["0.1"] * count
        code, lines, err = run(capsys, *argv, *tokens)
        assert code == 1
        assert lines == []
        assert f"at most {cli.M_CAP} fractions are allowed, got {count}" in err
        assert "Traceback" not in err

    def test_fraction_count_at_the_bound(self, capsys):
        code, lines, _ = run(capsys, "asym", "--fractions", *["0.25"] * cli.M_CAP)
        assert code == 0
        assert lines[1].startswith(f"{cli.M_CAP},")

    @pytest.mark.parametrize("argv,chunk", [
        # ~290 KB, more than a pipe buffer: the write itself fails
        (["gen", "--n", "100003"], 4096),
        # a few bytes, the pipe closed before they are written
        (["asym", "--fractions", "0.25"], 0),
    ])
    def test_closed_stdout_pipe_exits_one_quietly(self, argv, chunk):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "islkit.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        if chunk:
            assert proc.stdout.read(chunk)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, lines, _ = run(
            capsys, "asym", "--fractions", "0.25", "--output", str(path)
        )
        assert code == 0
        assert lines == []
        content = path.read_text().splitlines()
        assert content[0] == "M,total,auto_part,cross_part"


# Flags each command takes, with a strategy for the tokens that follow.
# Sizes stay small (n <= 60 or far past every bound) so an example runs
# in milliseconds; validate at --max-n 7 takes ~0.01 s (~0.05 s on its
# first call in a process).
def _one(values):
    return values.map(lambda v: [str(v)])


_INTS = st.integers(-5, 60)
_HUGE = st.sampled_from([2400001, 1000000007, 10**30])
_FRACTION = st.one_of(
    st.sampled_from(["0", "1", "0.25", "1/4", "2/7,3/7", "-0.1", "1.5", "nan", "inf",
                     "abc", "1/0", "", ",", "1e400", "1" + "0" * 400 + "/1", "0.9999999999999"]),
    st.floats(-0.5, 1.5).map(repr),
)


def _repeated(lengths):
    # one fraction token repeated: the count, not the values, is under test
    return st.tuples(_FRACTION, lengths).map(lambda t: [t[0]] * t[1])


_VALUES = {
    "--n": _one(st.one_of(_INTS, _HUGE)),
    "--exact-check": _one(st.one_of(_INTS, _HUGE)),
    "--fraction": _one(_FRACTION),
    # an accepted list at the bound streams 1000 rows per prime, so sweep
    # over n <= 60 takes ~0.4-0.8 s; the long lists sit just past the
    # bound and each example stays in milliseconds
    "--fractions": st.one_of(st.lists(_FRACTION, min_size=0, max_size=4),
                             _repeated(st.just(cli.M_CAP + 1))),
    "--resolution": _one(st.one_of(st.integers(-2, 12), st.just(100000000))),
    "--m": _one(st.one_of(st.integers(-2, 6), st.just(cli.M_CAP + 1))),
    "--n-min": _one(_INTS),
    "--n-max": _one(st.one_of(_INTS, _HUGE)),
    "--max-n": _one(st.one_of(st.integers(-1, 7), _HUGE)),
    "--seed": _one(st.integers(-2, 5)),
    "--output": _one(st.sampled_from(["@out", "@missing"])),
    "--optimal": st.just([]),
    "--bogus": st.just(["1"]),
}
_FLAGS = {
    "gen": ["--n", "--fraction", "--output"],
    "isl": ["--n", "--fractions", "--output"],
    "asym": ["--fractions", "--output"],
    "surface": ["--resolution", "--output"],
    "sweep": ["--m", "--fractions", "--optimal", "--n-min", "--n-max", "--output"],
    "optimize": ["--m", "--exact-check", "--output"],
    "validate": ["--max-n", "--seed", "--output"],
    "bogus": [],
}


# asym takes any count up to the bound in milliseconds
_ASYM_FRACTIONS = st.one_of(_VALUES["--fractions"],
                            _repeated(st.integers(5, cli.M_CAP + 1)))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    pool = _FLAGS[command] + ["--bogus"]
    argv = [command]
    if command == "validate":
        # the default --max-n 61 takes ~0.05 s, five times --max-n 7
        argv += ["--max-n", *draw(_VALUES["--max-n"])]
    for flag in draw(st.lists(st.sampled_from(pool), max_size=6)):
        if (command, flag) == ("asym", "--fractions"):
            argv += [flag, *draw(_ASYM_FRACTIONS)]
        else:
            argv += [flag, *draw(_VALUES[flag])]
    return argv


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_random_argv_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@out": os.path.join(tmp, "out.csv"),
                 "@missing": os.path.join(tmp, "missing", "out.csv")}
        argv = [paths.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
