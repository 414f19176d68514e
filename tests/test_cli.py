import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rashbadot.cli import (
    BETA_COUNT_CAP,
    EXIT_LEVEL_INDEX,
    EXIT_OK,
    EXIT_TABLE_MISMATCH,
    EXIT_USAGE,
    HBAR2_OVER_2ME,
    SAMPLES_CAP,
    PhysicalInputs,
    main,
    to_dimensionless,
)
from conftest import avx512_groups
from golden_check import GOLDEN, GOLDEN_COMMANDS, matches_golden
from rashbadot import cli, spectral_solver
from rashbadot.errors import InvalidInput, NumericalFailure
from rashbadot.radial_basis import DotParameters
from rashbadot.reference_levels import REFERENCE_ROWS, corrected_levels
from rashbadot.special_functions import _K_POINT_CUTS
from rashbadot.spectral_solver import REFINE_TOL, find_spectrum
from rashbadot.wavefunction import evaluate_radial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUnitConversion:
    def test_round_trip(self):
        p = PhysicalInputs(
            effective_mass=0.067, dot_radius=12.5, well_depth=180.0, rashba_coefficient=32.0
        )
        v, beta, scale = to_dimensionless(p)
        assert v * scale == pytest.approx(p.well_depth, rel=1e-12)
        assert beta * HBAR2_OVER_2ME / (p.dot_radius * p.effective_mass) == pytest.approx(
            p.rashba_coefficient, rel=1e-12
        )

    def test_identity_scale(self):
        # radius chosen so one dimensionless unit equals one meV
        radius = math.sqrt(HBAR2_OVER_2ME)
        p = PhysicalInputs(
            effective_mass=1.0, dot_radius=radius, well_depth=25.0, rashba_coefficient=0.0
        )
        v, beta, scale = to_dimensionless(p)
        assert scale == pytest.approx(1.0, rel=1e-12)
        assert v == pytest.approx(25.0, rel=1e-12)

    def test_scaling_law(self):
        base = PhysicalInputs(0.1, 10.0, 50.0, 20.0)
        doubled = PhysicalInputs(0.1, 20.0, 50.0, 20.0)
        v1, b1, _ = to_dimensionless(base)
        v2, b2, _ = to_dimensionless(doubled)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        mass=st.floats(min_value=0.01, max_value=2.0),
        radius=st.floats(min_value=1.0, max_value=100.0),
        depth=st.floats(min_value=1.0, max_value=500.0),
        rashba=st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_energy_recovery_property(self, mass, radius, depth, rashba):
        v, beta, scale = to_dimensionless(PhysicalInputs(mass, radius, depth, rashba))
        assert v * scale == pytest.approx(depth, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            PhysicalInputs(0.0, 10.0, 50.0, 0.0)

    @pytest.mark.parametrize(
        "mass, radius, rashba",
        [(0.067, 1e200, 1.0), (1e300, 1e10, 1e300), (1e-300, 1e-10, 1.0), (1e10, 1.0, 1e300)],
        ids=["radius-squared-overflows", "scale-underflows", "scale-overflows", "beta-overflows"],
    )
    def test_conversion_out_of_range_is_a_usage_error(self, capsys, mass, radius, rashba):
        # each leaves double range: the radius squared, the energy scale
        # (to 0 or to inf), or beta
        with pytest.raises(InvalidInput):
            to_dimensionless(PhysicalInputs(mass, radius, 10.0, rashba))
        code, out, err = run_cli(
            capsys,
            "spectrum", "--physical", "--m", "0",
            "--effective-mass", str(mass),
            "--dot-radius", str(radius),
            "--well-depth", "10",
            "--rashba-coefficient", str(rashba),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ")


class TestSpectrumCommand:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--v", "25", "--beta", "5", "--m", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,e"
        values = [round(float(line.split(",")[1]), 2) for line in lines[1:]]
        assert values == [-4.40, 2.83, 13.40]

    def test_strong_coupling_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--v", "49", "--beta", "14", "--m", "1")
        assert code == 0
        values = [round(float(line.split(",")[1]), 2) for line in out.strip().splitlines()[1:]]
        assert values == [-47.04, -41.12, -31.51, -13.33]

    def test_empty_spectrum_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--v", "25", "--beta", "0", "--m", "5")
        assert code == 0
        assert out == "index,e\n"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--v", "25", "--beta", "5", "--m", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "window", "levels"}
        assert payload["params"] == {"v": 25.0, "beta": 5.0, "m": 0}
        assert payload["window"] == [-6.25, 18.75]
        assert [round(e, 2) for e in payload["levels"]] == [-4.40, 2.83, 13.40]

    def test_physical_mode_adds_mev_column(self, capsys):
        radius = math.sqrt(HBAR2_OVER_2ME)
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--physical", "--m", "0",
            "--effective-mass", "1.0",
            "--dot-radius", str(radius),
            "--well-depth", "25.0",
            "--rashba-coefficient", "0.0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,e,E_meV"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(float(first[2]), rel=1e-9)

    def test_usage_error_missing_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--m", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--v", "-1"), ("--beta", "nan")])
    def test_invalid_input_is_a_usage_error(self, capsys, flag, value):
        args = {"--v": "25", "--beta": "0", "--m": "0", flag: value}
        code, out, err = run_cli(capsys, "spectrum", *(x for item in args.items() for x in item))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_tol_is_not_an_option(self, capsys):
        # the refinement tolerance is the constant REFINE_TOL
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--v", "25", "--beta", "0", "--m", "0", "--tol", "1e-12"])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--v", "25", "--beta", "0", "--m", "0"],
            ["wavefunction", "--v", "25", "--beta", "0", "--m", "0", "--level", "0"],
            ["table"],
            ["sweep", "--v", "25", "--beta-range", "0:1:1", "--m-list", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_grid_is_not_an_option(self, capsys, argv):
        # find_spectrum sizes the scan grid from the window
        with pytest.raises(SystemExit) as info:
            main([*argv, "--grid", "2000"])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --grid 2000" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [["--v", "25"], ["--beta", "5"], ["--v", "25", "--beta", "5"]],
        ids=["v", "beta", "v-and-beta"],
    )
    def test_physical_mode_rejects_v_and_beta(self, capsys, flags):
        # the material parameters set v and beta: a given one is not ignored
        with pytest.raises(SystemExit) as info:
            main([
                "spectrum", "--physical", *flags, "--m", "0",
                "--effective-mass", "0.067", "--dot-radius", "12.5",
                "--well-depth", "180", "--rashba-coefficient", "32",
            ])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--physical derives v and beta: drop " in captured.err

    def test_numerical_failure_exit_code(self, capsys):
        # angular number beyond the Bessel order cap: an ArgumentOutOfRange
        code, out, err = run_cli(capsys, "spectrum", "--v", "25", "--beta", "0", "--m", "99")
        assert code == 3
        assert out == ""
        assert err.startswith("outside the validated domain: ")

    def test_numerical_failure_keeps_its_prefix(self, capsys, monkeypatch):
        # a scheme that fails on valid input exits 3 as a numerical failure
        def failing(params):
            raise NumericalFailure("no sign change")

        monkeypatch.setattr(cli, "find_spectrum", failing)
        code, out, err = run_cli(capsys, "spectrum", "--v", "25", "--beta", "0", "--m", "0")
        assert code == 3
        assert out == ""
        assert err == "numerical failure: no sign change\n"

    def test_shallow_well_is_a_numerical_failure(self, capsys):
        # its binding level lies within WINDOW_MARGIN of the window top:
        # not an empty spectrum
        code, out, err = run_cli(capsys, "spectrum", "--v", "0.15", "--beta", "0", "--m", "0")
        assert code == 3
        assert out == ""
        assert "WINDOW_MARGIN" in err

    def test_shallow_coupled_well_is_a_numerical_failure(self, capsys):
        # at beta = 2 the m = 0 level of v = 1e-5 lies about 5e-11 below
        # the window top
        code, out, err = run_cli(capsys, "spectrum", "--v", "1e-5", "--beta", "2", "--m", "0")
        assert code == 3
        assert out == ""
        assert "WINDOW_MARGIN" in err

    @pytest.mark.parametrize("beta", ["1e10", "1e200"])
    def test_unresolved_window_is_a_numerical_failure(self, capsys, beta):
        # beta^2 / 4 = 2.5e19 leaves a window of width 25 below the float
        # spacing 4096 there; 1e200 overflows beta^2: neither is an empty
        # spectrum
        code, out, err = run_cli(capsys, "spectrum", "--v", "25", "--beta", beta, "--m", "0")
        assert code == 3
        assert out == ""
        assert "window" in err

    def test_window_beyond_the_j_domain_is_a_numerical_failure(self, capsys):
        # the window top of v = 4.5e6 needs J at k r = 2121, beyond the
        # validated J argument domain
        code, out, err = run_cli(capsys, "spectrum", "--v", "4.5e6", "--beta", "0", "--m", "0")
        assert code == 3
        assert out == ""
        assert "reaches the interior wave number 2121.32" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--v", "25", "--beta", "0", "--m", "0", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("index,e\n")


class TestUnwritableOut:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--v", "25", "--beta", "5", "--m", "0"], ["table"]],
        ids=["spectrum", "table"],
    )
    def test_is_a_usage_error(self, capsys, tmp_path, argv, where):
        # an --out path that cannot be opened exits 2 with the reason, not
        # with a traceback
        path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
        assert err == f"usage error: cannot write {path}: {reason}\n"


class TestWavefunctionCommand:
    def test_grid_endpoints_and_header(self, capsys):
        code, out, err = run_cli(
            capsys,
            "wavefunction", "--v", "100", "--beta", "2", "--m", "1",
            "--level", "2", "--rmax", "3", "--samples", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,u,w"
        assert len(lines) == 8
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[0] == "3"
        # provenance block on stderr carries the energy and coefficients
        assert "# e = 37.0825" in err
        assert "c1 = " in err

    def test_partner_sector_swaps_components(self, capsys):
        code1, out1, _ = run_cli(
            capsys,
            "wavefunction", "--v", "100", "--beta", "2", "--m", "1",
            "--level", "2", "--rmax", "2", "--samples", "41",
        )
        code2, out2, _ = run_cli(
            capsys,
            "wavefunction", "--v", "100", "--beta", "2", "--m", "-2",
            "--level", "2", "--rmax", "2", "--samples", "41",
        )
        assert code1 == 0 and code2 == 0
        rows1 = [line.split(",") for line in out1.strip().splitlines()[1:]]
        rows2 = [line.split(",") for line in out2.strip().splitlines()[1:]]
        for (r1, u1, w1), (r2, u2, w2) in zip(rows1, rows2):
            assert r1 == r2
            assert abs(abs(float(u2)) - abs(float(w1))) < 1e-4
            assert abs(abs(float(w2)) - abs(float(u1))) < 1e-4

    def test_energy_selection(self, capsys):
        code, out, err = run_cli(
            capsys,
            "wavefunction", "--v", "100", "--beta", "2", "--m", "1",
            "--energy", "37.08", "--energy-tol", "0.05",
            "--rmax", "1", "--samples", "3",
        )
        assert code == 0
        assert "# e = 37.0825" in err

    @pytest.mark.parametrize(
        "well,level",
        [(("1e6", "0", "0"), "0"), (("1e6", "0", "0"), "560"), (("6e5", "10", "3"), "0")],
        ids=["v1e6-level0", "v1e6-level560", "v6e5-level0"],
    )
    def test_deep_level_gives_finite_samples(self, capsys, well, level):
        # the paper's c2 and d2 overflow at level 0 of both wells (Re kappa
        # = 1000 and 775); level 560 of (1e6, 0, 0) has Re kappa = 473
        v, beta, m = well
        code, out, err = run_cli(
            capsys, "wavefunction", "--v", v, "--beta", beta, "--m", m, "--level", level
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "r,u,w" and len(lines) == 301
        assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))

    def test_json_writes_null_for_an_overflowing_coefficient(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        code, out, err = run_cli(
            capsys,
            "wavefunction", "--v", "1e6", "--beta", "0", "--m", "0", "--level", "0",
            "--samples", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        # level 0 is in the u channel, whose c2 overflows; d1 and d2 are 0
        assert payload["coefficients"]["c2"] is None
        assert payload["coefficients"]["c1"] > 0.0
        assert (payload["coefficients"]["d1"], payload["coefficients"]["d2"]) == (0.0, 0.0)
        assert "c2 = inf" in err
        assert len(payload["samples"]) == 5

    def test_level_index_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            "wavefunction", "--v", "25", "--beta", "0", "--m", "0", "--level", "9",
        )
        assert code == EXIT_LEVEL_INDEX
        assert "out of range" in err

    def test_energy_without_match(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "wavefunction", "--v", "25", "--beta", "0", "--m", "0",
            "--energy", "7.0", "--energy-tol", "0.1",
        )
        assert code == EXIT_LEVEL_INDEX

    @pytest.mark.parametrize(
        "flags",
        [
            ("--energy", "7.0", "--energy-tol", "nan"),
            ("--energy", "7.0", "--energy-tol", "-1"),
            ("--energy", "inf"),
            ("--level", "0", "--rmax", "inf"),
        ],
        ids=["energy-tol-nan", "energy-tol-negative", "energy-inf", "rmax-inf"],
    )
    def test_bad_selection_or_range_is_a_usage_error(self, capsys, flags):
        # rejected before the spectrum is solved: no state reaches stderr
        with pytest.raises(SystemExit) as info:
            main(["wavefunction", "--v", "25", "--beta", "0", "--m", "0", *flags])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "# e =" not in captured.err
        assert "error: " in captured.err


@pytest.fixture(scope="module")
def table_run():
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["table"])
    return code, buffer.getvalue()


class TestTableCommand:
    def test_exit_ok_against_certified_table(self, table_run):
        code, _ = table_run
        assert code == EXIT_OK

    def test_no_failing_cells(self, table_run):
        _, out = table_run
        lines = out.strip().splitlines()
        assert lines[0] == "m,v,beta,level_index,e,e_ref,delta,status"
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses.count("fail") == 0
        assert len(statuses) == sum(len(corrected_levels(row)) for row in REFERENCE_ROWS)

    def test_tight_tolerance_flags_mismatch(self):
        # the certified values carry two decimals, so no cell meets 1e-9
        code = main(["table", "--compare-tol", "1e-9", "--out", os.devnull])
        assert code == EXIT_TABLE_MISMATCH

    def test_level_count_mismatch_leaves_empty_cells(self, capsys, monkeypatch):
        # a row with one certified level fewer than computed, and one with
        # one more: the unpaired level gets empty cells and fails
        short, extra = REFERENCE_ROWS[0], REFERENCE_ROWS[1]
        levels = {row: corrected_levels(row) for row in REFERENCE_ROWS}
        levels[short] = levels[short][:-1]
        levels[extra] = levels[extra] + (99.0,)
        monkeypatch.setattr(cli, "corrected_levels", levels.__getitem__)
        code, out, _ = run_cli(capsys, "table")
        assert code == EXIT_TABLE_MISMATCH
        computed = find_spectrum(DotParameters(short.v, short.beta, short.m)).levels
        fmt = lambda x: format(x, ".6g")
        failed = [line for line in out.splitlines() if line.endswith(",fail")]
        assert failed == [
            f"{short.m},{fmt(short.v)},{fmt(short.beta)},{len(computed) - 1},"
            f"{fmt(computed[-1])},,,fail",
            f"{extra.m},{fmt(extra.v)},{fmt(extra.beta)},{len(levels[extra]) - 1},,99,,fail",
        ]

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["table", "--compare-tol", tol])
        assert info.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--compare-tol" in captured.err


class TestSweepCommand:
    def test_rows_match_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--v", "25", "--beta-range", "0:10:5", "--m-list", "0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,m,level_index,e"
        rows = [line.split(",") for line in lines[1:]]
        by_beta = {}
        for beta, m, index, e in rows:
            by_beta.setdefault(float(beta), []).append(round(float(e), 2))
        assert by_beta[0.0] == [3.98, 9.94, 19.61]
        assert by_beta[5.0] == [-4.40, 2.83, 13.40]
        assert by_beta[10.0] == [-23.25, -18.31, -9.67]

    def test_sorted_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--v", "25", "--beta-range", "0:5:5", "--m-list", "1,0"
        )
        assert code == 0
        keys = []
        for line in out.strip().splitlines()[1:]:
            beta, m, index, _ = line.split(",")
            keys.append((float(beta), int(m), int(index)))
        assert keys == sorted(keys)

    def test_empty_sweep_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--v", "25", "--beta-range", "0:0:1", "--m-list", "8"
        )
        assert code == 0
        assert out == "beta,m,level_index,e\n"

    def test_malformed_range(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--v", "25", "--beta-range", "0-10-5", "--m-list", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("0:inf:1", "must be finite"),
            ("-inf:0:1", "must be finite"),
            # STEP = inf would build the beta 0 * inf = nan
            ("0:1:inf", "--beta-range LO, HI and STEP must be finite"),
            # a STEP below the float spacing of LO gives beta = 4 again and again
            ("4:4.000000000000004:1e-16", "must strictly increase"),
        ],
        ids=["0:inf:1", "-inf:0:1", "0:1:inf", "step-below-spacing"],
    )
    def test_infinite_range_is_a_usage_error(self, capsys, text, message):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--v", "25", f"--beta-range={text}", "--m-list", "0"])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_negative_range_and_angular_numbers_after_equals(self, capsys):
        # argparse reads a separate leading '-' as a flag: LO and m below
        # zero are given with '='
        code, out, _ = run_cli(
            capsys, "sweep", "--v", "25", "--beta-range=-2:2:2", "--m-list=-1,0"
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        keys = {(float(beta), int(m)) for beta, m, _, _ in rows}
        assert keys == {(beta, m) for beta in (-2.0, 0.0, 2.0) for m in (-1, 0)}

    def test_repeated_runs_same_bytes(self, capsys, monkeypatch):
        # the grid evaluated point by point gives the batched bytes
        args = ["sweep", "--v", "25", "--beta-range", "0:10:5", "--m-list", "0,1"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        monkeypatch.setattr(spectral_solver, "SCAN_CHUNK", 1)
        _, pointwise, _ = run_cli(capsys, *args)
        assert first == second == pointwise


class TestCountCaps:
    # one above each cap: without the cap each still finishes in bounded
    # time and memory, so a regression fails the time bound instead of
    # exhausting the machine
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--v", "25", "--beta-range", f"0:{BETA_COUNT_CAP}:1", "--m-list", "0"],
            [
                "wavefunction", "--v", "25", "--beta", "1", "--m", "0", "--level", "0",
                "--samples", str(SAMPLES_CAP + 1),
            ],
        ],
        ids=["beta-range", "samples"],
    )
    def test_count_above_cap_is_a_usage_error(self, capsys, argv):
        # rejected before the count is allocated or looped over
        start = time.process_time()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert time.process_time() - start < 1.0
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


class TestUsageLines:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--m", "0"],
            ["wavefunction", "--v", "25", "--beta", "0", "--m", "0", "--level", "0", "--energy", "1"],
            ["table", "--compare-tol", "nan"],
            ["sweep", "--v", "25", "--beta-range", "0:1:inf", "--m-list", "0"],
        ],
        ids=["spectrum", "wavefunction", "table", "sweep"],
    )
    def test_runner_usage_error_prints_its_subcommand_usage(self, capsys, argv):
        # an error found after parsing prints the usage of the subcommand
        # that was given, as argparse does for its own errors
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage: rashbadot {argv[0]} ")


class TestGoldenBytes:
    """The CSV bytes (stdout) of the README commands, and the JSON of one
    deep spectrum, pinned in ``tests/golden``: every byte, except that the
    JSON's full-precision levels hold within ``REFINE_TOL``.  The commands
    are ``golden_check.GOLDEN_COMMANDS``, which CI also runs through the
    installed console script (``python tests/golden_check.py``).

    A change that means to alter them regenerates the files with the
    same commands, e.g. ``rashbadot table > tests/golden/table.csv``."""

    @pytest.mark.parametrize(
        "argv,name",
        GOLDEN_COMMANDS,
        ids=[
            "table", "sweep", "spectrum", "spectrum_physical", "spectrum_deep", "spectrum_deep_json",
            "wavefunction", "partner", "deep", "window_top", "negative_k",
        ],
    )
    def test_csv_bytes(self, capsys, argv, name):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert matches_golden(name, out)


    def test_deep_json_compares_levels_within_refine_tol(self):
        # the golden itself matches; a level moved by less than REFINE_TOL
        # still does, one moved by more does not, and neither does any
        # other field or byte
        name = "spectrum_deep.json"
        golden = (GOLDEN / name).read_bytes().decode()
        assert matches_golden(name, golden)
        payload = json.loads(golden)

        def dumped(**fields):
            return json.dumps({**payload, **fields}, indent=2) + "\n"

        levels = payload["levels"]
        assert matches_golden(name, dumped(levels=[levels[0] + 0.9 * REFINE_TOL, *levels[1:]]))
        assert not matches_golden(name, dumped(levels=[levels[0] + 2.0 * REFINE_TOL, *levels[1:]]))
        assert not matches_golden(name, dumped(levels=levels[1:]))
        assert not matches_golden(name, dumped(window=[payload["window"][0], 3500.0000000001]))
        assert not matches_golden(name, golden.replace("\n", "\r\n"))
        assert not matches_golden(name, json.dumps(payload) + "\n")

    @pytest.mark.parametrize(
        "setting",
        [
            {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512_groups())},
            {"OPENBLAS_CORETYPE": "Haswell"},
        ],
        ids=["numpy_avx2_loops", "openblas_haswell"],
    )
    def test_goldens_hold_on_other_cpu_kernels(self, setting):
        # numpy picks its loops by the CPU, and OpenBLAS the kernels under
        # np.linalg.det; the goldens above hold under numpy's AVX2 loops
        # and under OpenBLAS's Haswell kernels (where numpy's BLAS is
        # OpenBLAS), each set on a child process alone
        source = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, **setting}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__]
            + ["-k", "TestGoldenBytes and not other_cpu_kernels"],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        assert " passed" in result.stdout and "skipped" not in result.stdout


def test_wavefunction_goldens_cross_every_k_point_cut(monkeypatch, capsys):
    # the exterior samples of the wavefunction goldens, at |z| = |kappa| r
    # for r >= 1, lie on both sides of every cut of the single-point K
    # ladder, so the goldens pin the bits of every point rule
    spans = []

    def sample(state, r):
        if r >= 1.0:
            spans[-1].append(abs(state.wave_numbers[1] * r))
        return evaluate_radial(state, r)

    monkeypatch.setattr(cli, "evaluate_radial", sample)
    for argv, _ in GOLDEN_COMMANDS:
        if argv[0] == "wavefunction":
            spans.append([])
            assert run_cli(capsys, *argv)[0] == EXIT_OK
    for cut in _K_POINT_CUTS:
        assert any(min(sizes) < cut < max(sizes) for sizes in spans), cut


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "rashbadot.cli", "spectrum", "--v", "25", "--beta", "0", "--m", "2"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        values = [round(float(line.split(",")[1]), 2) for line in result.stdout.strip().splitlines()[1:]]
        assert values == [17.46]
