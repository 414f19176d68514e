"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the report.

Criterion 1 compares the solved spectrum with the embedded reference
table plus its six certified errata: three digit typos and three
omitted near-threshold levels (``KNOWN_VALUE_DEFECTS`` and
``KNOWN_MISSING_LEVELS`` in ``rashbadot.reference_levels``).
``tests/test_reference_errata.py`` certifies each erratum against the
finite-difference eigensolver in ``tests/oracle_fd.py``.  The companion
test checks the printed cells outside the errata on their own.
"""

import dataclasses
import io
from contextlib import redirect_stdout

import pytest

from conftest import (
    channel_determinant,
    j_kernel,
    k_kernel,
    matching_residuals,
    overlap_parts,
    spectral_determinant,
    uncoupled_level_count,
)
from rashbadot import spectral_solver
from rashbadot.cli import main
from rashbadot.radial_basis import DotParameters
from rashbadot.reference_levels import (
    KNOWN_MISSING_LEVELS,
    KNOWN_VALUE_DEFECTS,
    REFERENCE_ROWS,
    corrected_levels,
)
from rashbadot.special_functions import bessel_j_over_power
from rashbadot.spectral_solver import find_spectrum
from rashbadot.wavefunction import (
    normalize,
    ode_residual,
    solve_coefficients,
)
from test_special_functions import J_ORACLE, K_ORACLE

TABLE_TOLERANCE = 0.01
FIG1_ENERGY = 37.0825
FIG1_COEFFICIENTS = (4.22035, -4067.87, -0.7139284, 880.843)
FIG2_COEFFICIENTS = (0.713928, 880.843, -4.22035, 4067.87)
FIRST_J0_ZERO_SQUARED = 5.7831859629467845


def report(number, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")


def compare_row(row, levels):
    """Per-cell deviations plus count bookkeeping for one reference row."""
    mismatches = []
    for index, reference in enumerate(row.levels):
        if index >= len(levels):
            mismatches.append((index, reference, None))
        elif abs(levels[index] - reference) > TABLE_TOLERANCE:
            mismatches.append((index, reference, levels[index]))
    count_matches = len(levels) == len(row.levels)
    return mismatches, count_matches


class TestCriterion1TableReproduction:
    def test_full_reproduction_as_stated(self, timed_table):
        spectra, seconds = timed_table
        total = sum(seconds.values())
        worst = max(seconds.values())

        failures = []
        for row in REFERENCE_ROWS:
            spectrum = spectra[(row.m, row.v, row.beta_factor)]
            expected = dataclasses.replace(row, levels=corrected_levels(row))
            mismatches, count_ok = compare_row(expected, spectrum.levels)
            if mismatches or not count_ok:
                failures.append(
                    f"(m={row.m}, v={row.v:g}, beta={row.beta:g}): "
                    f"computed {[round(e, 2) for e in spectrum.levels]} "
                    f"vs expected {list(expected.levels)}"
                )
        passed = not failures and total < 30.0 and worst < 1.0
        report(
            1,
            passed,
            f"table reproduction with certified errata |de| <= {TABLE_TOLERANCE} "
            f"with exact counts; CPU time {total:.1f} s total, "
            f"{worst * 1000:.0f} ms worst ({len(failures)} row(s) disagree)",
        )
        if failures:
            details = "\n  ".join(failures)
            pytest.fail(
                "rows disagree with the reference table and its certified errata "
                "(KNOWN_VALUE_DEFECTS, KNOWN_MISSING_LEVELS):\n  " + details
            )
        assert total < 30.0
        assert worst < 1.0

    def test_reproduction_outside_known_defects(self, table_spectra):
        checked = 0
        for row in REFERENCE_ROWS:
            spectrum = table_spectra[(row.m, row.v, row.beta_factor)]
            known_extra = len(
                KNOWN_MISSING_LEVELS.get((row.m, row.v, row.beta_factor), ())
            )
            assert len(spectrum.levels) == len(row.levels) + known_extra
            for index, reference in enumerate(row.levels):
                if (row.m, row.v, row.beta_factor, index) in KNOWN_VALUE_DEFECTS:
                    solver_value = KNOWN_VALUE_DEFECTS[(row.m, row.v, row.beta_factor, index)]
                    assert abs(spectrum.levels[index] - solver_value) <= TABLE_TOLERANCE
                    continue
                assert abs(spectrum.levels[index] - reference) <= TABLE_TOLERANCE, (
                    f"(m={row.m}, v={row.v}, beta={row.beta}) level {index}"
                )
                checked += 1
        report(
            1,
            True,
            f"companion check: {checked} reference cells reproduced at |de| <= 0.01 "
            f"(6 documented defect cells excluded)",
        )


class TestCriterion2Coefficients:
    def test_fig1_fig2_coefficient_ratios(self):
        params = DotParameters(v=100.0, beta=2.0, m=1)
        spectrum = find_spectrum(params)
        e = min(spectrum.levels, key=lambda x: abs(x - FIG1_ENERGY))
        assert abs(e - FIG1_ENERGY) <= 1e-3
        state = solve_coefficients(params, e)
        worst = 0.0
        for got, want in zip(state.coefficients, FIG1_COEFFICIENTS):
            ratio = (got / state.coefficients[0]) / (want / FIG1_COEFFICIENTS[0])
            worst = max(worst, abs(ratio - 1.0))
        assert worst < 1e-3

        partner = DotParameters(v=100.0, beta=2.0, m=-2)
        partner_spectrum = find_spectrum(partner)
        e2 = min(partner_spectrum.levels, key=lambda x: abs(x - FIG1_ENERGY))
        assert abs(e2 - FIG1_ENERGY) <= 1e-3
        state2 = solve_coefficients(partner, e2)
        worst2 = 0.0
        for got, want in zip(state2.coefficients, FIG2_COEFFICIENTS):
            ratio = (got / state2.coefficients[0]) / (want / FIG2_COEFFICIENTS[0])
            worst2 = max(worst2, abs(ratio - 1.0))
        assert worst2 < 1e-3
        report(
            2,
            True,
            f"level at e = {e:.6f}; coefficient-ratio deviations "
            f"{worst:.1e} (m=1) and {worst2:.1e} (m=-2), both < 1e-3",
        )


class TestCriterion3CrossConsistency:
    def test_figure_energy_rounds_to_table_cell(self, table_spectra):
        levels = table_spectra[(1, 100.0, 0.2)].levels
        e = min(levels, key=lambda x: abs(x - FIG1_ENERGY))
        assert abs(e - FIG1_ENERGY) <= 1e-3
        assert round(e, 2) == 37.08
        report(3, True, f"e = {e:.6f} rounds to the 37.08 reference cell")


class TestCriterion4NegativeSpectra:
    def test_strong_coupling_rows_all_negative(self, table_spectra):
        checked = 0
        for (m, v, factor), spectrum in table_spectra.items():
            if factor != 2.0:
                continue
            # beta = 2 sqrt(v) makes beta^2/4 = v
            assert all(e < 0.0 for e in spectrum.levels), (m, v)
            checked += len(spectrum.levels)
        report(4, True, f"{checked} levels across the beta=2*sqrt(v) rows, all negative")


class TestCriterion5PropertySuite:
    def test_states_properties(self, table_states):
        import random

        rng = random.Random(42)
        worst_residual = 0.0
        worst_matching = 0.0
        worst_norm = 0.0
        n_states = 0
        for states in table_states.values():
            for state in states:
                n_states += 1
                worst_matching = max(worst_matching, max(matching_residuals(state)))
                worst_norm = max(worst_norm, abs(sum(overlap_parts(state, state)) - 1.0))
                for _ in range(20):
                    r_in = rng.uniform(0.01, 0.99)
                    worst_residual = max(
                        worst_residual, max(abs(x) for x in ode_residual(state, r_in))
                    )
                    r_out = rng.uniform(1.01, 8.0)
                    worst_residual = max(
                        worst_residual, max(abs(x) for x in ode_residual(state, r_out))
                    )
        assert worst_residual < 1e-8
        assert worst_matching < 1e-8
        assert worst_norm < 1e-8
        report(
            5,
            True,
            f"{n_states} states: ODE residual {worst_residual:.1e}, continuity "
            f"{worst_matching:.1e}, |norm-1| {worst_norm:.1e} (all < 1e-8)",
        )

    def test_orthogonality(self, table_states):
        worst = 0.0
        pairs = 0
        for states in table_states.values():
            for a, b in zip(states, states[1:]):
                worst = max(worst, abs(sum(overlap_parts(a, b))))
                pairs += 1
        # all-pairs check on the shallow-well rows
        for key in ((0, 25.0, 0.2), (1, 25.0, 2.0), (0, 25.0, 2.0)):
            states = table_states[key]
            for i in range(len(states)):
                for j in range(i + 1, len(states)):
                    worst = max(worst, abs(sum(overlap_parts(states[i], states[j]))))
                    pairs += 1
        assert worst < 1e-6
        report(5, True, f"orthogonality over {pairs} level pairs: worst {worst:.1e} < 1e-6")

    def test_spectrum_invariance(self, table_spectra):
        worst = 0.0
        for (m, v, factor), spectrum in table_spectra.items():
            partner = find_spectrum(
                DotParameters(v=v, beta=-spectrum.params.beta, m=-(m + 1))
            )
            assert len(partner.levels) == len(spectrum.levels), (m, v, factor)
            for a, b in zip(partner.levels, spectrum.levels):
                worst = max(worst, abs(a - b))
        assert worst < 1e-9
        report(
            5,
            True,
            f"(m, beta) -> (-(m+1), -beta) invariance over all rows: worst {worst:.1e} < 1e-9",
        )

    def test_uncoupled_factorization_and_degeneracy(self, table_spectra):
        worst = 0.0
        for v in (25.0, 49.0, 100.0):
            params = DotParameters(v=v, beta=0.0, m=0)
            for depth_fraction in (0.1, 0.35, 0.6, 0.85):
                e = depth_fraction * v
                det = spectral_determinant(params, e)
                product = channel_determinant(params, 0, e) * channel_determinant(params, 1, e)
                worst = max(worst, abs(det - product) / max(abs(det), 1e-300))
        assert worst < 1e-12
        m0 = [round(e, 2) for e in table_spectra[(0, 25.0, 0.0)].levels]
        m1 = [round(e, 2) for e in table_spectra[(1, 25.0, 0.0)].levels]
        assert 9.94 in m0 and 9.94 in m1
        report(
            5,
            True,
            f"beta=0 factorization worst {worst:.1e} < 1e-12; 9.94 shared by m=0 and m=1",
        )


class TestCriterion6SpecialFunctions:
    def test_frozen_oracles_and_identities(self):
        worst_j = 0.0
        for n, x, expected in J_ORACLE:
            worst_j = max(worst_j, abs(j_kernel(n, x) - expected) / abs(expected))
        worst_k = 0.0
        for n, re, im, kre, kim in K_ORACLE:
            got = k_kernel(n, complex(re, im))
            worst_k = max(worst_k, abs(got - complex(kre, kim)) / abs(complex(kre, kim)))
        assert worst_j < 1e-10
        assert worst_k < 1e-10
        # recurrence and conjugation identities
        for n in (1, 3, 6):
            for x in (0.7, 5.0, 29.0):
                table = bessel_j_over_power(n + 1, x, 0)
                lhs = table[n - 1] + table[n + 1]
                rhs = 2.0 * n / x * table[n]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 0.1)
        z = complex(1.5, 0.7)
        assert k_kernel(2, z.conjugate()) == k_kernel(2, z).conjugate()
        report(
            6,
            True,
            f"special functions vs high-precision oracles: worst J {worst_j:.1e}, "
            f"worst K {worst_k:.1e} (both < 1e-10); identities hold",
        )


class TestCriterion7HardWallLimit:
    def test_deep_well_lowest_level(self):
        # the whole window, every level the beta = 0 identity counts
        spectrum = find_spectrum(DotParameters(v=1e6, beta=0.0, m=0))
        assert len(spectrum.levels) == uncoupled_level_count(1e6, 0) == 637
        lowest = spectrum.levels[0]
        deviation = abs(lowest - FIRST_J0_ZERO_SQUARED) / FIRST_J0_ZERO_SQUARED
        assert deviation < 0.01
        report(
            7,
            True,
            f"v=1e6 lowest level {lowest:.4f} vs J0-zero squared "
            f"{FIRST_J0_ZERO_SQUARED:.4f} ({100 * deviation:.2f}% < 1%), "
            f"{len(spectrum.levels)} levels as the beta = 0 identity counts",
        )


class TestCriterion8Determinism:
    def _capture(self, argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        return code, buffer.getvalue()

    def test_table_and_sweep_byte_identical(self, monkeypatch):
        table_args = ["table"]
        code_a, run_a = self._capture(table_args)
        code_b, run_b = self._capture(table_args)
        assert run_a == run_b
        assert code_a == code_b

        sweep_args = ["sweep", "--v", "25", "--beta-range", "0:10:2.5", "--m-list", "0,1,2"]
        _, sweep_a = self._capture(sweep_args)
        _, sweep_b = self._capture(sweep_args)
        # each grid energy is an independent lane: chunks of 7 give the
        # bytes of the one-batch scan
        monkeypatch.setattr(spectral_solver, "SCAN_CHUNK", 7)
        _, sweep_c = self._capture(sweep_args)
        assert sweep_a == sweep_b == sweep_c
        report(
            8,
            True,
            f"table ({len(run_a)} bytes) and sweep ({len(sweep_a)} bytes) identical "
            f"across repeated runs and scan chunk sizes",
        )
