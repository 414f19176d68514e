import math

import numpy as np
import pytest

from rashbadot.errors import InvalidInput, WindowViolation
from rashbadot.radial_basis import DotParameters, exterior_pair, interior_pair
from rashbadot.spectral_solver import (
    ScanSpec,
    find_spectrum,
    match_matrix,
    spectral_determinant,
)

FIRST_J0_ZERO_SQUARED = 5.7831859629467845


def channel_determinant(params, channel, e):
    """2x2 determinant of spin channel 0 (order m) or 1 (order m+1), built
    directly from the basis."""
    b1 = interior_pair(params.m, e, params.beta, 1.0)[channel]
    b2 = exterior_pair(params.m, e, params.v, params.beta, 1.0)[channel]
    sign = 1.0 if channel == 1 else -1.0
    return b1.f * sign * b2.df - sign * b2.f * b1.df


class TestMatchMatrix:
    def test_rows_follow_basis(self):
        params = DotParameters(v=100.0, beta=2.0, m=1)
        e = 30.0
        matrix = match_matrix(params, e).entries
        b1, b12 = interior_pair(1, e, 2.0, 1.0)
        b2, b22 = exterior_pair(1, e, 100.0, 2.0, 1.0)
        assert matrix[0] == pytest.approx((b1.f, -b2.f, b1.g, -b2.g), rel=1e-12)
        assert matrix[1] == pytest.approx((b1.df, -b2.df, b1.dg, -b2.dg), rel=1e-12)
        assert matrix[2] == pytest.approx((b12.g, -b22.g, b12.f, b22.f), rel=1e-12)
        assert matrix[3] == pytest.approx((b12.dg, -b22.dg, b12.df, b22.df), rel=1e-12)

    def test_block_diagonal_without_coupling(self):
        matrix = match_matrix(DotParameters(v=25.0, beta=0.0, m=0), 5.0).entries
        for i in (0, 1):
            assert matrix[i][2] == 0.0 and matrix[i][3] == 0.0
        for i in (2, 3):
            assert matrix[i][0] == 0.0 and matrix[i][1] == 0.0

    def test_window_guard(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        with pytest.raises(WindowViolation):
            match_matrix(params, -0.5)
        with pytest.raises(WindowViolation):
            match_matrix(params, 25.0)

    def test_annihilates_reference_coefficients(self):
        # coefficient vector of the e = 37.0825 level
        params = DotParameters(v=100.0, beta=2.0, m=1)
        matrix = match_matrix(params, 37.0825).entries
        vec = (4.22035, -4067.87, -0.7139284, 880.843)
        norm_vec = math.sqrt(sum(x * x for x in vec))
        for row in matrix:
            residual = sum(a * b for a, b in zip(row, vec))
            scale = math.sqrt(sum(a * a for a in row)) * norm_vec
            assert abs(residual) / scale < 1e-4


class TestSpectralDeterminant:
    def test_sign_change_at_lowest_level(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        assert spectral_determinant(params, 3.9) * spectral_determinant(params, 4.1) < 0.0

    def test_near_zero_at_level(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        grid = [0.01 + i * (24.98 / 199) for i in range(200)]
        scale = max(abs(spectral_determinant(params, e)) for e in grid)
        assert abs(spectral_determinant(params, 3.98)) < 1e-6 * scale

    def test_replacement_symmetry(self):
        # simultaneous m -> -(m+1), beta -> -beta leaves |det| unchanged
        a = spectral_determinant(DotParameters(v=100.0, beta=2.0, m=1), 30.0)
        b = spectral_determinant(DotParameters(v=100.0, beta=-2.0, m=-2), 30.0)
        assert abs(abs(a) - abs(b)) / abs(a) < 1e-10

    def test_uncoupled_factorization(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        for e in (2.0, 5.0, 11.0, 20.0):
            det = spectral_determinant(params, e)
            product = channel_determinant(params, 0, e) * channel_determinant(params, 1, e)
            assert det == pytest.approx(product, rel=1e-12)

    def test_deterministic(self):
        params = DotParameters(v=49.0, beta=7.0, m=1)
        assert spectral_determinant(params, 5.0) == spectral_determinant(params, 5.0)


class TestFindSpectrum:
    def test_uncoupled_reference_row(self, table_spectra):
        levels = table_spectra[(0, 25.0, 0.0)].levels
        assert [round(e, 2) for e in levels] == [3.98, 9.94, 19.61]

    def test_single_level_row(self, table_spectra):
        levels = table_spectra[(2, 25.0, 0.2)].levels
        assert [round(e, 2) for e in levels] == [16.13]

    def test_fully_negative_row(self, table_spectra):
        levels = table_spectra[(0, 100.0, 2.0)].levels
        assert [round(e, 2) for e in levels] == [
            -97.96, -91.83, -81.75, -67.58, -49.91, -28.53, -1.66,
        ]
        assert all(e < 0.0 for e in levels)

    def test_levels_sorted_inside_window(self, table_spectra):
        for spectrum in table_spectra.values():
            lo, hi = spectrum.window
            assert list(spectrum.levels) == sorted(spectrum.levels)
            for a, b in zip(spectrum.levels, spectrum.levels[1:]):
                assert b > a
            for e in spectrum.levels:
                assert lo < e < hi

    def test_determinant_residual_at_levels(self, table_spectra):
        for spectrum in table_spectra.values():
            params = spectrum.params
            lo, hi = params.window
            grid = [lo + 1e-6 + i * (hi - lo - 2e-6) / 149 for i in range(150)]
            scale = max(abs(spectral_determinant(params, e)) for e in grid)
            for e in spectrum.levels:
                assert abs(spectral_determinant(params, e)) <= 1e-8 * scale

    def test_uncoupled_channel_degeneracy(self, table_spectra):
        m0 = [round(e, 2) for e in table_spectra[(0, 25.0, 0.0)].levels]
        m1 = [round(e, 2) for e in table_spectra[(1, 25.0, 0.0)].levels]
        m2 = [round(e, 2) for e in table_spectra[(2, 25.0, 0.0)].levels]
        assert 9.94 in m0 and 9.94 in m1
        assert 17.46 in m1 and 17.46 in m2

    def test_monotonic_in_depth(self, table_spectra):
        lowest = [table_spectra[(0, v, 0.0)].levels[0] for v in (25.0, 49.0, 100.0)]
        assert lowest[0] < lowest[1] < lowest[2]
        assert [round(e, 2) for e in lowest] == [3.98, 4.41, 4.77]

    def test_level_count_weakly_decreasing_in_m(self, table_spectra):
        for v in (25.0, 49.0, 100.0):
            for factor in (0.0, 0.2, 1.0, 2.0):
                counts = [len(table_spectra[(m, v, factor)].levels) for m in (0, 1, 2)]
                assert counts[0] >= counts[1] >= counts[2]

    def test_replacement_symmetry_of_spectra(self, table_spectra):
        for (m, v, factor), spectrum in table_spectra.items():
            if factor != 1.0 or v != 25.0:
                continue
            partner = find_spectrum(DotParameters(v=v, beta=-spectrum.params.beta, m=-(m + 1)))
            assert len(partner.levels) == len(spectrum.levels)
            for a, b in zip(partner.levels, spectrum.levels):
                assert abs(a - b) < 1e-9

    def test_time_reversal_pairing_same_beta(self):
        # m -> -(m+1) at unchanged beta also preserves the spectrum
        base = find_spectrum(DotParameters(v=100.0, beta=2.0, m=1))
        partner = find_spectrum(DotParameters(v=100.0, beta=2.0, m=-2))
        assert len(partner.levels) == len(base.levels)
        deviation = max(abs(a - b) for a, b in zip(partner.levels, base.levels))
        print(f"time-reversal pairing deviation: {deviation:.2e}")
        assert deviation < 1e-9

    def test_empty_spectrum_is_valid(self):
        spectrum = find_spectrum(DotParameters(v=25.0, beta=0.0, m=8))
        assert spectrum.levels == ()

    def test_structural_zero_not_reported(self):
        # e = 0 makes the lower interior wave number vanish for m not in
        # {0, -1}; the determinant crosses there without a bound state
        spectrum = find_spectrum(DotParameters(v=100.0, beta=2.0, m=1))
        assert all(abs(e) > 1e-9 for e in spectrum.levels)
        assert any(abs(e) < 1e-6 for e in spectrum.diagnostics)

    def test_hard_wall_limit(self):
        # at huge depth the lowest uncoupled level approaches the square
        # of the first J0 zero
        spectrum = find_spectrum(
            DotParameters(v=1e6, beta=0.0, m=0),
            ScanSpec(grid_points=2000, e_max=30.0),
        )
        lowest = spectrum.levels[0]
        assert abs(lowest - FIRST_J0_ZERO_SQUARED) / FIRST_J0_ZERO_SQUARED < 0.01

    def test_scan_spec_validation(self):
        with pytest.raises(InvalidInput):
            ScanSpec(grid_points=50)
        with pytest.raises(InvalidInput):
            ScanSpec(refine_tol=0.0)

    def test_scan_clamps(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        clamped = find_spectrum(params, ScanSpec(e_min=5.0, e_max=15.0))
        assert [round(e, 2) for e in clamped.levels] == [9.94]

    def test_numpy_scalar_inputs(self):
        plain = find_spectrum(DotParameters(v=25.0, beta=10.0, m=0))
        numpy_typed = find_spectrum(
            DotParameters(v=np.float64(25), beta=np.float64(10), m=np.int64(0))
        )
        assert numpy_typed.levels == plain.levels
        assert numpy_typed.diagnostics == plain.diagnostics

    def test_deterministic_repeat(self):
        params = DotParameters(v=49.0, beta=7.0, m=2)
        assert find_spectrum(params).levels == find_spectrum(params).levels
