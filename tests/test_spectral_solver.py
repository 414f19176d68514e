import math
import warnings

import numpy as np
import pytest

from conftest import channel_determinant, paper_basis, paper_exterior
from rashbadot import spectral_solver
from rashbadot.errors import ArgumentOutOfRange, BracketInvalid, InvalidInput, WindowViolation
from rashbadot.radial_basis import WINDOW_MARGIN, DotParameters
from rashbadot.reference_levels import REFERENCE_ROWS
from rashbadot.spectral_solver import (
    ScanSpec,
    equilibrated_matrix,
    find_spectrum,
    match_matrix,
    scan_grid,
    spectral_determinant,
)

FIRST_J0_ZERO_SQUARED = 5.7831859629467845


def scan_value(params, e):
    """The value whose sign the scan reads at beta != 0."""
    return np.linalg.det(equilibrated_matrix(params, e)[0])


class TestMatchMatrix:
    def test_rows_follow_basis(self):
        params = DotParameters(v=100.0, beta=2.0, m=1)
        e = 30.0
        matrix = match_matrix(params, e)
        (f, g, df, dg), (f1, g1, df1, dg1) = paper_basis(1, e, 2.0, 1.0)
        (f2, g2, df2, dg2), (f21, g21, df21, dg21) = paper_exterior(1, e, 100.0, 2.0, 1.0)
        assert matrix[0] == pytest.approx((f, -f2, g, -g2), rel=1e-12)
        assert matrix[1] == pytest.approx((df, -df2, dg, -dg2), rel=1e-12)
        assert matrix[2] == pytest.approx((g1, -g21, f1, f21), rel=1e-12)
        assert matrix[3] == pytest.approx((dg1, -dg21, df1, df21), rel=1e-12)

    def test_equilibrated_columns(self):
        # unit columns, and scale takes them back to the true-scale waves
        params = DotParameters(v=100.0, beta=2.0, m=1)
        matrix, scale = equilibrated_matrix(params, 30.0)
        assert np.linalg.norm(matrix, axis=0) == pytest.approx(np.ones(4), rel=1e-15)
        true = matrix * scale
        paper = match_matrix(params, 30.0)
        a_column, b_column = true[:, 0], true[:, 2]
        assert paper[:, 0] == pytest.approx(0.5 * (a_column + b_column), rel=1e-13)
        assert paper[:, 1] == pytest.approx(true[:, 1], rel=1e-13)

    def test_lanes_independent_of_batch(self):
        # a lane's matrix is the same alone, in a chunk and in the full
        # 2000-point batch, and it is the scalar's within rounding
        params = DotParameters(v=100.0, beta=2.0, m=1)
        lo, hi = params.window
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 2000)
        full, full_scale = equilibrated_matrix(params, grid)
        assert full.shape == (2000, 4, 4) and full_scale.shape == (2000, 4)
        for start in (0, 993, 1993):
            chunk, chunk_scale = equilibrated_matrix(params, grid[start : start + 7])
            assert np.array_equal(chunk, full[start : start + 7])
            assert np.array_equal(chunk_scale, full_scale[start : start + 7])
        for i in (0, 1000, 1999):
            alone, alone_scale = equilibrated_matrix(params, grid[i : i + 1])
            assert np.array_equal(alone[0], full[i])
            assert np.array_equal(alone_scale[0], full_scale[i])
            scalar, scalar_scale = equilibrated_matrix(params, float(grid[i]))
            assert np.abs(full[i] - scalar).max() < 1e-14
            assert full_scale[i] == pytest.approx(scalar_scale, rel=1e-14)

    def test_block_diagonal_without_coupling(self):
        matrix = match_matrix(DotParameters(v=25.0, beta=0.0, m=0), 5.0)
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

    def test_nan_energy_is_a_window_violation(self):
        # NaN compares false with both window ends, at a float and in a
        # lane; the window check itself rejects it, not a later wave number
        params = DotParameters(v=25.0, beta=0.0, m=0)
        for e in (math.nan, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(WindowViolation, match="e = nan outside open window"):
                equilibrated_matrix(params, e)

    def test_window_message_names_the_first_offending_energy(self):
        # a violation on a scan grid names one energy, not the whole grid
        params = DotParameters(v=25.0, beta=0.0, m=0)
        grid = np.linspace(1.0, 30.0, 2000)
        with pytest.raises(WindowViolation) as info:
            equilibrated_matrix(params, grid)
        message = str(info.value)
        assert len(message) < 200
        assert repr(float(grid[grid >= 25.0][0])) in message
        assert "v=25.0, beta=0.0, m=0" in message

    def test_annihilates_reference_coefficients(self):
        # coefficient vector of the e = 37.0825 level
        params = DotParameters(v=100.0, beta=2.0, m=1)
        matrix = match_matrix(params, 37.0825)
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

    @pytest.mark.parametrize("v,m", [(0.15, 0), (0.1, -1), (1e-9, 0)], ids=str)
    def test_shallow_binding_channel_raises(self, v, m):
        # at beta = 0 the order-0 channel binds in every well; below v of
        # about 0.2 its level lies within WINDOW_MARGIN of the window top,
        # and at v = 1e-9 the window is narrower than its two margins
        with pytest.raises(ArgumentOutOfRange, match="WINDOW_MARGIN"):
            find_spectrum(DotParameters(v=v, beta=0.0, m=m))

    def test_shallow_binding_level_found(self):
        assert len(find_spectrum(DotParameters(v=0.3, beta=0.0, m=0)).levels) == 1
        # a clamped scan need not reach the binding level
        clamped = ScanSpec(e_max=0.1)
        assert find_spectrum(DotParameters(v=0.15, beta=0.0, m=0), clamped).levels == ()

    def test_structural_zero_not_reported(self):
        # e = 0 makes the lower interior wave number vanish for m not in
        # {0, -1}; dividing its wave by k^q removes the zero of order q
        # that the true-scale determinant has there
        params = DotParameters(v=100.0, beta=2.0, m=1)
        spectrum = find_spectrum(params)
        assert all(abs(e) >= 1e-3 for e in spectrum.levels)
        at_zero = scan_value(params, 0.0)
        assert math.isfinite(at_zero) and at_zero != 0.0
        for e in (-1e-12, 1e-12):
            assert abs(scan_value(params, e) - at_zero) <= 1e-6

    @pytest.mark.parametrize(
        "v,beta,m", [(100.0, 2.0, 20), (25.0, 1.0, 60), (100.0, 0.0, 30)], ids=str
    )
    def test_no_levels_at_large_m(self, v, beta, m):
        # the row-scaled determinant was rounding noise here: it reported
        # 5 levels, 558 levels and a pseudo-level at the window top
        assert find_spectrum(DotParameters(v=v, beta=beta, m=m)).levels == ()

    def test_no_levels_near_structural_zero(self):
        # 8 levels once, four of them (+-0.35, +-0.46, +-0.55) spurious,
        # in the region around e = 0 where the determinant was noise
        levels = find_spectrum(DotParameters(v=400.0, beta=5.0, m=10)).levels
        partner = find_spectrum(DotParameters(v=400.0, beta=-5.0, m=-11)).levels
        assert len(levels) == len(partner) == 4
        assert all(abs(e) > 100.0 for e in levels)
        for a, b in zip(levels, partner):
            assert abs(a - b) < 1e-9

    def test_uncoupled_count_falls_with_m(self):
        # the 2D finite-well threshold: no level in the u channel once
        # sqrt(v) is below the first zero of J_{|m|-1}, j_{7,1} = 11.09 > 10
        ms = (0, 2, 4, 6, 8, 12, 20, 26, 30, 40)
        counts = [len(find_spectrum(DotParameters(v=100.0, beta=0.0, m=m)).levels) for m in ms]
        assert counts == sorted(counts, reverse=True)
        assert all(count == 0 for m, count in zip(ms, counts) if m >= 8)

    @pytest.mark.parametrize(
        "v,beta,m",
        [
            (400.0, 5.0, 10),
            (400.0, -5.0, -11),
            (1000.0, 20.0, 12),
            (900.0, 30.0, 8),
            (400.0, 20.0, -5),
            (2500.0, 30.0, 6),
        ],
        ids=str,
    )
    def test_level_count_matches_fd_oracle(self, v, beta, m):
        # the finite-difference eigensolver shares no code with the
        # matching determinant; at beta >= 20 its step is too coarse to
        # compare values, so only the weakly coupled cases check them
        pytest.importorskip("scipy")
        from oracle_fd import bound_levels

        levels = find_spectrum(DotParameters(v=v, beta=beta, m=m)).levels
        reference = bound_levels(m, v, beta)
        assert len(levels) == len(reference)
        if abs(beta) < 20.0:
            assert max(abs(a - b) for a, b in zip(levels, reference)) < 5e-3

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
        cap = spectral_solver.GRID_POINTS_CAP
        assert ScanSpec(grid_points=cap).grid_points == cap
        for points in (150.5, "2000", None, math.inf, math.nan, cap + 1):
            with pytest.raises(InvalidInput):
                ScanSpec(grid_points=points)

    @pytest.mark.parametrize("v,beta", [(25.0, 1.0), (25.0, 0.0)])
    def test_vanishing_scan_raises(self, monkeypatch, v, beta):
        # a scan that is zero at every grid point carries no sign
        # information, so it fails instead of returning no levels; equal
        # columns make the determinant and both channel minors vanish
        def vanishing(params, e):
            return np.ones(np.shape(e) + (4, 4)), np.ones(np.shape(e) + (4,))

        monkeypatch.setattr(spectral_solver, "equilibrated_matrix", vanishing)
        with pytest.raises(BracketInvalid):
            find_spectrum(DotParameters(v=v, beta=beta, m=0))

    @pytest.mark.parametrize("v,beta", [(25.0, 1.0), (25.0, 0.0)])
    def test_non_finite_scan_raises(self, monkeypatch, v, beta):
        # NaN compares false both ways, so it would read as "no sign
        # change" and drop the levels beside it without an error
        def poisoned(params, e):
            matrix = np.broadcast_to(np.eye(4), np.shape(e) + (4, 4)).copy()
            matrix[..., 0, 0] = np.where(np.asarray(e) > 10.0, np.nan, 1.0)
            return matrix, np.ones(np.shape(e) + (4,))

        monkeypatch.setattr(spectral_solver, "equilibrated_matrix", poisoned)
        # numpy flags the NaN it is given; the scan must not pass it on
        with pytest.raises(BracketInvalid, match="at e = 10.0"), np.errstate(invalid="ignore"):
            find_spectrum(DotParameters(v=v, beta=beta, m=0))

    @pytest.mark.parametrize("points", [2000.0, np.int64(2000)])
    def test_scan_spec_integral_grid_points(self, points):
        spec = ScanSpec(grid_points=points)
        assert spec.grid_points == 2000 and type(spec.grid_points) is int
        # the float spec scans the int spec's grid
        params = DotParameters(v=25.0, beta=0.0, m=0)
        assert find_spectrum(params, spec) == find_spectrum(params, ScanSpec(grid_points=2000))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("refine_tol", "tight"),
            ("refine_tol", None),
            ("refine_tol", math.inf),
            ("refine_tol", math.nan),
            ("e_min", math.nan),
            ("e_min", "low"),
            ("e_min", 1j),
            ("e_min", -math.inf),
            ("e_max", math.nan),
            ("e_max", math.inf),
            pytest.param("e_max", 10**400, id="e_max-int-beyond-float"),
        ],
    )
    def test_scan_spec_rejects_bad_real(self, field, value):
        with pytest.raises(InvalidInput):
            ScanSpec(**{field: value})

    def test_scan_spec_reals_are_floats(self):
        spec = ScanSpec(refine_tol="1e-12", e_min=5, e_max=np.int64(15))
        assert (spec.refine_tol, spec.e_min, spec.e_max) == (1e-12, 5.0, 15.0)
        assert all(type(x) is float for x in (spec.refine_tol, spec.e_min, spec.e_max))
        # an inverted clamp is a valid, empty spectrum
        params = DotParameters(v=25.0, beta=0.0, m=0)
        assert find_spectrum(params, ScanSpec(e_min=15.0, e_max=5.0)).levels == ()

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

    def test_deterministic_repeat(self):
        params = DotParameters(v=49.0, beta=7.0, m=2)
        assert find_spectrum(params).levels == find_spectrum(params).levels

    @pytest.mark.parametrize("v,beta,m", [(100.0, 2.0, 1), (25.0, 0.0, 0)])
    def test_chunking_does_not_change_levels(self, monkeypatch, v, beta, m):
        # every energy is one independent lane, so the grid evaluated in
        # one batch, in chunks of 7 and point by point gives equal spectra
        params = DotParameters(v=v, beta=beta, m=m)
        scan = ScanSpec(grid_points=500)
        whole = find_spectrum(params, scan)
        assert whole.levels
        for chunk in (7, 1):
            monkeypatch.setattr(spectral_solver, "SCAN_CHUNK", chunk)
            split = find_spectrum(params, scan)
            assert split.levels == whole.levels

    def test_seeded_refinement_is_cheap_on_the_reference_rows(self, monkeypatch):
        # each bracket carries the root of the polynomial through the scan
        # samples around it, so Brent needs few determinant evaluations
        # (3.96 a level when every refinement started from the bracket ends)
        refine_root = spectral_solver.refine_root
        evaluations, brackets = [0], [0]

        def counted(f, bracket, tol):
            brackets[0] += 1

            def evaluated(e):
                evaluations[0] += 1
                return f(e)

            return refine_root(evaluated, bracket, tol)

        monkeypatch.setattr(spectral_solver, "refine_root", counted)
        levels = sum(
            len(find_spectrum(DotParameters(row.v, row.beta, row.m)).levels)
            for row in REFERENCE_ROWS
        )
        assert brackets[0] == levels == 139
        assert evaluations[0] <= 2.5 * levels

    @pytest.mark.parametrize("v,beta,m", [(100.0, 2.0, 1), (25.0, 0.0, 0)])
    def test_refines_each_bracket_through_refine_root(self, monkeypatch, v, beta, m):
        # every sign-change bracket of the scan, of both channels at
        # beta = 0, is refined by one call of the module-level name, so a
        # wrapper over that name sees every refinement
        params = DotParameters(v=v, beta=beta, m=m)
        plain = find_spectrum(params)
        refine_root = spectral_solver.refine_root
        calls = []

        def counted(f, bracket, tol):
            calls.append((f, bracket))
            return refine_root(f, bracket, tol)

        monkeypatch.setattr(spectral_solver, "refine_root", counted)
        patched = find_spectrum(params)
        assert patched.levels == plain.levels

        lo, hi = params.window
        a, b = lo + WINDOW_MARGIN, hi - WINDOW_MARGIN
        grid = scan_grid(a, b, beta, ScanSpec().grid_points)
        matrix = equilibrated_matrix(params, grid)[0]
        if beta != 0.0:
            channels = [np.linalg.det(matrix)]
        else:
            # the matrix is block diagonal: u on rows 0-1, w on rows 2-3
            channels = [
                np.linalg.det(matrix[:, 0:2][:, :, [0, 1]]),
                np.linalg.det(matrix[:, 2:4][:, :, [0, 3]]),
            ]
        changes = [int(np.count_nonzero(c[:-1] * c[1:] < 0.0)) for c in channels]
        assert all(count > 0 for count in changes)
        assert len(calls) == sum(changes)
        for f, bracket in calls:
            assert bracket.lo in grid and bracket.hi in grid
            assert f(bracket.lo) * bracket.f_lo > 0.0
            assert f(bracket.hi) * bracket.f_hi > 0.0

    @pytest.mark.parametrize(
        "v,beta,m,e",
        [
            (100.0, 0.0, 50, 100.0 - 1e-9),  # K_49 overflows at the window top
            (1e5, 1.0, 0, 5e4),  # k r beyond the validated J domain
        ],
    )
    def test_out_of_domain_lane_raises_as_scalar(self, v, beta, m, e):
        params = DotParameters(v=v, beta=beta, m=m)
        with pytest.raises(ArgumentOutOfRange):
            equilibrated_matrix(params, e)
        with pytest.raises(ArgumentOutOfRange):
            equilibrated_matrix(params, np.array([1.0, e]))
        with pytest.raises(ArgumentOutOfRange):
            find_spectrum(params)

    def test_reference_rows_emit_no_warnings(self):
        # converged lanes keep iterating on discarded values; none of that
        # may surface as a floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in REFERENCE_ROWS:
                find_spectrum(DotParameters(v=row.v, beta=row.beta, m=row.m))


class TestScanGrid:
    @pytest.mark.parametrize("v,beta,m", [(25.0, 0.0, 0), (100.0, 2.0, 1), (1.0, -300.0, 0)])
    @pytest.mark.parametrize("clamp", [(None, None), (0.3, 0.7), (-1.0, 0.8)], ids=str)
    def test_strictly_increasing_with_exact_ends(self, monkeypatch, v, beta, m, clamp):
        # the grid find_spectrum scans runs from the margin-shrunk window
        # ends, clamped by e_min / e_max (which never widen it), and pins
        # both ends exactly; clamp gives them as fractions of the window
        params = DotParameters(v=v, beta=beta, m=m)
        lo, hi = params.window
        e_min, e_max = (None if f is None else lo + f * (hi - lo) for f in clamp)
        a = lo + WINDOW_MARGIN if e_min is None else max(lo + WINDOW_MARGIN, e_min)
        b = hi - WINDOW_MARGIN if e_max is None else min(hi - WINDOW_MARGIN, e_max)
        build = spectral_solver.scan_grid
        grids = []

        def recorded(*args):
            grids.append(build(*args))
            return grids[-1]

        monkeypatch.setattr(spectral_solver, "scan_grid", recorded)
        find_spectrum(params, ScanSpec(e_min=e_min, e_max=e_max))
        (grid,) = grids
        assert len(grid) == ScanSpec().grid_points
        assert grid[0] == a and grid[-1] == b
        assert np.all(np.diff(grid) > 0.0)

    def test_uniform_in_interior_wave_number(self):
        beta = 12.0
        grid = scan_grid(-35.0, 60.0, beta, 400)
        steps = np.diff(np.sqrt(grid + 0.25 * beta * beta))
        assert steps == pytest.approx(np.full(399, steps.mean()), rel=1e-9)

    @pytest.mark.parametrize(
        "v,beta,m",
        [
            # the wells whose adjacent levels lay closest on a 2000-point
            # grid uniform in e, 1.46 to 1.64 of its steps apart
            (9961.549810803253, 125.77606606560674, -2),
            (9627.09760307169, 143.12709916931476, 5),
            (9512.792778045305, 27.52841271669822, 0),
            (9008.743815143705, 155.5570240698456, -12),
            (2500.0, 100.0, -12),
            (2500.0, 40.0, 12),
            (6000.0, 100.0, 8),
            (4000.0, 0.0, 3),
        ],
        ids=str,
    )
    def test_coarse_grid_keeps_every_deep_level(self, v, beta, m):
        # deep levels lie about evenly in the interior wave number, so 200
        # points uniform in it resolve every one a 20000-point scan finds
        params = DotParameters(v=v, beta=beta, m=m)
        fine = find_spectrum(params, ScanSpec(grid_points=20000)).levels
        coarse = find_spectrum(params, ScanSpec(grid_points=200)).levels
        assert len(coarse) == len(fine)
        assert max(abs(x - y) for x, y in zip(coarse, fine)) < 1e-11
