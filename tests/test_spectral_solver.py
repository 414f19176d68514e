import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DEEP_WELLS,
    channel_determinant,
    counted_lane_calls,
    match_matrix,
    paper_basis,
    paper_exterior,
    spectral_determinant,
    uncoupled_level_count,
)
from rashbadot import spectral_solver
from rashbadot.errors import ArgumentOutOfRange, InvalidInput, NumericalFailure
from rashbadot.radial_basis import WINDOW_MARGIN, DotParameters, exterior_wave_numbers
from rashbadot.special_functions import J_ARGUMENT_CAP
from rashbadot.reference_levels import REFERENCE_ROWS
from rashbadot.spectral_solver import (
    GRID_POINTS_MIN,
    GRID_STEP_S,
    REFINE_TOL,
    equilibrated_matrix,
    find_spectrum,
    scan_grid,
)
from rashbadot.wavefunction import solve_coefficients

FIRST_J0_ZERO_SQUARED = 5.7831859629467845


def counted_refinement(monkeypatch) -> dict:
    """Wrap ``spectral_solver.refine_root`` to count its calls
    ("brackets") and the determinant evaluations they make
    ("evaluations")."""
    refine_root = spectral_solver.refine_root
    counts = {"brackets": 0, "evaluations": 0}

    def counted(f, bracket, tol):
        counts["brackets"] += 1

        def evaluated(e):
            counts["evaluations"] += 1
            return f(e)

        return refine_root(evaluated, bracket, tol)

    monkeypatch.setattr(spectral_solver, "refine_root", counted)
    return counts


def recorded_grids(monkeypatch) -> list:
    """Wrap ``spectral_solver.scan_grid`` to keep every grid it builds."""
    build = spectral_solver.scan_grid
    grids = []

    def recorded(a, b, beta):
        grids.append(build(a, b, beta))
        return grids[-1]

    monkeypatch.setattr(spectral_solver, "scan_grid", recorded)
    return grids


def sized_points(a: float, b: float, beta: float) -> int:
    """The points of a grid from ``a`` to ``b`` before repeats are
    dropped: steps of at most GRID_STEP_S in the interior wave number,
    and at least GRID_POINTS_MIN."""
    quarter = 0.25 * beta * beta
    span = math.sqrt(b + quarter) - math.sqrt(a + quarter)
    return max(math.ceil(span / GRID_STEP_S) + 1, GRID_POINTS_MIN)


def deep_sweep_wells(seed: int) -> list[DotParameters]:
    """The wells of the benchmark's ``deep_sweep`` workload for ``seed``,
    from ``bench/workloads.py`` without putting ``bench`` on the path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [DotParameters(w["v"], w["beta"], w["m"]) for w in module.deep_sweep_items(seed)]


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
        # unit columns, and scale takes them back to the stored waves: true
        # scale inside, e^{Re kappa} times true scale outside
        params = DotParameters(v=100.0, beta=2.0, m=1)
        matrix, scale = equilibrated_matrix(params, 30.0)
        assert np.linalg.norm(matrix, axis=0) == pytest.approx(np.ones(4), rel=1e-15)
        true = matrix * scale
        paper = match_matrix(params, 30.0)
        a_column, b_column = true[:, 0], true[:, 2]
        edge = math.exp(-exterior_wave_numbers(30.0, 100.0, 2.0).real)
        assert paper[:, 0] == pytest.approx(0.5 * (a_column + b_column), rel=1e-13)
        assert paper[:, 1] == pytest.approx(true[:, 1] * edge, rel=1e-13)

    def test_lanes_independent_of_batch(self):
        # a lane's matrix is the same alone, in a chunk and in the full
        # 2000-point batch, and within 1e-14 of the scalar's: both forms sum
        # the same terms and take the same column norm, but numpy's complex
        # arithmetic (K) and np.power (the x^-power of J) round unlike the
        # interpreter's by an ulp; the second well takes negative and odd
        # orders, a negative sign factor, J arguments of both signs in one
        # call (k_+ < 0 < k_-) and conjugated K arguments (Im kappa < 0)
        for params in (DotParameters(100.0, 2.0, 1), DotParameters(100.0, -20.0, -3)):
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
        with pytest.raises(InvalidInput, match="e = -0.5 outside open window"):
            match_matrix(params, -0.5)
        with pytest.raises(InvalidInput, match="e = 25.0 outside open window"):
            match_matrix(params, 25.0)

    def test_nan_energy_is_a_window_violation(self):
        # NaN compares false with both window ends, at a float and in a
        # lane; the window check itself rejects it, not a later wave number
        params = DotParameters(v=25.0, beta=0.0, m=0)
        for e in (math.nan, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(InvalidInput, match="e = nan outside open window"):
                equilibrated_matrix(params, e)

    def test_window_message_names_the_first_offending_energy(self):
        # a violation on a scan grid names one energy, not the whole grid
        params = DotParameters(v=25.0, beta=0.0, m=0)
        grid = np.linspace(1.0, 30.0, 2000)
        with pytest.raises(InvalidInput, match="outside open window") as info:
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

    @pytest.mark.parametrize(
        "wells",
        [
            [DotParameters(row.v, row.beta, row.m) for row in REFERENCE_ROWS if row.beta == 0.0],
            *(
                [DotParameters(v, 0.0, m) for m in range(-6, 6)]
                for v in (0.5, 25.0, 400.0, 2500.0, 1e4)
            ),
        ],
        ids=["reference", "v=0.5", "v=25", "v=400", "v=2500", "v=1e4"],
    )
    def test_uncoupled_levels_alternate_channels(self, wells):
        # at beta = 0 the levels of the channels of orders q and q + 1,
        # q = min(|m|, |m+1|), interlace, the lowest of order q, so no
        # level is shared and the determinant changes sign at each one.
        # solve_coefficients zeroes the other channel exactly: (d1, d2)
        # for a u level, (c1, c2) for a w level; order q is u for m >= 0
        levels = 0
        for params in wells:
            channels = []
            for e in find_spectrum(params).levels:
                c1, c2, d1, d2 = solve_coefficients(params, e).coefficients
                u_level, w_level = d1 == d2 == 0.0, c1 == c2 == 0.0
                assert u_level != w_level, (params, e)
                channels.append("u" if u_level else "w")
            order_q = "u" if params.m >= 0 else "w"
            expected = [order_q, "w" if order_q == "u" else "u"] * len(channels)
            assert channels == expected[: len(channels)], params
            levels += len(channels)
        assert levels > 0

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

    @pytest.mark.parametrize("v,beta,m", [(1e-5, 2.0, 0), (1e-5, 10.0, -1), (1e-6, 2.0, 0)])
    def test_shallow_coupled_binding_level_raises(self, v, beta, m):
        # with coupling, m = 0 and -1 bind a level in every well too; its
        # binding energy falls as v^2, below WINDOW_MARGIN at v = 1e-5
        with pytest.raises(ArgumentOutOfRange, match="WINDOW_MARGIN"):
            find_spectrum(DotParameters(v=v, beta=beta, m=m))

    def test_shallow_coupled_binding_level_found(self):
        # about 5e-9 below the window top, beyond its margin
        (level,) = find_spectrum(DotParameters(v=1e-4, beta=2.0, m=0)).levels
        assert -1.0 + 1e-4 - 1e-8 < level < -1.0 + 1e-4 - WINDOW_MARGIN

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
        # of the first J0 zero; the whole window holds the identity's count
        spectrum = find_spectrum(DotParameters(v=1e6, beta=0.0, m=0))
        assert len(spectrum.levels) == uncoupled_level_count(1e6, 0) == 637
        lowest = spectrum.levels[0]
        assert abs(lowest - FIRST_J0_ZERO_SQUARED) / FIRST_J0_ZERO_SQUARED < 0.003

    @pytest.mark.parametrize("v,beta", [(25.0, 1.0), (25.0, 0.0)])
    def test_vanishing_scan_raises(self, monkeypatch, v, beta):
        # a scan that is zero at every grid point carries no sign
        # information, so it fails instead of returning no levels; equal
        # columns make the determinant vanish, at beta = 0 as at beta != 0
        def vanishing(params, e):
            return np.ones(np.shape(e) + (4, 4)), np.ones(np.shape(e) + (4,))

        monkeypatch.setattr(spectral_solver, "equilibrated_matrix", vanishing)
        with pytest.raises(NumericalFailure, match="vanish on the whole grid: no sign information"):
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
        failure = pytest.raises(NumericalFailure, match=r"at e = 10\.0.*: no sign information")
        with failure, np.errstate(invalid="ignore"):
            find_spectrum(DotParameters(v=v, beta=beta, m=0))

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
        whole = find_spectrum(params)
        assert whole.levels
        for chunk in (7, 1):
            monkeypatch.setattr(spectral_solver, "SCAN_CHUNK", chunk)
            split = find_spectrum(params)
            assert split.levels == whole.levels

    def test_seeded_refinement_is_cheap_on_the_reference_rows(self, monkeypatch):
        # each bracket's guess, the root of the polynomial through the scan
        # samples around it, is certified and narrows the bracket, so the
        # refinement needs few determinant evaluations (over 4 a level on
        # the whole bracket)
        counts = counted_refinement(monkeypatch)
        levels = sum(
            len(find_spectrum(DotParameters(row.v, row.beta, row.m)).levels)
            for row in REFERENCE_ROWS
        )
        assert counts["brackets"] == levels == 139
        assert counts["evaluations"] <= 0.5 * levels

    def test_uncoupled_deep_wells_refine_cheaply(self, monkeypatch):
        # at beta = 0 the one determinant scan gives each level one
        # bracket, narrowed by its certified guess, as at beta != 0: the
        # bound is the one the benchmark's deep_sweep smoke applies
        counts = counted_refinement(monkeypatch)
        levels = sum(
            len(find_spectrum(DotParameters(v, 0.0, m)).levels)
            for v in (2500.0, 1e4)
            for m in (-7, -1, 0, 3, 12)
        )
        assert levels > 0
        assert counts["evaluations"] <= 0.6 * levels

    def test_second_probe_round_keeps_deep_wells_cheap(self, monkeypatch):
        # deep wells leave dozens of brackets open after the first probe
        # round; a second round at their Newton-moved guesses closes most
        # of them (one round leaves the refinement 1.62 evaluations a
        # level here)
        counts = counted_refinement(monkeypatch)
        levels = sum(len(find_spectrum(DotParameters(*well)).levels) for well in DEEP_WELLS)
        assert counts["evaluations"] <= 0.5 * levels

    def test_reference_rows_make_one_probe_lane_call(self, monkeypatch):
        # no reference row leaves PROBE_ROUND_MIN brackets open after the
        # first probe round, so each makes two lane calls: the grid (one
        # chunk) and the probes of its first round
        lane_calls = counted_lane_calls(monkeypatch)
        for row in REFERENCE_ROWS:
            lane_calls[0] = 0
            assert find_spectrum(DotParameters(row.v, row.beta, row.m)).levels
            assert lane_calls[0] == 2, row

    @pytest.mark.parametrize("v,beta,m", [(2500.0, 10.0, 5), (4000.0, 0.0, 3)])
    def test_probes_only_guesses_with_both_points_inside(self, monkeypatch, v, beta, m):
        # find_spectrum alone picks the brackets it probes: a guess that is
        # NaN, or within REFINE_TOL / 2 of an end of its bracket, is not
        # probed, and its bracket reaches the refinement with its scan ends
        params = DotParameters(v, beta, m)
        plain = find_spectrum(params).levels
        half = 0.5 * REFINE_TOL
        interpolant_root = spectral_solver.interpolant_root
        kept, skipped = [], []

        def spoiled(nodes, coefficients, lo, hi):
            guess, slope = interpolant_root(nodes, coefficients, lo, hi)
            turn = (len(kept) + len(skipped)) % 4
            if turn == 3:
                assert lo < guess - half and guess + half < hi
                kept.append((lo, hi))
                return guess, slope
            skipped.append((lo, hi))
            return (math.nan, lo + 0.5 * half, hi - 0.5 * half)[turn], slope

        lanes = []
        equilibrated = spectral_solver.equilibrated_matrix

        def recorded(params, e):
            if isinstance(e, np.ndarray):
                lanes.append(len(e))
            return equilibrated(params, e)

        refined = []
        refine_root = spectral_solver.refine_root

        def counted(f, bracket, tol):
            refined.append((bracket.lo, bracket.hi))
            return refine_root(f, bracket, tol)

        monkeypatch.setattr(spectral_solver, "interpolant_root", spoiled)
        monkeypatch.setattr(spectral_solver, "equilibrated_matrix", recorded)
        monkeypatch.setattr(spectral_solver, "refine_root", counted)
        levels = find_spectrum(params).levels
        # NaN, near the low end and near the high end, at least once each
        assert kept and len(skipped) >= 3
        # the scan (one chunk), then the probes of the kept guesses
        assert lanes[1] == 2 * len(kept)
        assert set(skipped) <= set(refined)
        assert len(levels) == len(plain)

    def test_certified_guesses_keep_the_brent_levels(self, monkeypatch):
        # the values either side of each guess narrow its bracket; the
        # refinement of the whole bracket, from its ends, is the reference,
        # and the deep wells' determinants resolve a root to a few 1e-12
        # in e (REFINE_TOL)
        wells = [DotParameters(row.v, row.beta, row.m) for row in REFERENCE_ROWS]
        wells += [DotParameters(*well) for well in DEEP_WELLS]
        narrowed = [find_spectrum(params).levels for params in wells]
        monkeypatch.setattr(spectral_solver, "narrow_bracket", lambda bracket, *_: bracket)
        for params, levels in zip(wells, narrowed):
            reference = find_spectrum(params).levels
            assert len(levels) == len(reference), params
            assert np.max(np.abs(np.subtract(levels, reference)), initial=0.0) <= 4e-12, params

    def test_reference_levels_lie_at_the_determinant_sign_change(self, table_spectra):
        # a level is the regula falsi point of a bracket at most REFINE_TOL
        # wide, not an end of it: on the reference rows the scan's
        # determinant changes sign within 5e-14 of every level
        for spectrum in table_spectra.values():
            for e in spectrum.levels:
                below = scan_value(spectrum.params, e - 5e-14)
                above = scan_value(spectrum.params, e + 5e-14)
                assert below * above < 0.0, (spectrum.params, e)

    @pytest.mark.parametrize("v,beta,m", [(100.0, 2.0, 1), (25.0, 0.0, 0)])
    def test_refines_each_bracket_through_refine_root(self, monkeypatch, v, beta, m):
        # every sign-change bracket of the scan's determinant, at every
        # beta, is refined by one call of the module-level name, so a
        # wrapper over that name sees every refinement
        params = DotParameters(v=v, beta=beta, m=m)
        plain = find_spectrum(params)
        refine_root = spectral_solver.refine_root
        calls = []

        def counted(f, bracket, tol):
            assert tol == REFINE_TOL
            calls.append((f, bracket))
            return refine_root(f, bracket, tol)

        monkeypatch.setattr(spectral_solver, "refine_root", counted)
        patched = find_spectrum(params)
        assert patched.levels == plain.levels

        lo, hi = params.window
        a, b = lo + WINDOW_MARGIN, hi - WINDOW_MARGIN
        grid = scan_grid(a, b, beta)
        values = np.linalg.det(equilibrated_matrix(params, grid)[0])
        changes = int(np.count_nonzero(values[:-1] * values[1:] < 0.0))
        assert changes > 0
        assert len(calls) == changes
        for f, bracket in calls:
            # inside one scan step, narrowed by the values either side of
            # its guess.  After one probe round, which is all these wells
            # take, a bracket with neither end on the grid straddles the
            # guess and is REFINE_TOL wide, up to the rounding of its two
            # ends; a second round would also leave brackets between a
            # probe point of each round, which are wider
            step = np.searchsorted(grid, bracket.hi) - 1
            assert grid[step] <= bracket.lo < bracket.hi <= grid[step + 1]
            if bracket.lo not in grid and bracket.hi not in grid:
                assert bracket.hi - bracket.lo <= REFINE_TOL + 2 * math.ulp(bracket.hi)
            assert f(bracket.lo) * bracket.f_lo > 0.0
            assert f(bracket.hi) * bracket.f_hi > 0.0

    @pytest.mark.parametrize(
        "v,beta,m,e",
        [
            (100.0, 0.0, 50, 100.0 - 1e-9),  # K_49 overflows at the window top
            (1e7, 1.0, 0, 5e6),  # k r beyond the validated J domain
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
        # the lane K order recurrence may overflow inside np.errstate, which
        # its finiteness check reports; no floating-point warning may surface
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in REFERENCE_ROWS:
                find_spectrum(DotParameters(v=row.v, beta=row.beta, m=row.m))


class TestScanGrid:
    @pytest.mark.parametrize(
        "v,beta,m",
        [(25.0, 0.0, 0), (100.0, 2.0, 1), (1.0, -300.0, 0), (1e-8, 399.0, 0), (3e-9, 399.0, 0)],
    )
    @pytest.mark.parametrize("clamp", [(None, None), (0.3, 0.7), (-1.0, 0.8)], ids=str)
    def test_strictly_increasing_with_exact_ends(self, monkeypatch, v, beta, m, clamp):
        # the grid find_spectrum scans runs from the margin-shrunk window
        # ends and pins both ends exactly; a clamp, as fractions of the
        # window, gives a sub-range (never a wider one) whose scan_grid pins
        # its ends too.  In the shallowest well at beta = 399 some of the
        # sized grid's steps in s map below the float spacing of e near
        # -beta^2/4, and their repeats are dropped; at v = 1e-8 its 300
        # steps all stay above it
        params = DotParameters(v=v, beta=beta, m=m)
        lo, hi = params.window
        a, b = lo + WINDOW_MARGIN, hi - WINDOW_MARGIN
        if clamp == (None, None):
            grids = recorded_grids(monkeypatch)
            if v < 1e-6:
                # the well's m = 0 level lies within WINDOW_MARGIN of the
                # top, which the scan reports
                with pytest.raises(ArgumentOutOfRange, match="WINDOW_MARGIN"):
                    find_spectrum(params)
            else:
                find_spectrum(params)
            (grid,) = grids
        else:
            a = max(a, lo + clamp[0] * (hi - lo))
            b = min(b, lo + clamp[1] * (hi - lo))
            grid = scan_grid(a, b, beta)
        assert grid[0] == a and grid[-1] == b
        assert np.all(np.diff(grid) > 0.0)
        # between the ends, every distinct inner node uniform in s, and
        # only those, as many as the window's sized grid holds
        points = sized_points(a, b, beta)
        quarter = 0.25 * beta * beta
        s = np.linspace(math.sqrt(a + quarter), math.sqrt(b + quarter), points)
        nodes = np.unique(s[1:-1] * s[1:-1] - quarter)
        assert np.array_equal(grid[1:-1], nodes[(a < nodes) & (nodes < b)])
        assert (len(grid) < points) == (v < 5e-9)

    def test_reference_rows_scan_the_floor(self, monkeypatch):
        # the rows' windows span 5 to 10 in s: 51 to 101 steps of
        # GRID_STEP_S, raised to the floor
        grids = recorded_grids(monkeypatch)
        for row in REFERENCE_ROWS:
            find_spectrum(DotParameters(v=row.v, beta=row.beta, m=row.m))
        assert len(grids) == 36
        assert all(len(grid) == GRID_POINTS_MIN == 300 for grid in grids)

    def test_deep_wells_are_sized_by_their_step(self):
        # the deep_sweep wells span 50 to 100 in s
        wells = deep_sweep_wells(1)
        assert len(wells) == 32
        for params in wells:
            lo, hi = params.window
            a, b = lo + WINDOW_MARGIN, hi - WINDOW_MARGIN
            grid = scan_grid(a, b, params.beta)
            assert 501 <= sized_points(a, b, params.beta) == len(grid) <= 1001
            steps = np.diff(np.sqrt(grid + 0.25 * params.beta**2))
            assert steps.max() <= GRID_STEP_S

    @pytest.mark.parametrize(("beta", "points"), [(0.0, 20001), (10.0, 19951)])
    def test_largest_sized_grid_is_at_the_j_domain_edge(self, monkeypatch, beta, points):
        # find_spectrum checks J_ARGUMENT_CAP before it sizes the grid, which
        # bounds the window's span in s by 2000 - |beta|/2: the well whose
        # window top takes J at the cap gets the largest grid.  Its size is
        # read as scan_grid returns it, before any scan
        class Sized(Exception):
            pass

        build = spectral_solver.scan_grid

        def sized(a, b, beta):
            raise Sized(len(build(a, b, beta)))

        monkeypatch.setattr(spectral_solver, "scan_grid", sized)
        edge = (J_ARGUMENT_CAP - 0.5 * beta) ** 2
        with pytest.raises(Sized) as info:
            find_spectrum(DotParameters(v=edge, beta=beta, m=0))
        assert info.value.args == (points,)
        # a deeper well fails the J check without a grid
        with pytest.raises(ArgumentOutOfRange, match="beyond the validated J argument domain"):
            find_spectrum(DotParameters(v=edge * (1.0 + 1e-9), beta=beta, m=0))

    @pytest.mark.parametrize("v", [4.5e6, 1.6e7])
    def test_window_beyond_the_j_domain_raises_before_a_scan(self, monkeypatch, v):
        # the window top sets the largest interior wave number, sqrt(v) at
        # beta = 0: past J_ARGUMENT_CAP the spectrum fails at once, naming
        # the well and the window, where it used to scan the chunks below
        # the cap first; the whole window of v = 1e6 (k up to 1000) still
        # scans, with its 637 levels (test_hard_wall_limit)
        calls = []
        equilibrated = spectral_solver.equilibrated_matrix

        def counted(params, e):
            calls.append(e)
            return equilibrated(params, e)

        monkeypatch.setattr(spectral_solver, "equilibrated_matrix", counted)
        params = DotParameters(v=v, beta=0.0, m=0)
        message = (
            rf"^window \(1e-09, .*\) of {re.escape(repr(params))} reaches the interior "
            r"wave number .*, beyond the validated J argument domain 2000\.0$"
        )
        with pytest.raises(ArgumentOutOfRange, match=message):
            find_spectrum(params)
        assert calls == []

    def test_uniform_in_interior_wave_number(self, monkeypatch):
        # s runs from 1 to sqrt(96): the floor sets the points
        monkeypatch.setattr(spectral_solver, "GRID_POINTS_MIN", 400)
        beta = 12.0
        grid = scan_grid(-35.0, 60.0, beta)
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
    def test_coarse_grid_keeps_every_deep_level(self, monkeypatch, v, beta, m):
        # deep levels lie about evenly in the interior wave number, so 200
        # points uniform in it resolve every one a 20000-point scan finds;
        # a step wider than any window leaves GRID_POINTS_MIN to set the points
        params = DotParameters(v=v, beta=beta, m=m)
        grids = recorded_grids(monkeypatch)
        monkeypatch.setattr(spectral_solver, "GRID_STEP_S", math.inf)
        monkeypatch.setattr(spectral_solver, "GRID_POINTS_MIN", 20000)
        fine = find_spectrum(params).levels
        monkeypatch.setattr(spectral_solver, "GRID_POINTS_MIN", 200)
        coarse = find_spectrum(params).levels
        assert [len(grid) for grid in grids] == [20000, 200]
        assert len(coarse) == len(fine)
        assert max(abs(x - y) for x, y in zip(coarse, fine)) < 1e-11
