import math
import random
from dataclasses import replace

import pytest

from conftest import (
    DEEP_STATE_WELLS,
    match_matrix,
    matching_residuals,
    overlap_parts,
    tail_form,
)
from rashbadot import wavefunction
from rashbadot.errors import InvalidInput, NumericalFailure
from rashbadot.radial_basis import (
    DotParameters,
    exterior_pair,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)
from rashbadot.spectral_solver import find_spectrum
from rashbadot.wavefunction import (
    BoundState,
    evaluate_radial,
    evaluate_spinor,
    normalize,
    ode_residual,
    region_density_integrals,
    solve_coefficients,
)

FIG1_COEFFICIENTS = (4.22035, -4067.87, -0.7139284, 880.843)
FIG2_COEFFICIENTS = (0.713928, 880.843, -4.22035, 4067.87)


@pytest.fixture(scope="module")
def fig1_state():
    params = DotParameters(v=100.0, beta=2.0, m=1)
    spectrum = find_spectrum(params)
    return normalize(solve_coefficients(params, spectrum.levels[2]))


@pytest.fixture(scope="module")
def shallow_state():
    params = DotParameters(v=25.0, beta=1.0, m=0)
    spectrum = find_spectrum(params)
    return normalize(solve_coefficients(params, spectrum.levels[0]))


def ratios(vec):
    return tuple(vec[i] / vec[0] for i in range(1, 4))


class TestSolveCoefficients:
    def test_reference_ratios(self, fig1_state):
        assert abs(fig1_state.e - 37.0825) < 1e-3
        got = ratios(fig1_state.coefficients)
        want = ratios(FIG1_COEFFICIENTS)
        for g, w in zip(got, want):
            assert abs(g - w) / abs(w) < 1e-3

    def test_swapped_sector_ratios(self):
        params = DotParameters(v=100.0, beta=2.0, m=-2)
        spectrum = find_spectrum(params)
        e = min(spectrum.levels, key=lambda x: abs(x - 37.0825))
        state = solve_coefficients(params, e)
        got = ratios(state.coefficients)
        want = ratios(FIG2_COEFFICIENTS)
        for g, w in zip(got, want):
            assert abs(g - w) / abs(w) < 1e-3

    def test_uncoupled_kernel_has_exact_zeros(self):
        params = DotParameters(v=25.0, beta=0.0, m=0)
        levels = find_spectrum(params).levels
        state = solve_coefficients(params, levels[0])
        c1, c2, d1, d2 = state.coefficients  # J0 channel
        assert d1 == 0.0 and d2 == 0.0
        # the unit norm is on the stored vector, c2 on the edge-scaled wave
        assert math.hypot(state.a, state.c2, state.b) == pytest.approx(1.0, abs=1e-15)
        c1, c2, _, _ = solve_coefficients(params, levels[1]).coefficients  # J1 channel
        assert c1 == 0.0 and c2 == 0.0

    def test_not_singular_off_level(self):
        with pytest.raises(NumericalFailure, match="not an eigenvalue"):
            solve_coefficients(DotParameters(v=100.0, beta=2.0, m=1), 30.0)
        with pytest.raises(NumericalFailure, match="not an eigenvalue"):
            solve_coefficients(DotParameters(v=25.0, beta=0.0, m=0), 5.0)

    def test_unit_norm_and_sign(self, fig1_state):
        params = DotParameters(v=100.0, beta=2.0, m=1)
        state = solve_coefficients(params, fig1_state.e)
        # unit norm on the stored (a, c2, b, d2), sign on the paper's vector
        stored = (state.a, state.c2, state.b, state.d2)
        assert math.sqrt(sum(x * x for x in stored)) == pytest.approx(1.0, abs=1e-14)
        assert max(state.coefficients, key=abs) > 0.0

    def test_raw_matrix_nullspace_parallel_to_reference(self, fig1_state):
        # the kernel of the unscaled matching matrix points along the
        # published coefficient vector
        from rashbadot.numerics import nullspace_4x4

        params = DotParameters(v=100.0, beta=2.0, m=1)
        vec = nullspace_4x4(match_matrix(params, fig1_state.e))
        ref_norm = math.sqrt(sum(x * x for x in FIG1_COEFFICIENTS))
        cosine = abs(sum(a * b for a, b in zip(vec, FIG1_COEFFICIENTS))) / ref_norm
        assert cosine == pytest.approx(1.0, abs=1e-6)


class TestNormalize:
    def test_integral_is_one(self, fig1_state, shallow_state):
        for state in (fig1_state, shallow_state):
            assert sum(overlap_parts(state, state)) == pytest.approx(1.0, abs=1e-8)

    def test_rescaling_invariance(self, shallow_state):
        params = shallow_state.params
        raw = solve_coefficients(params, shallow_state.e)
        doubled = replace(raw, a=2 * raw.a, c2=2 * raw.c2, b=2 * raw.b, d2=2 * raw.d2)
        renormed = normalize(doubled)
        for a, b in zip(renormed.coefficients, normalize(raw).coefficients):
            assert abs(abs(a) - abs(b)) <= 1e-10 * max(1.0, abs(b))

    def test_tail_fraction_below_half(self, shallow_state):
        # deep bound state lives mostly inside the well
        _, tail = overlap_parts(shallow_state, shallow_state)
        assert tail < 0.5

    def test_paper_scale_magnitudes(self, fig1_state):
        # normalization reproduces the reference coefficient magnitudes
        got = [abs(x) for x in fig1_state.coefficients]
        want = [abs(x) for x in FIG1_COEFFICIENTS]
        for g, w in zip(got, want):
            assert abs(g - w) / w < 1e-3


def _assert_closed_form_matches_quadrature(state, tol=1e-11):
    inside, outside = region_density_integrals(state)
    quad_inside, quad_outside = overlap_parts(state, state)
    assert inside == pytest.approx(quad_inside, abs=tol)
    assert outside == pytest.approx(quad_outside, abs=tol)
    assert inside + outside == pytest.approx(quad_inside + quad_outside, abs=tol)


class TestClosedFormNorm:
    """The boundary form at r = 1 against the fixed Gauss-Legendre rule of
    ``conftest.overlap_parts``, region by region."""

    def test_reference_states(self, table_states):
        states = [state for row in table_states.values() for state in row]
        assert len(states) == 139
        for state in states:
            _assert_closed_form_matches_quadrature(state)

    @pytest.mark.parametrize("v, beta, m", [(100.0, -2.0, -2), (49.0, -3.0, 1)])
    def test_negative_beta_and_m(self, v, beta, m):
        params = DotParameters(v=v, beta=beta, m=m)
        levels = find_spectrum(params).levels
        assert levels
        for e in levels:
            _assert_closed_form_matches_quadrature(normalize(solve_coefficients(params, e)))

    def test_vanishing_interior_wave_number(self):
        # the top level of (25, 10, 2) sits where k_- nearly vanishes, so
        # the k^(q-1) factor of the interior derivative is small
        params = DotParameters(v=25.0, beta=10.0, m=2)
        e = find_spectrum(params).levels[-1]
        assert e == pytest.approx(-0.2002, abs=1e-4)
        assert abs(interior_wave_numbers(e, params.beta).k_minus) < 0.021
        _assert_closed_form_matches_quadrature(normalize(solve_coefficients(params, e)))

    @pytest.mark.parametrize(
        "v, beta, m, e",
        [
            (49.0, 7.0, 1, 5.0),
            (25.0, 2.0, 1, 0.0),
            (25.0, 2.0, -3, 0.0),
            (25.0, -2.0, 2, 0.0),
            (25.0, 2.0, 0, 0.0),
            (25.0, -2.0, 0, 0.0),
            (25.0, 2.0, -1, 0.0),
            (25.0, -2.0, -1, 0.0),
        ],
    )
    def test_any_coefficients(self, v, beta, m, e):
        # each region's identity holds without matching at r = 1, off the
        # spectrum too, and at e = 0 where one wave number is exactly 0
        # (for m = 0 and -1 the order-0 derivative is a 0/0 limit there)
        state = BoundState(
            params=DotParameters(v=v, beta=beta, m=m), e=e, a=1.26, c2=-1.4, b=-0.89, d2=0.66
        )
        _assert_closed_form_matches_quadrature(state, tol=1e-14)

    def test_homogeneous_of_degree_two(self, fig1_state):
        total = sum(region_density_integrals(fig1_state))
        for factor in (1e-3, -2.5, 7.0, 1e40):
            s = fig1_state
            scaled = replace(s, a=factor * s.a, c2=factor * s.c2, b=factor * s.b, d2=factor * s.d2)
            assert sum(region_density_integrals(scaled)) == pytest.approx(
                factor**2 * total, rel=1e-13
            )


@pytest.mark.parametrize("v, beta, m", [(400.0, 5.0, 10), (2500.0, 10.0, 5), (1e4, 20.0, 3)])
def test_deep_well_states_integrate_to_one(v, beta, m):
    # the raw unit-coefficient states of these wells integrate to as
    # little as 1e-51, below any absolute quadrature tolerance; their
    # normalization must not depend on one
    params = DotParameters(v=v, beta=beta, m=m)
    levels = find_spectrum(params).levels
    assert levels
    for e in levels:
        state = normalize(solve_coefficients(params, e))
        assert sum(overlap_parts(state, state)) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def cancelling_state():
    """The level e = -62.5778 of (2500, 100, -12), inside the deep_sweep
    box, whose paper coefficients c1 and d1 nearly cancel."""
    params = DotParameters(v=2500.0, beta=100.0, m=-12)
    e = min(find_spectrum(params).levels, key=lambda x: abs(x + 62.5778))
    assert e == pytest.approx(-62.5778, abs=1e-4)
    state = solve_coefficients(params, e)
    # b = (c1 - d1)/2 is 1e-12 of a = (c1 + d1)/2: stored as (c1, d1),
    # it would keep about four digits
    assert abs(state.b) < 1e-11 * abs(state.a)
    return state


def test_cancelling_state_edge_continuity(cancelling_state):
    assert max(matching_residuals(normalize(cancelling_state))) < 1e-8


def test_cancelling_state_integrates_to_one(cancelling_state):
    state = normalize(cancelling_state)
    assert sum(overlap_parts(state, state)) == pytest.approx(1.0, abs=1e-12)


class TestEvaluateRadial:
    def test_requires_normalized(self, fig1_state):
        raw = solve_coefficients(fig1_state.params, fig1_state.e)
        with pytest.raises(InvalidInput, match="normalized first"):
            evaluate_radial(raw, 0.5)

    def test_matching_at_the_edge(self, fig1_state, shallow_state):
        for state in (fig1_state, shallow_state):
            assert max(matching_residuals(state)) < 1e-8

    def test_two_sided_limit(self, fig1_state):
        # the one-sided values differ only by the smooth Taylor term
        eps = 1e-7
        left = evaluate_radial(fig1_state, 1.0 - eps)
        right = evaluate_radial(fig1_state, 1.0 + eps)
        du, dw = _edge_slopes(fig1_state)
        assert abs(left.u - right.u) <= 1e-8 + 2.5 * eps * abs(du)
        assert abs(left.w - right.w) <= 1e-8 + 2.5 * eps * abs(dw)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -0.5])
    def test_rejects_non_finite_radius(self, fig1_state, r):
        # the region check names the condition; at inf the exterior K
        # recurrence would overflow, and r < 0 lies in neither region
        with pytest.raises(InvalidInput, match="positive and finite"):
            evaluate_radial(fig1_state, r)

    def test_origin_values(self, shallow_state):
        sample = evaluate_radial(shallow_state, 0.0)
        assert sample.u == shallow_state.coefficients[0]  # m = 0 keeps u finite
        assert sample.w == 0.0

    def test_far_tail_bounded_by_envelope(self, fig1_state):
        state = fig1_state
        amplitude, decay_rate, _ = tail_form(state.e, state.params.v, state.params.beta)
        r = 10.0
        _, c2, _, d2 = state.coefficients  # true scale
        bound = (abs(c2) + abs(d2)) * amplitude * math.exp(-decay_rate * r) / math.sqrt(r)
        assert abs(evaluate_radial(state, r).u) <= 2.0 * bound

    def test_node_structure_inside_well(self, fig1_state):
        # the third radial level changes sign inside the well and decays
        # quickly past the edge
        values = [evaluate_radial(fig1_state, r).u for r in
                  (0.1, 0.3, 0.5, 0.7, 0.9)]
        signs = {math.copysign(1.0, v) for v in values}
        assert len(signs) == 2
        assert abs(evaluate_radial(fig1_state, 2.0).u) < 1e-2 * max(abs(v) for v in values)


def _edge_slopes_at(state, r):
    """(u'(r), w'(r)) from the slopes of the region's weighted waves."""
    a, b, x, y = wavefunction._weighted_waves(state, r, 1)
    return a * x.slope[0] + b * y.slope[0], a * x.slope[1] - b * y.slope[1]


def _edge_slopes(state):
    return _edge_slopes_at(state, 1.0)


class TestEvaluateSpinor:
    def test_zero_angle_is_real(self, fig1_state):
        up, down = evaluate_spinor(fig1_state, 0.8, 0.0)
        assert up.imag == 0.0 and down.imag == 0.0
        sample = evaluate_radial(fig1_state, 0.8)
        assert up.real == sample.u and down.real == sample.w

    def test_angle_independent_density(self, fig1_state):
        sample = evaluate_radial(fig1_state, 0.8)
        expected = sample.u**2 + sample.w**2
        for phi in (0.3, 1.7, 4.4):
            up, down = evaluate_spinor(fig1_state, 0.8, phi)
            assert abs(up) ** 2 + abs(down) ** 2 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, fig1_state, phi):
        # a non-finite angle would give a NaN spinor without an error
        with pytest.raises(InvalidInput, match="phi"):
            evaluate_spinor(fig1_state, 0.5, phi)

    def test_total_density_normalization(self, shallow_state):
        # angular integral contributes 2*pi on top of the radial 1
        radial = sum(overlap_parts(shallow_state, shallow_state))
        assert 2.0 * math.pi * radial == pytest.approx(2.0 * math.pi, abs=1e-7)


class TestOdeResidual:
    def test_small_on_true_states(self, fig1_state, shallow_state):
        rng = random.Random(7)
        for state in (fig1_state, shallow_state):
            for _ in range(20):
                assert max(abs(x) for x in ode_residual(state, rng.uniform(0.01, 0.99))) < 1e-8
                assert max(abs(x) for x in ode_residual(state, rng.uniform(1.01, 10.0))) < 1e-8

    def test_detects_corruption(self, fig1_state):
        # scaling a alone still yields an exact solution of the coupled
        # equations (any coefficient pair does), so the corruption shows
        # up in the r = 1 matching, not in the interior residual
        corrupted = replace(fig1_state, a=fig1_state.a * 1.01)
        assert max(abs(x) for x in ode_residual(corrupted, 0.5)) < 1e-8
        assert max(matching_residuals(corrupted)) > 1e-4

    def test_residual_sensitivity_to_inconsistent_pair(self, fig1_state):
        # a u-component inflated by 1% against an unchanged w-component
        # violates the coupling; the residual must see it
        state = fig1_state
        r = 0.5
        h = 1e-4
        m = state.params.m
        beta = state.params.beta
        _, u, w = evaluate_radial(state, r)
        du, dw = _edge_slopes_at(state, r)
        ddu = (_edge_slopes_at(state, r + h)[0] - _edge_slopes_at(state, r - h)[0]) / (2 * h)
        bump = 1.01
        terms = (
            r * r * bump * ddu,
            r * bump * du,
            (state.e * r * r - m * m) * bump * u,
            beta * r * r * (dw + (m + 1) * w / r),
        )
        residual = terms[0] + terms[1] + terms[2] - terms[3]
        assert abs(residual) / max(abs(t) for t in terms) > 1e-4

    def test_boundary_points_rejected(self, fig1_state):
        with pytest.raises(InvalidInput, match="undefined exactly at r = 0 and r = 1"):
            ode_residual(fig1_state, 1.0)
        with pytest.raises(InvalidInput, match="undefined exactly at r = 0 and r = 1"):
            ode_residual(fig1_state, 0.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -0.5])
    def test_rejects_non_finite_radius(self, fig1_state, r):
        with pytest.raises(InvalidInput, match="positive and finite"):
            ode_residual(fig1_state, r)

    def test_arbitrary_coefficients_still_solve_odes(self):
        # any (a, b) interior / (c2, d2) exterior combination solves the
        # coupled equations; residuals stay at rounding level
        params = DotParameters(v=49.0, beta=7.0, m=1)
        state = BoundState(
            params=params, e=5.0, a=1.26, c2=-1.4, b=-0.89, d2=0.66, normalized=True
        )
        rng = random.Random(3)
        for _ in range(20):
            assert max(abs(x) for x in ode_residual(state, rng.uniform(0.02, 0.98))) < 1e-8
            assert max(abs(x) for x in ode_residual(state, rng.uniform(1.02, 8.0))) < 1e-8


# the positive radii of ``rashbadot wavefunction --rmax 3 --samples 300``,
# and radii inside and outside the well for the residuals
PROFILE_RADII = [3.0 if i == 299 else i * (3.0 / 299) for i in range(1, 300)]
RESIDUAL_RADII = (0.05, 0.31, 0.77, 0.95, 1.05, 1.7, 2.9)


def assembled_rows(state, r, derivatives):
    """(u, w) and its first ``derivatives`` radial derivatives at r > 0,
    assembled from one call of a pair function at the state's energy
    with the state's coefficients (``wavefunction`` module docstring)."""
    p = state.params
    if r < 1.0:
        x, y = interior_pair(p.m, interior_wave_numbers(state.e, p.beta), r, derivatives)
        a, b = state.a * x.divisor, state.b * y.divisor
    else:
        x, y = exterior_pair(p.m, exterior_wave_numbers(state.e, p.v, p.beta), r, derivatives)
        a, b = state.c2 * x.divisor, state.d2 * y.divisor
    rows = ((x.value, y.value), (x.slope, y.slope), (x.curvature, y.curvature))
    return [(a * xr[0] + b * yr[0], a * xr[1] - b * yr[1]) for xr, yr in rows[: derivatives + 1]]


def assembled_residual(state, r):
    """The scaled residuals of the two radial equations that
    ``ode_residual`` returns, from ``assembled_rows``, term for term in the
    order it sums them."""
    (u, w), (du, dw), (ddu, ddw) = assembled_rows(state, r, 2)
    m, beta = state.params.m, state.params.beta
    kinetic = (state.e - (0.0 if r < 1.0 else state.params.v)) * r * r
    r2 = r * r
    coupling_u = beta * r2 * (dw + (m + 1) * w / r)
    coupling_w = beta * r2 * (du - m * u / r)
    terms_u = (r2 * ddu, r * du, (kinetic - m * m) * u, coupling_u)
    terms_w = (r2 * ddw, r * dw, (kinetic - (m + 1) * (m + 1)) * w, coupling_w)
    residual_u = terms_u[0] + terms_u[1] + terms_u[2] - coupling_u
    residual_w = terms_w[0] + terms_w[1] + terms_w[2] + coupling_w
    return (
        residual_u / max(max(map(abs, terms_u)), 1e-300),
        residual_w / max(max(map(abs, terms_w)), 1e-300),
    )


@pytest.fixture(scope="module")
def deep_states():
    """{well: [normalized BoundState of every level]} of ``DEEP_STATE_WELLS``."""
    out = {}
    for well in DEEP_STATE_WELLS:
        params = DotParameters(*well)
        out[well] = [normalize(solve_coefficients(params, e)) for e in find_spectrum(params).levels]
    return out


class TestDeepStates:
    """Every level of two deep wells gives a state.  (c2, d2) are stored on
    the edge-scaled exterior waves; only the paper's view, ``coefficients``,
    forms the true scale, e^{Re kappa} times the stored pair, which is
    +/-inf where it overflows."""

    def test_every_level_normalizes(self, deep_states):
        assert {well: len(states) for well, states in deep_states.items()} == {
            (1e6, 0.0, 0): 637,
            (6e5, 10.0, 3): 490,
        }
        overflowing = 0
        for states in deep_states.values():
            for state in states:
                stored = (state.a, state.c2, state.b, state.d2)
                assert state.normalized and all(map(math.isfinite, stored))
                assert sum(region_density_integrals(state)) == pytest.approx(1.0, abs=1e-14)
                rate = state.wave_numbers[1].real
                _, c2, _, d2 = state.coefficients
                if rate < 700.0:
                    assert c2 == pytest.approx(state.c2 * math.exp(rate), rel=1e-15)
                    assert d2 == pytest.approx(state.d2 * math.exp(rate), rel=1e-15)
                else:
                    overflowing += math.isinf(c2) or math.isinf(d2)
        # 450 and 197 levels, from Re kappa = 707 on
        assert overflowing == 647

    @pytest.mark.parametrize("well,step", [(DEEP_STATE_WELLS[0], 15), (DEEP_STATE_WELLS[1], 12)])
    def test_residuals_on_a_subset(self, deep_states, well, step):
        # 43 and 41 states: 1.4e-14 and 3.4e-13 measured at most
        for state in deep_states[well][::step]:
            for r in RESIDUAL_RADII:
                assert max(abs(x) for x in ode_residual(state, r)) < 1e-12, (state, r)
            assert max(matching_residuals(state)) < 1e-11, state

    def test_uncoupled_channels_alternate(self, deep_states):
        # at beta = 0 the kernel lies in one spin channel, and the two
        # channels' levels alternate, the lowest of order m (spectral_solver
        # module docstring): solve_coefficients zeroes d1 and d2 at even
        # levels and c1 and c2 at odd ones, and keeps the other channel
        for i, state in enumerate(deep_states[DEEP_STATE_WELLS[0]]):
            c1, c2, d1, d2 = state.coefficients
            kept, zeroed = ((c1, c2), (d1, d2)) if i % 2 == 0 else ((d1, d2), (c1, c2))
            assert zeroed == (0.0, 0.0) and 0.0 not in kept, i


class TestSamplePath:
    """Samples and residuals are the pair functions' waves, combined with
    the state's coefficients: no second copy of the basis formulas."""

    def test_samples_and_residuals_are_the_pair_functions(self, table_states):
        for states in table_states.values():
            for state in states:
                for r in PROFILE_RADII:
                    sample = evaluate_radial(state, r)
                    assert (sample.u, sample.w) == assembled_rows(state, r, 0)[0], (state, r)
                for r in RESIDUAL_RADII:
                    assert ode_residual(state, r) == assembled_residual(state, r), (state, r)

    def test_wave_numbers_once_per_state(self, monkeypatch):
        calls = {"interior": 0, "exterior": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        params = DotParameters(v=100.0, beta=2.0, m=1)
        state = normalize(solve_coefficients(params, find_spectrum(params).levels[2]))
        for name, fn in (("interior", interior_wave_numbers), ("exterior", exterior_wave_numbers)):
            monkeypatch.setattr(wavefunction, f"{name}_wave_numbers", counted(name, fn))
        for r in (0.0, *PROFILE_RADII):
            evaluate_radial(state, r)
        for r in RESIDUAL_RADII:
            ode_residual(state, r)
        assert calls == {"interior": 1, "exterior": 1}


class TestOrthogonalityAndSymmetry:
    def test_distinct_levels_orthogonal(self):
        params = DotParameters(v=25.0, beta=1.0, m=0)
        spectrum = find_spectrum(params)
        states = [normalize(solve_coefficients(params, e)) for e in spectrum.levels]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert abs(sum(overlap_parts(states[i], states[j]))) < 1e-6

    def test_partner_has_identical_density_profile(self):
        base_params = DotParameters(v=100.0, beta=2.0, m=1)
        base = normalize(
            solve_coefficients(base_params, find_spectrum(base_params).levels[2])
        )
        partner_params = DotParameters(v=100.0, beta=-2.0, m=-2)
        partner = normalize(
            solve_coefficients(partner_params, find_spectrum(partner_params).levels[2])
        )
        for r in (0.2, 0.5, 0.8, 1.1, 1.6, 2.5):
            a = evaluate_radial(base, r)
            b = evaluate_radial(partner, r)
            assert a.u**2 + a.w**2 == pytest.approx(b.u**2 + b.w**2, abs=1e-8)
