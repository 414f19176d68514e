import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_legendre, gauss_legendre_tail
from rashbadot import numerics
from rashbadot.errors import InvalidInput, NumericalFailure
from rashbadot.numerics import (
    Bracket,
    divided_differences,
    interpolant_root,
    narrow_bracket,
    nullspace_4x4,
    refine_root,
)
from rashbadot.special_functions import bessel_j_over_power

EPS = np.finfo(float).eps


def bracket_of(f, lo, hi):
    return Bracket(lo, hi, f(lo), f(hi))


def assert_unguessed(bracket, lo, hi, f_lo, f_hi):
    """``bracket`` is (lo, hi, f_lo, f_hi) with a NaN guess: a NaN is
    equal to nothing, so the brackets are not compared with ==."""
    assert (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi) == (lo, hi, f_lo, f_hi)
    assert math.isnan(bracket.guess)


class TestNarrowBracket:
    # the bracket [0, 1] of f(x) = x - 0.3 (or 0.7), with the guess 0.5
    # and the half width 0.25: the two points are 0.25 and 0.75
    BRACKET = Bracket(0.0, 1.0, -1.0, 1.0, 0.5)

    def test_straddle_keeps_the_two_points(self):
        narrowed = narrow_bracket(self.BRACKET, 0.25, -0.5, 0.5)
        assert narrowed == Bracket(0.25, 0.75, -0.5, 0.5)

    def test_straddle_is_closed_by_refine_root_at_once(self):
        # no call of f: the result is the secant point of the two values,
        # strictly inside the bracket, not an end of it
        calls = []
        narrowed = narrow_bracket(self.BRACKET, 0.25, -0.5, 0.5)
        root = refine_root(lambda x: calls.append(x) or x - 0.5, narrowed, 0.5)
        assert root == 0.5 and calls == []

    def test_values_below_the_root_keep_the_upper_part(self):
        narrowed = narrow_bracket(self.BRACKET, 0.25, -0.55, -0.05)
        assert_unguessed(narrowed, 0.75, 1.0, -0.05, 1.0)

    def test_values_above_the_root_keep_the_lower_part(self):
        narrowed = narrow_bracket(self.BRACKET, 0.25, 0.05, 0.55)
        assert_unguessed(narrowed, 0.0, 0.25, -1.0, 0.05)

    def test_falling_function(self):
        falling = Bracket(0.0, 1.0, 1.0, -1.0, 0.5)
        assert narrow_bracket(falling, 0.25, 0.5, -0.5) == Bracket(0.25, 0.75, 0.5, -0.5)
        assert_unguessed(narrow_bracket(falling, 0.25, 0.55, 0.05), 0.75, 1.0, 0.05, -1.0)
        assert_unguessed(narrow_bracket(falling, 0.25, -0.05, -0.55), 0.0, 0.25, 1.0, -0.05)

    def test_exact_zero_is_the_root(self):
        assert narrow_bracket(self.BRACKET, 0.25, 0.0, 0.5) == 0.25
        assert narrow_bracket(self.BRACKET, 0.25, -0.5, 0.0) == 0.75

    # f(x) = x - root on [0, 1], guess 0.5 with the slope 1 of f, half
    # width 0.1: the two points are 0.4 and 0.6, and one Newton step from
    # the guess lands on the root
    @pytest.mark.parametrize("root,kept", [(0.8, (0.6, 1.0)), (0.2, (0.0, 0.4))])
    def test_one_sign_moves_the_guess_by_a_newton_step(self, root, kept):
        bracket = Bracket(0.0, 1.0, -root, 1.0 - root, 0.5, 1.0)
        narrowed = narrow_bracket(bracket, 0.1, 0.4 - root, 0.6 - root)
        assert (narrowed.lo, narrowed.hi) == kept
        assert narrowed.guess == pytest.approx(root, abs=1e-15)
        assert narrowed.slope == 1.0

    # without a slope there is no Newton step; a step that leaves the half
    # is kept as it is, and find_spectrum does not probe it
    @pytest.mark.parametrize("root,slope", [(0.8, math.nan), (0.8, 0.0)])
    def test_moved_guess_outside_the_half_is_nan(self, root, slope):
        bracket = Bracket(0.0, 1.0, -root, 1.0 - root, 0.5, slope)
        narrowed = narrow_bracket(bracket, 0.1, 0.4 - root, 0.6 - root)
        assert (narrowed.lo, narrowed.hi) == (0.6, 1.0)
        assert math.isnan(narrowed.guess)


class TestRefineRoot:
    def test_sqrt_two(self):
        f = lambda x: x * x - 2.0
        root = refine_root(f, bracket_of(f, 1.0, 2.0), 1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-12

    def test_pi_from_sine(self):
        root = refine_root(math.sin, bracket_of(math.sin, 3.0, 4.0), 1e-12)
        assert abs(root - math.pi) < 1e-12

    def test_linear_in_one_secant_step(self):
        calls = []

        def f(x):
            calls.append(x)
            return x

        root = refine_root(f, bracket_of(f, -1.0, 2.0), 1e-12)
        assert root == 0.0
        # bracket endpoints were prepaid; the secant step lands exactly
        assert len(calls) <= 3

    def test_invalid_bracket(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(NumericalFailure, match="not a sign-change bracket"):
            refine_root(f, bracket_of(f, -1.0, 1.0), 1e-12)

    def test_reversed_bounds(self):
        f = lambda x: x
        with pytest.raises(NumericalFailure, match="not a sign-change bracket"):
            refine_root(f, Bracket(2.0, -1.0, 2.0, -1.0), 1e-12)

    def test_stalled_step_does_not_converge(self, monkeypatch):
        # x * x - 2 needs more than three steps to close to 1e-12: the cap
        # stops it after three evaluations
        calls = []
        f = lambda x: calls.append(x) or x * x - 2.0
        bracket = bracket_of(f, 1.0, 2.0)
        calls.clear()
        monkeypatch.setattr(numerics, "ROOT_ITERATION_CAP", 3)
        with pytest.raises(NumericalFailure, match="exceeded 3 iterations"):
            refine_root(f, bracket, 1e-12)
        assert len(calls) == 3

    # a flat end, a steep end, an infinite slope at the root and a jump:
    # plain regula falsi crawls along one end of the first two and hits
    # the cap; the guard bisects a bracket that has not halved in four
    # steps, so a halving costs at most about four evaluations
    @pytest.mark.parametrize(
        "f",
        [
            lambda x: (x - 0.3) ** 9,
            lambda x: math.expm1(40.0 * (x - 0.3)),
            lambda x: math.copysign(abs(x - 0.3) ** (1.0 / 3.0), x - 0.3),
            lambda x: -1.0 if x < 0.3 else 1.0,
        ],
        ids=["ninth_power", "expm1", "cube_root", "step"],
    )
    def test_adversarial_brackets_close_in_bounded_steps(self, f):
        calls = []
        tol = 1e-12
        bracket = bracket_of(f, -1.0, 1.0)
        root = refine_root(lambda x: calls.append(x) or f(x), bracket, tol)
        assert abs(root - 0.3) <= tol
        assert len(calls) <= 4 * math.ceil(math.log2(2.0 / tol)) + 4

    def test_nonpositive_tol(self):
        with pytest.raises(InvalidInput):
            refine_root(math.cos, bracket_of(math.cos, 1.0, 2.0), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(min_value=0.2, max_value=1.4),
        hi=st.floats(min_value=1.6, max_value=4.0),
    )
    def test_bracket_choice_invariance(self, lo, hi):
        # same single root inside any valid bracket
        f = lambda x: math.cos(x)  # root pi/2 ~ 1.5708
        b = Bracket(lo, hi, f(lo), f(hi))
        root = refine_root(f, b, 1e-12)
        assert abs(root - math.pi / 2.0) < 1e-11

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(min_value=-0.999, max_value=0.999),
        steep=st.floats(min_value=1e-3, max_value=1e3),
        guess=st.one_of(
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-1.0, 1.0, math.nan]),
        ),
        tol=st.sampled_from([1e-3, 1e-8, 1e-12, 1e-15]),
    )
    def test_any_guess_keeps_the_sign_change(self, root, steep, guess, tol):
        # inside, outside, at an end or NaN: refine_root starts from the
        # bracket ends alone, so the guess changes nothing, and the result
        # is within the stopping width of a sign change of a monotone f
        def f(x):
            t = steep * (x - root)
            return t * (1.0 + t * t)

        found = refine_root(f, Bracket(-1.0, 1.0, f(-1.0), f(1.0), guess), tol)
        assert found == refine_root(f, Bracket(-1.0, 1.0, f(-1.0), f(1.0)), tol)
        assert -1.0 <= found <= 1.0
        assert abs(found - root) <= tol + 4.0 * EPS * max(abs(found), abs(root))


def proxy_root(nodes, values, lo, hi):
    """interpolant_root on the Newton table of (nodes, values)."""
    return interpolant_root(nodes, divided_differences(nodes, values).tolist(), lo, hi)


def stencil_table(nodes, values):
    """The Newton coefficients of one stencil by the in-place recurrence
    on Python floats."""
    coefficients = list(values)
    for order in range(1, len(nodes)):
        for i in range(len(nodes) - 1, order - 1, -1):
            coefficients[i] = (coefficients[i] - coefficients[i - 1]) / (
                nodes[i] - nodes[i - order]
            )
    return coefficients


class TestDividedDifferences:
    def test_batch_equals_the_recurrence_stencil_by_stencil(self):
        # scan-like stencils: sorted nodes, values of both signs spanning
        # many magnitudes
        rng = np.random.default_rng(3)
        for count in (1, 2, 5, 16):
            nodes = np.sort(rng.uniform(-50.0, 3000.0, (40, count)), axis=1)
            values = rng.standard_normal((40, count)) * 10.0 ** rng.uniform(-8, 8, (40, count))
            table = divided_differences(nodes, values)
            for row, (x, y) in enumerate(zip(nodes.tolist(), values.tolist())):
                assert table[row].tolist() == stencil_table(x, y)

    def test_batch_of_one(self):
        rng = np.random.default_rng(4)
        nodes = np.cumsum(rng.uniform(0.01, 0.1, 16)) + 2500.0
        values = rng.standard_normal(16)
        single = divided_differences(nodes[None], values[None])
        assert single.shape == (1, 16)
        assert single[0].tolist() == stencil_table(nodes.tolist(), values.tolist())
        assert divided_differences(nodes, values).tolist() == single[0].tolist()

    def test_mismatched_or_empty(self):
        with pytest.raises(InvalidInput):
            divided_differences(np.zeros((3, 4)), np.zeros((3, 5)))
        with pytest.raises(InvalidInput):
            divided_differences(np.zeros((3, 0)), np.zeros((3, 0)))


class TestInterpolantRoot:
    def test_cubic_root_from_twelve_samples(self):
        def cubic(x):
            return (x - 1.2345678901234) * (x + 3.0) * (x - 7.5)

        nodes = [0.1 * i + 0.7 for i in range(12)]
        values = [cubic(x) for x in nodes]
        root, _ = proxy_root(nodes, values, 1.2, 1.3)
        assert abs(root - 1.2345678901234) < 1e-14

    def test_slope_is_the_cubic_derivative_at_its_root(self):
        def cubic(x):
            return (x - 1.2345678901234) * (x + 3.0) * (x - 7.5)

        nodes = [0.1 * i + 0.7 for i in range(12)]
        root, slope = proxy_root(nodes, [cubic(x) for x in nodes], 1.2, 1.3)
        # d/dx at the root: the product of the other two factors
        assert slope == pytest.approx((root + 3.0) * (root - 7.5), rel=1e-12)

    def test_no_sign_change_of_the_interpolant_gives_nan(self):
        nodes = [0.0, 1.0, 2.0]
        for lo, hi, values in ((0.0, 1.0, [1.0, 2.0, 5.0]), (1.0, 0.0, [-1.0, 2.0, 5.0])):
            # an empty or reversed interval holds no root either
            assert all(math.isnan(x) for x in proxy_root(nodes, values, lo, hi))

    def test_mismatched_samples(self):
        with pytest.raises(InvalidInput):
            interpolant_root([0.0, 1.0], [1.0], 0.0, 1.0)


class TestNullspace:
    def test_explicit_kernel(self):
        vec = nullspace_4x4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        assert list(vec) == [0.0, 0.0, 0.0, 1.0]

    def test_three_dim_kernel_flagged(self):
        m = [[0.0] * 4 for _ in range(4)]
        m[0][0] = 1.0
        with pytest.raises(NumericalFailure, match="kernel dimension 3 >= 2"):
            nullspace_4x4(m)

    def test_full_rank_rejected(self):
        with pytest.raises(NumericalFailure, match="not an eigenvalue"):
            nullspace_4x4([[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [0, 0, 1, 5]])

    def test_sign_convention_and_residual(self):
        # kernel (1, -2, 3, -4)/norm embedded in a rank-3 matrix
        import numpy as np

        kernel = np.array([1.0, -2.0, 3.0, -4.0])
        rng = np.random.default_rng(11)
        while True:
            a = rng.normal(size=(4, 4))
            a -= np.outer(a @ kernel, kernel) / (kernel @ kernel)
            if np.linalg.matrix_rank(a, tol=1e-10) == 3:
                break
        vec = nullspace_4x4(a)
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-14
        norm_m = float(np.linalg.norm(a))
        assert float(np.linalg.norm(a @ vec)) <= 10.0 * 1e-8 * norm_m
        cosine = abs(float(vec @ kernel)) / float(np.linalg.norm(kernel))
        assert abs(cosine - 1.0) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            nullspace_4x4([[math.nan] * 4] * 4)


class TestPanelQuadrature:
    """The fixed 24-point Gauss-Legendre rule of ``conftest``, the tests'
    reference for the closed-form region integrals."""

    def test_polynomial_exact(self):
        assert gauss_legendre(lambda r: r, 0.0, 1.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_high_degree_polynomial_single_panel(self):
        # degree 47 = 2 * 24 - 1 is exact for 24 nodes
        value = gauss_legendre(lambda x: x**47, 0.0, 1.0, 1)
        assert value == pytest.approx(1.0 / 48.0, rel=1e-14)

    def test_arctan(self):
        value = gauss_legendre(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, 1)
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_bessel_density_against_trapezoid_oracle(self):
        # frozen oracle: trapezoid rule with 10^6 points on J0(5r)^2 r
        oracle = 0.06942435228309353
        value = gauss_legendre(
            lambda r: bessel_j_over_power(0, 5.0 * r, 0)[0] ** 2 * r, 0.0, 1.0, 1
        )
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            gauss_legendre(lambda x: x, 1.0, 0.0, 1)


class TestTailQuadrature:
    def test_plain_exponential(self):
        value = gauss_legendre_tail(lambda r: math.exp(-r), 1.0, 1.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_damped_cosine(self):
        value = gauss_legendre_tail(lambda r: math.exp(-2.0 * r) * math.cos(r), 0.0, 2.0, 1.0)
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_bad_decay_rate(self):
        with pytest.raises(ValueError):
            gauss_legendre_tail(lambda r: math.exp(-r), 0.0, 0.0)
