import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rashbadot.errors import (
    BracketInvalid,
    DecayViolation,
    InvalidInput,
    NoConvergence,
    NotSingular,
    RankDeficiency2,
)
from rashbadot.numerics import (
    Bracket,
    integrate_panel,
    integrate_tail,
    nullspace_4x4,
    refine_root,
    refine_roots,
)
from rashbadot.special_functions import bessel_j


def bracket_of(f, lo, hi):
    return Bracket(lo, hi, f(lo), f(hi))


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
        with pytest.raises(BracketInvalid):
            refine_root(f, bracket_of(f, -1.0, 1.0), 1e-12)

    def test_reversed_bounds(self):
        f = lambda x: x
        with pytest.raises(BracketInvalid):
            refine_root(f, Bracket(2.0, -1.0, 2.0, -1.0), 1e-12)

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


class TestRefineRoots:
    """Lockstep refinement is the one Brent of ``refine_root``, driven by
    batched evaluations."""

    # one cubic a x^3 + b x^2 + c x + d per bracket, by Horner's rule:
    # numpy does each lane's arithmetic as the interpreter does a float's
    COEFFICIENTS = np.array(
        [
            [0.0, 1.0, 0.0, -2.0],
            [0.0, 1.0, 0.0, -3.0],
            [0.0, 1.0, 0.0, -5.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, -7.0],
        ]
    )

    def f_batch(self, x, which):
        a, b, c, d = self.COEFFICIENTS[which].T
        return ((a * x + b) * x + c) * x + d

    def f_one(self, index):
        def f(x):
            return float(self.f_batch(np.array([x]), np.array([index]))[0])

        return f

    def brackets(self):
        spans = ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (-1.0, 2.0), (1.5, 2.0))
        return [bracket_of(self.f_one(i), lo, hi) for i, (lo, hi) in enumerate(spans)]

    def test_matches_refine_root(self):
        brackets = self.brackets()
        alone = [refine_root(self.f_one(i), b, 1e-12) for i, b in enumerate(brackets)]
        assert refine_roots(self.f_batch, brackets, 1e-12) == alone
        assert refine_roots(self.f_batch, [], 1e-12) == []

    def test_one_batched_call_per_step(self):
        calls = []

        def f_batch(x, which):
            calls.append(len(x))
            return self.f_batch(x, which)

        brackets = self.brackets()
        refine_roots(f_batch, brackets, 1e-12)
        steps = []
        for i, b in enumerate(brackets):
            count = [0]

            def f(x, f_alone=self.f_one(i)):
                count[0] += 1
                return f_alone(x)

            refine_root(f, b, 1e-12)
            steps.append(count[0])
        assert len(calls) == max(steps)
        assert sum(calls) == sum(steps)

    def test_raises_where_refine_root_raises(self):
        good = self.brackets()[0]
        f_step = lambda x: -1.0 if x < 1e-300 else 1.0  # noqa: E731
        stalled = bracket_of(f_step, -1.0, 1.0)
        with pytest.raises(NoConvergence):
            refine_root(f_step, stalled, 1e-300)
        with pytest.raises(NoConvergence):
            refine_roots(lambda x, which: np.where(x < 1e-300, -1.0, 1.0), [good, stalled], 1e-300)
        no_change = Bracket(-1.0, 1.0, 2.0, 2.0)
        with pytest.raises(BracketInvalid):
            refine_root(math.cos, no_change, 1e-12)
        with pytest.raises(BracketInvalid):
            refine_roots(self.f_batch, [good, no_change], 1e-12)
        with pytest.raises(InvalidInput):
            refine_root(math.cos, good, 0.0)
        with pytest.raises(InvalidInput):
            refine_roots(self.f_batch, [good], 0.0)


class TestNullspace:
    def test_explicit_kernel(self):
        vec = nullspace_4x4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        assert list(vec) == [0.0, 0.0, 0.0, 1.0]

    def test_three_dim_kernel_flagged(self):
        m = [[0.0] * 4 for _ in range(4)]
        m[0][0] = 1.0
        with pytest.raises(RankDeficiency2) as info:
            nullspace_4x4(m)
        assert info.value.kernel_dim == 3

    def test_full_rank_rejected(self):
        with pytest.raises(NotSingular):
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
        # largest-magnitude component positive
        assert vec[int(np.argmax(np.abs(vec)))] > 0.0
        norm_m = float(np.linalg.norm(a))
        assert float(np.linalg.norm(a @ vec)) <= 10.0 * 1e-8 * norm_m
        cosine = abs(float(vec @ kernel)) / float(np.linalg.norm(kernel))
        assert abs(cosine - 1.0) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            nullspace_4x4([[math.nan] * 4] * 4)


class TestPanelQuadrature:
    def test_polynomial_exact(self):
        assert integrate_panel(lambda r: r, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_high_degree_polynomial_single_panel(self):
        # degree 31 = 2 * panel_order - 1 is exact for order 16
        value = integrate_panel(lambda x: x**31, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 32.0, rel=1e-14)

    def test_arctan(self):
        value = integrate_panel(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0)
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_bessel_density_against_trapezoid_oracle(self):
        # frozen oracle: trapezoid rule with 10^6 points on J0(5r)^2 r
        oracle = 0.06942435228309353
        value = integrate_panel(lambda r: bessel_j(0, 5.0 * r) ** 2 * r, 0.0, 1.0)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(InvalidInput):
            integrate_panel(lambda x: x, 1.0, 0.0)


class TestTailQuadrature:
    def test_plain_exponential(self):
        value = integrate_tail(lambda r: math.exp(-r), 1.0, 1.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_damped_cosine(self):
        value = integrate_tail(lambda r: math.exp(-2.0 * r) * math.cos(r), 0.0, 2.0)
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_decay_violation(self):
        with pytest.raises(DecayViolation):
            integrate_tail(lambda r: 1.0 / (1.0 + r), 0.0, 1.0)

    def test_bad_decay_rate(self):
        with pytest.raises(InvalidInput):
            integrate_tail(lambda r: math.exp(-r), 0.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(split=st.floats(min_value=0.5, max_value=6.0))
    def test_split_point_invariance(self, split):
        # panel + tail must not depend on where the domain is split
        f = lambda r: math.exp(-1.5 * r) * (1.0 + math.sin(r))
        total = integrate_panel(f, 0.0, split) + integrate_tail(f, split, 1.5)
        reference = integrate_panel(f, 0.0, 0.25) + integrate_tail(f, 0.25, 1.5)
        assert total == pytest.approx(reference, abs=5e-13)
