import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rashbadot.errors import ArgumentOutOfRange, DomainError, OrderCapExceeded
from rashbadot.radial_basis import exterior_pair, interior_pair
from rashbadot.special_functions import (
    bessel_j,
    bessel_j_many,
    bessel_k_complex,
    bessel_k_many,
    bessel_k_scaled_many,
)

# frozen oracle values, 40-digit arithmetic at generation time
J_ORACLE = (
    (0, 0.5, 0.9384698072408129),
    (1, 1.0, 0.44005058574493352),
    (2, 3.1, 0.48620701416750891),
    (3, 4.2, 0.43439427638720078),
    (5, 7.3, 0.31370617089730905),
    (10, 14.2, 0.049528622557117409),
    (0, 25.0, 0.096266783275958116),
    (3, 60.0, -0.040396711521655157),
    (7, 123.456, 0.024371120190902434),
    (1, 199.5, -0.040371312360519674),
    (30, 33.0, 0.20999843263505091),
    (64, 150.0, 0.065897347715264459),
)

K_ORACLE = (
    (0, 1e-6, 0.0, 13.931442073626419, 0.0),
    (1, 0.003, 0.004, 119.98927408242296, -160.01043758004488),
    (2, 1.5, 0.7, 0.17543544220930279, -0.46815103614181694),
    (0, 10.0, 0.0, 1.7780062316167652e-5, 0.0),
    (3, 0.2, 7.9, -0.37641912432664689, -0.075867578957193102),
    (5, 2.0, 11.0, 0.064013358421767415, -0.013601266283856833),
    (1, 30.0, 40.0, -1.5526781119014315e-14, -6.0424315580165675e-15),
    (2, 140.0, 139.0, 5.5718563888505314e-63, -1.3058588874015073e-62),
    (8, 0.5, 12.0, -0.27885322081831876, -0.060086166998598774),
    (0, 0.5, 0.5, 0.55297231092557471, -0.59964194785659463),
    (4, 90.0, 3.0, -1.1717000905835538e-40, -1.4372257805506535e-41),
    (12, 6.0, 6.0, 0.019448019062094936, 0.51792805835556074),
)

FIRST_J0_ZERO = 2.404825557695773


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        for m in (2, 5, -3, 17):
            assert bessel_j(m, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        # zero located by a high-precision series oracle at generation time
        assert abs(bessel_j(0, FIRST_J0_ZERO)) < 1e-12

    @pytest.mark.parametrize("n,x,expected", J_ORACLE)
    def test_against_frozen_oracle(self, n, x, expected):
        assert bessel_j(n, x) == pytest.approx(expected, rel=1e-12)

    def test_negative_argument_parity(self):
        assert bessel_j(2, -3.1) == bessel_j(2, 3.1)
        assert bessel_j(3, -4.2) == -bessel_j(3, 4.2)

    def test_negative_order_parity(self):
        assert bessel_j(-2, 3.1) == bessel_j(2, 3.1)
        assert bessel_j(-3, 4.2) == -bessel_j(3, 4.2)
        assert bessel_j(-3, -4.2) == bessel_j(3, 4.2)

    def test_numpy_scalars_match_python_scalars(self):
        # numpy bools add as a logical or, which once lost the sign of
        # J_n(-x) for odd negative n
        assert bessel_j(np.int64(-3), -2.5) == bessel_j(-3, -2.5) > 0.0
        for n in range(-5, 6):
            for x in (-7.3, -2.5, -0.4, 0.4, 2.5, 7.3):
                assert bessel_j(np.int64(n), np.float64(x)) == bessel_j(n, x)

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            bessel_j(65, 1.0)

    def test_argument_cap(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0, 200.5)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0, math.nan)

    def test_many_matches_scalar(self):
        table = bessel_j_many(range(-3, 4), 7.3)
        for n in range(-3, 4):
            assert table[n] == bessel_j(n, 7.3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        x=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_three_term_recurrence(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        scale = max(abs(lhs), abs(rhs), 0.5 / math.sqrt(x))
        assert abs(lhs - rhs) / scale < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=0.1, max_value=50.0), n=st.integers(min_value=1, max_value=8))
    def test_wronskian_neighbor_products(self, x, n):
        # J_{n+1} J_{n-1} - J_n^2 evaluated from one batched pass vs
        # independent single evaluations
        batch = bessel_j_many((n - 1, n, n + 1), x)
        direct = [bessel_j(n - 1, x), bessel_j(n, x), bessel_j(n + 1, x)]
        lhs = batch[n + 1] * batch[n - 1] - batch[n] ** 2
        rhs = direct[2] * direct[0] - direct[1] ** 2
        assert abs(lhs - rhs) < 1e-10


def check_ladder_derivatives(pair, r, abs_tol, h=1e-6):
    """First derivatives of a basis pair against central differences of
    its values, and second derivatives against central differences of
    the first.  ``pair(r, second)`` evaluates the pair at radius r."""
    low, high, low2, high2 = pair(r, True)
    below, above = pair(r - h, False), pair(r + h, False)

    def central(field):
        return [(getattr(b, field) - getattr(a, field)) / (2.0 * h) for a, b in zip(below, above)]

    for i, (b, (f2, g2)) in enumerate(zip((low, high), (low2, high2))):
        assert abs(b.df - central("f")[i]) < abs_tol
        assert abs(b.dg - central("g")[i]) < abs_tol
        assert abs(f2 - central("df")[i]) < abs_tol
        assert abs(g2 - central("dg")[i]) < abs_tol


class TestBesselJDerivative:
    """Ladder-identity derivatives of J, as the interior basis pairs of
    ``radial_basis`` carry them."""

    def test_j0_derivative_identity(self):
        # beta = 0, e = 1: f = J_0(r), so f' = -J_1(r)
        for r in (0.3, 1.0, 2.7):
            assert interior_pair(0, 1.0, 0.0, r)[0].df == pytest.approx(
                -bessel_j(1, r), abs=1e-14
            )

    def test_matches_finite_difference(self):
        check_ladder_derivatives(lambda r, second: interior_pair(1, 6.0, 2.0, r, second), 0.7, 1e-8)

    def test_zero_wave_number(self):
        # at e = 0 the lower wave number is 0, so J_n(k_- r) adds no slope
        # and f' = -g' exactly
        for m in (0, 1, 5, -2):
            for b in interior_pair(m, 0.0, 2.0, 1.3):
                assert b.df == -b.dg

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=-5, max_value=5),
        e=st.floats(min_value=-3.0, max_value=30.0),
        beta=st.floats(min_value=-4.0, max_value=4.0),
        r=st.floats(min_value=0.05, max_value=1.5),
    )
    def test_finite_difference_property(self, m, e, beta, r):
        if e <= -0.25 * beta * beta + 1e-6:
            return
        check_ladder_derivatives(lambda x, second: interior_pair(m, e, beta, x, second), r, 1e-7)


class TestBesselK:
    def test_k0_at_one(self):
        # frozen integral-representation oracle
        assert bessel_k_complex(0, complex(1.0, 0.0)).real == pytest.approx(
            0.42102443824070834, abs=1e-10
        )
        assert bessel_k_complex(0, complex(1.0, 0.0)).imag == 0.0

    @pytest.mark.parametrize("n,re,im,kre,kim", K_ORACLE)
    def test_against_frozen_oracle(self, n, re, im, kre, kim):
        got = bessel_k_complex(n, complex(re, im))
        assert abs(got - complex(kre, kim)) <= 1e-10 * abs(complex(kre, kim))

    def test_conjugation_bit_exact(self):
        z = complex(1.5, 0.7)
        assert bessel_k_complex(2, z.conjugate()) == bessel_k_complex(2, z).conjugate()

    def test_negative_order_symmetry(self):
        z = complex(2.0, 1.0)
        assert bessel_k_complex(-3, z) == bessel_k_complex(3, z)

    def test_asymptotic_regime(self):
        z = complex(10.0, 0.0)
        leading = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) * (1.0 - 1.0 / (8.0 * z))
        got = bessel_k_complex(0, z)
        assert abs(got - leading) / abs(got) < 2e-3
        # agreement improves with |z|
        z2 = complex(40.0, 0.0)
        leading2 = cmath.sqrt(math.pi / (2.0 * z2)) * cmath.exp(-z2) * (1.0 - 1.0 / (8.0 * z2))
        got2 = bessel_k_complex(0, z2)
        assert abs(got2 - leading2) / abs(got2) < abs(got - leading) / abs(got)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_k_complex(0, complex(-1.0, 1.0))
        with pytest.raises(DomainError):
            bessel_k_complex(0, complex(0.0, 1.0))

    def test_argument_cap(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_k_complex(0, complex(250.0, 0.0))

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            bessel_k_complex(65, complex(1.0, 0.0))

    def test_scaled_consistency(self):
        # e^z K_n(z) from the scaled path equals K_n(z) e^z within rounding
        z = complex(3.0, 2.0)
        scaled = bessel_k_scaled_many((0, 1, 2), z)
        plain = bessel_k_many((0, 1, 2), z)
        for n in (0, 1, 2):
            assert scaled[n] == pytest.approx(plain[n] * cmath.exp(z), rel=1e-13)

    def test_scaled_survives_deep_well_arguments(self):
        # unscaled K underflows near Re z ~ 750; the scaled value stays O(1)
        z = complex(1000.0, 5.0)
        value = bessel_k_scaled_many((0, 1), z)[0]
        assert 0.01 < abs(value) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        re=st.floats(min_value=0.05, max_value=30.0),
        im=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_three_term_recurrence(self, n, re, im):
        z = complex(re, im)
        table = bessel_k_many((n - 1, n, n + 1), z)
        lhs = table[n - 1] - table[n + 1]
        rhs = -(2.0 * n / z) * table[n]
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=6),
        re=st.floats(min_value=0.1, max_value=20.0),
        im=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_conjugation_property(self, n, re, im):
        z = complex(re, im)
        assert bessel_k_complex(n, z.conjugate()) == bessel_k_complex(n, z).conjugate()


class TestBesselKDerivative:
    """Ladder-identity derivatives of K, as the exterior basis pairs of
    ``radial_basis`` carry them."""

    def test_k0_derivative_identity(self):
        # beta = 0: f = K_0(k r) with k = sqrt(v - e) = 2, so f' = -2 K_1(2 r)
        for r in (0.4, 1.1, 3.0):
            expected = -2.0 * bessel_k_complex(1, complex(2.0 * r, 0.0)).real
            assert exterior_pair(0, 21.0, 25.0, 0.0, r)[0].df == pytest.approx(
                expected, rel=1e-12
            )

    def test_matches_finite_difference(self):
        # k_plus = 3 + i: complex argument, so f and g are both nonzero
        check_ladder_derivatives(
            lambda r, second: exterior_pair(1, 12.0, 25.0, 2.0, r, second), 1.2, 1e-7
        )

    def test_conjugate_wave_number(self):
        # beta -> -beta conjugates k_plus: g and its derivatives flip sign,
        # f and its derivatives keep their values, bit for bit
        plus = exterior_pair(2, 3.0, 25.0, 1.8, 0.8, True)
        minus = exterior_pair(2, 3.0, 25.0, -1.8, 0.8, True)
        for a, b in zip(plus[:2], minus[:2]):
            assert (b.f, b.g, b.df, b.dg) == (a.f, -a.g, a.df, -a.dg)
        for (f_a, g_a), (f_b, g_b) in zip(plus[2:], minus[2:]):
            assert (f_b, g_b) == (f_a, -g_a)


@pytest.mark.slow
class TestLiveHighPrecisionOracle:
    """Spot comparison against an independent multiprecision library."""

    def test_j_sampled_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n in (0, 1, 4, 13):
            for x in (0.7, 5.1, 19.7, 87.3, 166.0):
                got = bessel_j(n, x)
                ref = float(mp.besselj(n, mp.mpf(x)))
                assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-3)

    def test_k_sampled_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n in (0, 2, 6):
            for re, im in ((0.4, 0.1), (1.9, 6.5), (8.0, 1.0), (16.0, 55.0), (0.3, 11.4)):
                got = bessel_k_complex(n, complex(re, im))
                ref = complex(mp.besselk(n, mp.mpc(re, im)))
                assert abs(got - ref) <= 1e-10 * abs(ref)
