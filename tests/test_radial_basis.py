import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rashbadot.errors import AboveWindow, BelowWindow, InvalidInput
from rashbadot.radial_basis import (
    DotParameters,
    exterior_pair,
    exterior_pair_scaled,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
    tail_envelope,
)
from rashbadot.special_functions import bessel_j, bessel_k_complex

# frozen 40-digit oracle: basis at m=1, e=37.0825, beta=2, r=0.5
INTERIOR_ORACLE = {
    "f": 0.28815738578578478,
    "g": 0.18664524836071473,
    "df": -2.2085504067942186,
    "dg": 0.79368431686347523,
}


class TestDotParameters:
    def test_window(self):
        p = DotParameters(v=25.0, beta=10.0, m=0)
        assert p.window == (-25.0, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            DotParameters(v=0.0, beta=1.0, m=0)
        with pytest.raises(InvalidInput):
            DotParameters(v=25.0, beta=math.inf, m=0)
        with pytest.raises(InvalidInput):
            DotParameters(v=25.0, beta=1.0, m=1.5)

    def test_numpy_scalars_stored_as_python_numbers(self):
        p = DotParameters(v=np.float64(25.0), beta=np.float64(10.0), m=np.int64(-3))
        assert (type(p.v), type(p.beta), type(p.m)) == (float, float, int)
        assert p == DotParameters(v=25.0, beta=10.0, m=-3)


class TestInteriorWaveNumbers:
    def test_no_coupling(self):
        k = interior_wave_numbers(4.0, 0.0)
        assert (k.k_plus, k.k_minus) == (2.0, 2.0)

    def test_zero_energy(self):
        k = interior_wave_numbers(0.0, 2.0)
        assert (k.k_plus, k.k_minus) == (2.0, 0.0)

    def test_negative_branch(self):
        # deep level of a strongly coupled well: k_minus goes negative
        k = interior_wave_numbers(-23.25, 10.0)
        assert k.k_minus == pytest.approx(math.sqrt(1.75) - 5.0, rel=1e-14)
        assert k.k_minus < 0.0

    def test_below_window(self):
        with pytest.raises(BelowWindow):
            interior_wave_numbers(-25.1, 10.0)

    @settings(max_examples=50, deadline=None)
    @given(
        e=st.floats(min_value=-20.0, max_value=90.0),
        beta=st.floats(min_value=-12.0, max_value=12.0),
    )
    def test_product_identity(self, e, beta):
        if e <= -0.25 * beta * beta + 1e-9:
            return
        k = interior_wave_numbers(e, beta)
        assert k.k_plus * k.k_minus == pytest.approx(e, rel=1e-13, abs=1e-13)


class TestExteriorWaveNumbers:
    def test_no_coupling(self):
        k = exterior_wave_numbers(4.0, 25.0, 0.0)
        assert k.k_plus == complex(math.sqrt(21.0), 0.0)
        assert k.k_minus == k.k_plus.conjugate()

    def test_pythagorean_instance(self):
        k = exterior_wave_numbers(0.0, 25.0, 6.0)
        assert k.k_plus == complex(4.0, 3.0)
        assert k.k_minus == complex(4.0, -3.0)

    def test_window_containment(self):
        # all levels of the (v=25, beta=10) well live in (-25, 0)
        lo, hi = DotParameters(v=25.0, beta=10.0, m=0).window
        for e in (-23.25, -18.31, -9.67):
            assert lo < e < hi
            k = exterior_wave_numbers(e, 25.0, 10.0)
            assert k.k_plus.real > 0.0

    def test_above_window(self):
        with pytest.raises(AboveWindow):
            exterior_wave_numbers(0.0, 25.0, 10.0)


class TestInteriorBasis:
    def test_uncoupled_reduces_to_plain_bessel(self):
        e, r = 7.3, 0.63
        b = interior_pair(2, e, 0.0, r)[0]
        assert b.g == 0.0
        assert b.dg == 0.0
        assert b.f == pytest.approx(bessel_j(2, math.sqrt(e) * r), rel=1e-14)

    def test_origin_limit_m0(self):
        b = interior_pair(0, 5.0, 1.0, 1e-9)[0]
        assert b.f == pytest.approx(1.0, abs=1e-12)
        assert abs(b.g) < 1e-12

    def test_frozen_series_oracle(self):
        b = interior_pair(1, 37.0825, 2.0, 0.5)[0]
        assert b.f == pytest.approx(INTERIOR_ORACLE["f"], rel=1e-11)
        assert b.g == pytest.approx(INTERIOR_ORACLE["g"], rel=1e-11)
        assert b.df == pytest.approx(INTERIOR_ORACLE["df"], rel=1e-11)
        assert b.dg == pytest.approx(INTERIOR_ORACLE["dg"], rel=1e-11)

    def test_pair_matches_single(self):
        # the upper member of the pair at m is the lower member at m + 1
        assert interior_pair(1, 37.0825, 2.0, 0.5)[1] == interior_pair(2, 37.0825, 2.0, 0.5)[0]

    def test_small_beta_continuity(self):
        for m in (0, 1, -2):
            a = interior_pair(m, 5.0, 1e-8, 0.7)[0]
            b = interior_pair(m, 5.0, 0.0, 0.7)[0]
            for field in ("f", "g", "df", "dg"):
                assert abs(getattr(a, field) - getattr(b, field)) < 1e-6

    def test_origin_regularity_m1(self):
        # f ~ C r for m = 1
        f_small = interior_pair(1, 5.0, 1.0, 1e-6)[0].f
        f_large = interior_pair(1, 5.0, 1.0, 1e-3)[0].f
        assert f_small / f_large == pytest.approx(1e-3, rel=0.1)

    def test_requires_positive_radius(self):
        with pytest.raises(InvalidInput):
            interior_pair(0, 5.0, 1.0, 0.0)


class TestExteriorBasis:
    def test_uncoupled_reduces_to_plain_k(self):
        e, v, r = 4.0, 25.0, 1.7
        b = exterior_pair(0, e, v, 0.0, r)[0]
        assert b.g == 0.0
        assert b.dg == 0.0
        expected = bessel_k_complex(0, complex(math.sqrt(v - e) * r, 0.0)).real
        assert b.f == pytest.approx(expected, rel=1e-13)

    def test_real_by_construction(self):
        b = exterior_pair(1, 3.0, 25.0, 2.0, 1.4)[0]
        for field in ("f", "g", "df", "dg"):
            assert isinstance(getattr(b, field), float)

    def test_matches_explicit_combination(self):
        # f2 = Re K_m(k+ r), g2 = Im K_m(k+ r)
        m, e, v, beta, r = 1, 3.0, 25.0, 2.0, 1.3
        k = exterior_wave_numbers(e, v, beta)
        value = bessel_k_complex(m, k.k_plus * r)
        b = exterior_pair(m, e, v, beta, r)[0]
        assert b.f == pytest.approx(value.real, rel=1e-12)
        assert b.g == pytest.approx(value.imag, rel=1e-12)

    def test_scaled_and_plain_agree(self):
        m, e, v, beta, r = 0, 3.49, 25.0, 1.0, 2.0
        scaled, _, exponent = exterior_pair_scaled(m, e, v, beta, r)
        plain = exterior_pair(m, e, v, beta, r)[0]
        damp = math.exp(-exponent)
        assert plain.f == pytest.approx(scaled.f * damp, rel=1e-13)
        assert plain.dg == pytest.approx(scaled.dg * damp, rel=1e-13)

    def test_envelope_at_moderate_radius(self):
        # 5% agreement with the asymptotic form already at r = 2
        m, e, v, beta, r = 0, 3.49, 25.0, 1.0, 2.0
        env = tail_envelope(e, v, beta)
        b = exterior_pair(m, e, v, beta, r)[0]
        predicted = (
            env.amplitude
            * math.exp(-env.decay_rate * r)
            / math.sqrt(r)
            * math.cos(0.5 * (beta * r + env.gamma))
        )
        assert b.f == pytest.approx(predicted, rel=0.05)

    def test_decay_bound(self):
        m, e, v, beta = 0, 3.49, 25.0, 1.0
        near = exterior_pair(m, e, v, beta, 2.0)[0]
        far = exterior_pair(m, e, v, beta, 20.0)[0]
        rate = tail_envelope(e, v, beta).decay_rate
        bound = 10.0 * math.exp(-18.0 * rate)
        assert abs(far.f) <= abs(near.f) * bound
        assert abs(far.g) <= max(abs(near.g), abs(near.f)) * bound

    def test_pair_matches_single(self):
        # the upper member of the pair at m is the lower member at m + 1
        assert exterior_pair(1, 3.0, 25.0, 2.0, 1.6)[1] == exterior_pair(2, 3.0, 25.0, 2.0, 1.6)[0]


class TestTailEnvelope:
    def test_uncoupled_phase_vanishes(self):
        env = tail_envelope(4.0, 25.0, 0.0)
        assert env.gamma == 0.0
        assert env.phase_rate == 0.0

    def test_three_four_five_instance(self):
        env = tail_envelope(0.0, 25.0, 6.0)
        assert math.cos(env.gamma) == pytest.approx(0.8, rel=1e-14)
        assert math.sin(env.gamma) == pytest.approx(0.6, rel=1e-14)

    def test_phase_identity(self):
        for e, v, beta in ((2.0, 25.0, 3.0), (-5.0, 49.0, 9.0), (80.0, 100.0, 4.0)):
            env = tail_envelope(e, v, beta)
            c = env.decay_rate / math.sqrt(v - e)
            s = 0.5 * beta / math.sqrt(v - e)
            assert c * c + s * s == pytest.approx(1.0, abs=1e-14)

    def test_far_field_ratio(self):
        # both components track the asymptotic form to 1e-3 by r = 30
        m, e, v, beta = 0, 2.97, 100.0, 2.0
        env = tail_envelope(e, v, beta)
        r = 30.0
        scaled, _, exponent = exterior_pair_scaled(m, e, v, beta, r)
        assert exponent == pytest.approx(env.decay_rate * r, rel=1e-14)
        # compare in scaled space (the raw values are ~1e-120)
        envelope_scaled = env.amplitude / math.sqrt(r)
        phase = 0.5 * (beta * r + env.gamma)
        assert scaled.f / (envelope_scaled * math.cos(phase)) == pytest.approx(1.0, abs=1e-3)
        assert scaled.g / (-envelope_scaled * math.sin(phase)) == pytest.approx(1.0, abs=1e-3)

    def test_window_guard(self):
        with pytest.raises(AboveWindow):
            tail_envelope(25.0, 25.0, 0.0)
