import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import j_kernel, k_kernel, paper_basis, paper_exterior, tail_form
from rashbadot import radial_basis
from rashbadot.errors import InvalidInput
from rashbadot.radial_basis import (
    DotParameters,
    exterior_pair,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)

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
        with pytest.raises(InvalidInput, match="at or below window bottom"):
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
        assert exterior_wave_numbers(4.0, 25.0, 0.0) == complex(math.sqrt(21.0), 0.0)

    def test_pythagorean_instance(self):
        assert exterior_wave_numbers(0.0, 25.0, 6.0) == complex(4.0, 3.0)

    def test_window_containment(self):
        # all levels of the (v=25, beta=10) well live in (-25, 0)
        lo, hi = DotParameters(v=25.0, beta=10.0, m=0).window
        for e in (-23.25, -18.31, -9.67):
            assert lo < e < hi
            assert exterior_wave_numbers(e, 25.0, 10.0).real > 0.0

    def test_above_window(self):
        with pytest.raises(InvalidInput, match="at or above window top"):
            exterior_wave_numbers(0.0, 25.0, 10.0)


class TestInteriorBasis:
    def test_uncoupled_reduces_to_plain_bessel(self):
        e, r = 7.3, 0.63
        minus, plus = interior_pair(2, interior_wave_numbers(e, 0.0), r)
        assert minus == plus
        assert minus.divisor == pytest.approx(e, rel=1e-15)  # k^q = sqrt(e)^2
        assert minus.value[0] * minus.divisor == pytest.approx(
            j_kernel(2, math.sqrt(e) * r), rel=1e-14
        )

    def test_origin_limit_m0(self):
        for wave in interior_pair(0, interior_wave_numbers(5.0, 1.0), 1e-9):
            assert wave.divisor == 1.0
            assert wave.value[0] == pytest.approx(1.0, abs=1e-12)
            assert abs(wave.value[1]) < 1e-8

    def test_frozen_series_oracle(self):
        f, g, df, dg = paper_basis(1, 37.0825, 2.0, 0.5)[0]
        assert f == pytest.approx(INTERIOR_ORACLE["f"], rel=1e-11)
        assert g == pytest.approx(INTERIOR_ORACLE["g"], rel=1e-11)
        assert df == pytest.approx(INTERIOR_ORACLE["df"], rel=1e-11)
        assert dg == pytest.approx(INTERIOR_ORACLE["dg"], rel=1e-11)

    def test_pair_matches_single(self):
        # the upper member of the pair at m is the lower member at m + 1
        upper = paper_basis(1, 37.0825, 2.0, 0.5)[1]
        lower = paper_basis(2, 37.0825, 2.0, 0.5)[0]
        assert upper == pytest.approx(lower, rel=1e-13)

    def test_small_beta_continuity(self):
        for m in (0, 1, -2):
            a = interior_pair(m, interior_wave_numbers(5.0, 1e-8), 0.7)
            b = interior_pair(m, interior_wave_numbers(5.0, 0.0), 0.7)
            for wave_a, wave_b in zip(a, b):
                assert wave_a.divisor == pytest.approx(wave_b.divisor, rel=1e-6)
                for field in ("value", "slope"):
                    for x, y in zip(getattr(wave_a, field), getattr(wave_b, field)):
                        assert abs(x - y) < 1e-6

    @pytest.mark.parametrize("r", [1.0, 0.7])
    def test_one_j_call_serves_both_waves_at_beta_zero(self, monkeypatch, r):
        # at beta = 0 the two wave numbers are one object, and one J call
        # of N lanes gives both waves the bits that the 2N-lane call of two
        # distinct arrays gives them
        calls = []
        j_rows = radial_basis.bessel_j_over_power

        def counted(n_max, x, power):
            calls.append(np.size(x))
            return j_rows(n_max, x, power)

        monkeypatch.setattr(radial_basis, "bessel_j_over_power", counted)
        k = interior_wave_numbers(np.array([0.5, 5.0, 40.0, 900.0]), 0.0)
        assert k.k_plus is k.k_minus
        shared = interior_pair(-3, k, r, derivatives=2)
        apart = interior_pair(-3, k._replace(k_plus=k.k_plus.copy()), r, derivatives=2)
        assert calls == [4, 8]
        for got, want in zip(shared, apart):
            for field in ("value", "slope", "curvature"):
                for x, y in zip(getattr(got, field), getattr(want, field), strict=True):
                    assert np.array_equal(x, y)
            assert np.array_equal(got.divisor, want.divisor)

    def test_origin_regularity_m1(self):
        # J_1(k r) ~ C r for m = 1
        f_small = interior_pair(1, interior_wave_numbers(5.0, 1.0), 1e-6)[0].value[0]
        f_large = interior_pair(1, interior_wave_numbers(5.0, 1.0), 1e-3)[0].value[0]
        assert f_small / f_large == pytest.approx(1e-3, rel=0.1)

    def test_requires_positive_radius(self):
        with pytest.raises(InvalidInput):
            interior_pair(0, interior_wave_numbers(5.0, 1.0), 0.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_radius(self, r):
        with pytest.raises(InvalidInput, match="positive and finite"):
            interior_pair(1, interior_wave_numbers(5.0, 1.0), r)

    def test_divided_wave_does_not_underflow(self):
        # at m = 60, J_60(k) ~ (k/2)^60 / 60! underflows for |k| < ~1e-4;
        # divided by k^60 it stays near its e = 0 limit 1 / (2^60 60!)
        limit = 1.0 / (2.0**60 * math.factorial(60))
        for e in (1e-6, 1e-12, 0.0, -1e-12, -1e-6):
            minus = interior_pair(60, interior_wave_numbers(e, 1.0), 1.0)[0]
            assert minus.value[0] == pytest.approx(limit, rel=1e-5)
            assert minus.slope[0] == pytest.approx(60.0 * limit, rel=1e-5)

    def test_signed_divisor(self):
        # below e = 0 the lower wave number is negative, and so is k^q for
        # odd q: the divided wave keeps its sign through e = 0
        below = interior_pair(1, interior_wave_numbers(-0.01, 2.0), 1.0)[0]
        above = interior_pair(1, interior_wave_numbers(0.01, 2.0), 1.0)[0]
        assert below.divisor < 0.0 < above.divisor
        assert below.value[0] > 0.0 and above.value[0] > 0.0


class TestExteriorBasis:
    def test_uncoupled_reduces_to_plain_k(self):
        e, v, r = 4.0, 25.0, 1.7
        f, g, _, dg = paper_exterior(0, e, v, 0.0, r)[0]
        assert g == 0.0
        assert dg == 0.0
        expected = k_kernel(0, complex(math.sqrt(v - e) * r, 0.0)).real
        assert f == pytest.approx(expected, rel=1e-13)

    def test_real_by_construction(self):
        for wave in exterior_pair(1, exterior_wave_numbers(3.0, 25.0, 2.0), 1.4, derivatives=2):
            assert isinstance(wave.divisor, float)
            for field in ("value", "slope", "curvature"):
                assert all(isinstance(x, float) for x in getattr(wave, field))

    def test_matches_explicit_combination(self):
        # f2 = Re K_m(k+ r), g2 = Im K_m(k+ r)
        m, e, v, beta, r = 1, 3.0, 25.0, 2.0, 1.3
        value = k_kernel(m, exterior_wave_numbers(e, v, beta) * r)
        f, g, _, _ = paper_exterior(m, e, v, beta, r)[0]
        assert f == pytest.approx(value.real, rel=1e-12)
        assert g == pytest.approx(value.imag, rel=1e-12)

    def test_scaled_and_plain_agree(self):
        # the waves carry K * exp(+Re(k_+) r); value * divisor is the wave
        # edge-scaled, exp(+Re(k_+)) times true scale
        m, e, v, beta, r = 0, 3.49, 25.0, 1.0, 2.0
        k_plus = exterior_wave_numbers(e, v, beta)
        x, y = exterior_pair(m, exterior_wave_numbers(e, v, beta), r)
        assert x.divisor == y.divisor == math.exp(k_plus.real - k_plus.real * r)
        edge = math.exp(-k_plus.real)
        for n in (m, m + 1):
            true = k_kernel(n, k_plus * r)
            # x = (Re K_m, Im K_{m+1}), y = (Im K_m, Re K_{m+1})
            want_x, want_y = (true.real, true.imag) if n == m else (true.imag, true.real)
            assert x.value[n - m] * x.divisor * edge == pytest.approx(want_x, rel=1e-13)
            assert y.value[n - m] * y.divisor * edge == pytest.approx(want_y, rel=1e-13)

    def test_divisor_is_one_at_the_edge(self):
        # the edge-scaled waves are the stored ones at r = 1, for a float
        # and for an array of energies, however deep the well
        for kappa in (exterior_wave_numbers(3.0, 25.0, 2.0), exterior_wave_numbers(0.0, 1e6, 0.0)):
            assert all(wave.divisor == 1.0 for wave in exterior_pair(1, kappa, 1.0))
        lanes = exterior_wave_numbers(np.array([0.0, 3.0, 9e5]), 1e6, 4.0)
        assert all((wave.divisor == 1.0).all() for wave in exterior_pair(1, lanes, 1.0))

    def test_envelope_at_moderate_radius(self):
        # 5% agreement with the asymptotic form already at r = 2
        m, e, v, beta, r = 0, 3.49, 25.0, 1.0, 2.0
        amplitude, decay_rate, gamma = tail_form(e, v, beta)
        f = paper_exterior(m, e, v, beta, r)[0][0]
        predicted = (
            amplitude * math.exp(-decay_rate * r) / math.sqrt(r) * math.cos(0.5 * (beta * r + gamma))
        )
        assert f == pytest.approx(predicted, rel=0.05)

    def test_decay_bound(self):
        m, e, v, beta = 0, 3.49, 25.0, 1.0
        near_f, near_g, _, _ = paper_exterior(m, e, v, beta, 2.0)[0]
        far_f, far_g, _, _ = paper_exterior(m, e, v, beta, 20.0)[0]
        rate = exterior_wave_numbers(e, v, beta).real
        bound = 10.0 * math.exp(-18.0 * rate)
        assert abs(far_f) <= abs(near_f) * bound
        assert abs(far_g) <= max(abs(near_g), abs(near_f)) * bound

    def test_pair_matches_single(self):
        # the upper member of the pair at m is the lower member at m + 1
        assert paper_exterior(1, 3.0, 25.0, 2.0, 1.6)[1] == paper_exterior(2, 3.0, 25.0, 2.0, 1.6)[0]

    @pytest.mark.parametrize("r", [0.0, math.inf, math.nan, -math.inf])
    def test_rejects_a_radius_not_positive_and_finite(self, r):
        # at r = inf the K recurrence would overflow instead
        with pytest.raises(InvalidInput, match="positive and finite"):
            exterior_pair(1, exterior_wave_numbers(3.0, 25.0, 2.0), r)


class TestDerivativeCount:
    # each derivative needs one more Bessel order; the fields a count
    # leaves out are None, and those it keeps equal a fuller count's bit
    # for bit
    @pytest.mark.parametrize("m", [-3, -1, 0, 2])
    @pytest.mark.parametrize("region", ["interior", "exterior"])
    def test_fewer_derivatives_keep_the_same_fields(self, region, m):
        def pair(derivatives):
            if region == "interior":
                return interior_pair(m, interior_wave_numbers(3.0, 2.0), 0.7, derivatives)
            return exterior_pair(m, exterior_wave_numbers(3.0, 25.0, 2.0), 1.4, derivatives)

        full = pair(2)
        assert all(wave.curvature is not None for wave in full)
        for count in (0, 1):
            for wave, whole in zip(pair(count), full):
                assert (wave.value, wave.divisor) == (whole.value, whole.divisor)
                assert wave.slope == (whole.slope if count else None)
                assert wave.curvature is None

    @pytest.mark.parametrize("derivatives", [-1, 3, 1.5])
    def test_rejects_other_counts(self, derivatives):
        with pytest.raises(InvalidInput):
            interior_pair(1, interior_wave_numbers(3.0, 2.0), 0.7, derivatives)
        with pytest.raises(InvalidInput):
            exterior_pair(1, exterior_wave_numbers(3.0, 25.0, 2.0), 1.4, derivatives)


class TestTailEnvelope:
    """The exterior waves against their large-r form (``conftest.tail_form``)."""

    def test_uncoupled_phase_vanishes(self):
        # at beta = 0 kappa is real, and so is K_n(kappa r) at every radius:
        # the g2 parts, y at order m and x at m + 1, are exactly zero
        assert exterior_wave_numbers(4.0, 25.0, 0.0).imag == 0.0
        for r in (1.0, 5.0, 30.0):
            x, y = exterior_pair(0, exterior_wave_numbers(4.0, 25.0, 0.0), r)
            assert (y.value[0], x.value[1]) == (0.0, 0.0)

    def test_three_four_five_instance(self):
        # kappa = 4 + 3i: e^(Re z) K_0(z) e^(i Im z) -> sqrt(pi / (2 kappa r)),
        # so (2 r / pi) times its square tends to 1 / kappa = 0.16 - 0.12i,
        # with relative error about 1 / (4 |kappa| r)
        r = 100.0
        x, y = exterior_pair(0, exterior_wave_numbers(0.0, 25.0, 6.0), r)
        scaled = complex(x.value[0], y.value[0]) * cmath.exp(3j * r)
        assert abs(2.0 * r / math.pi * scaled**2 - complex(0.16, -0.12)) < 1e-3 * 0.2

    def test_phase_identity(self):
        # |kappa|^2 = v - e: the envelope's decay and phase rates lie on a circle
        for e, v, beta in ((2.0, 25.0, 3.0), (-5.0, 49.0, 9.0), (80.0, 100.0, 4.0)):
            kappa = exterior_wave_numbers(e, v, beta)
            c = kappa.real / math.sqrt(v - e)
            s = 0.5 * beta / math.sqrt(v - e)
            assert kappa.imag == 0.5 * beta
            assert c * c + s * s == pytest.approx(1.0, abs=1e-14)

    def test_far_field_ratio(self):
        # both components track the asymptotic form to 1e-3 by r = 30
        m, e, v, beta = 0, 2.97, 100.0, 2.0
        amplitude, decay_rate, gamma = tail_form(e, v, beta)
        r = 30.0
        x, y = exterior_pair(m, exterior_wave_numbers(e, v, beta), r)
        # the divisor holds the decay beyond the well edge
        exponent = -math.log(x.divisor)
        assert exponent == pytest.approx(decay_rate * (r - 1.0), rel=1e-14)
        # compare in scaled space (the raw values are ~1e-120)
        envelope_scaled = amplitude / math.sqrt(r)
        phase = 0.5 * (beta * r + gamma)
        assert x.value[0] / (envelope_scaled * math.cos(phase)) == pytest.approx(1.0, abs=1e-3)
        assert y.value[0] / (-envelope_scaled * math.sin(phase)) == pytest.approx(1.0, abs=1e-3)

    def test_window_guard(self):
        with pytest.raises(InvalidInput, match="at or above window top"):
            exterior_pair(0, exterior_wave_numbers(25.0, 25.0, 0.0), 2.0)
