import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import avx512_groups, j_kernel, k_kernel
from rashbadot import special_functions
from rashbadot.errors import ArgumentOutOfRange
from rashbadot.radial_basis import (
    DotParameters,
    exterior_pair,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)
from rashbadot.spectral_solver import equilibrated_matrix
from rashbadot.special_functions import (
    J_ARGUMENT_CAP,
    ORDER_CAP,
    _K_BLOCK,
    _J_HANKEL_PAIRS,
    _J_HANKEL_RADIUS,
    _J_SERIES_RADIUS,
    _J_SERIES_TERMS,
    _K_CUTS,
    _K_NODES_12,
    _K_NODES_16,
    _K_NODES_24,
    _K_NODES_56,
    _K_POINT_CUTS,
    _K_RULES,
    _K_RUNGS,
    _K_SERIES_TERMS,
    _j_miller,
    _k01_quadrature,
    _k_regime,
    bessel_j_over_power,
    bessel_k_scaled_lanes,
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


def j_one(n, x):
    """J_n(x) of either sign of n: the kernel's J_|n|(x), folded by
    J_{-n}(x) = (-1)^n J_n(x)."""
    value = j_kernel(abs(n), x)
    return -value if n < 0 and n % 2 else value


class TestBesselJ:
    def test_at_origin(self):
        assert j_kernel(0, 0.0) == 1.0
        assert j_kernel(1, 0.0) == 0.0
        for m in (2, 5, -3, 17):
            assert j_one(m, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        # zero located by a high-precision series oracle at generation time
        assert abs(j_kernel(0, FIRST_J0_ZERO)) < 1e-12

    @pytest.mark.parametrize("n,x,expected", J_ORACLE)
    def test_against_frozen_oracle(self, n, x, expected):
        assert j_kernel(n, x) == pytest.approx(expected, rel=1e-12)

    def test_negative_argument_parity(self):
        assert j_one(2, -3.1) == j_one(2, 3.1)
        assert j_one(3, -4.2) == -j_one(3, 4.2)

    def test_negative_order_parity(self):
        assert j_one(-2, 3.1) == j_one(2, 3.1)
        assert j_one(-3, 4.2) == -j_one(3, 4.2)
        assert j_one(-3, -4.2) == j_one(3, 4.2)

    def test_numpy_scalars_match_python_scalars(self):
        # numpy bools add as a logical or, which once lost the sign of
        # J_n(-x) for odd negative n
        assert j_one(np.int64(-3), -2.5) == j_one(-3, -2.5) > 0.0
        for n in range(-5, 6):
            for x in (-7.3, -2.5, -0.4, 0.4, 2.5, 7.3):
                assert j_one(np.int64(n), np.float64(x)) == j_one(n, x)

    def test_order_cap(self):
        with pytest.raises(ArgumentOutOfRange, match="exceeds order cap 64"):
            j_kernel(65, 1.0)

    def test_argument_cap(self):
        with pytest.raises(ArgumentOutOfRange):
            j_kernel(0, J_ARGUMENT_CAP + 0.5)
        with pytest.raises(ArgumentOutOfRange):
            j_kernel(0, math.nan)

    def test_over_power(self):
        # the rows p .. n_max of J_n(x) / x^p: the plain quotient where
        # nothing underflows, the series' leading term
        # (x/2)^(n-p) / (2^p n!) where J_n(x) would
        for n_max, x, p in ((3, 1.7, 2), (30, 33.0, 30), (5, -4.2, 3), (4, -0.9, 4), (9, 7.3, 0)):
            rows = bessel_j_over_power(n_max, x, p)
            assert len(rows) == n_max + 1 - p
            for n, got in zip(range(p, n_max + 1), rows):
                assert got == pytest.approx(j_one(n, x) / x**p, rel=1e-14)
        leading = 1.0 / (2.0**61 * math.factorial(61))
        assert bessel_j_over_power(61, 1e-200, 61) == [pytest.approx(leading, rel=1e-15)]
        assert bessel_j_over_power(61, -1e-200, 61) == [pytest.approx(leading, rel=1e-15)]
        assert bessel_j_over_power(62, 0.0, 61) == [pytest.approx(leading, rel=1e-15), 0.0]
        with pytest.raises(ArgumentOutOfRange, match="power 3 outside 0 .. n_max 2"):
            bessel_j_over_power(2, 1.0, 3)
        with pytest.raises(ArgumentOutOfRange, match="power -1 outside 0 .. n_max 2"):
            bessel_j_over_power(2, 1.0, -1)

    @pytest.mark.parametrize(
        "n_max,power,size",
        # every regime: the series, Miller's recurrence, Hankel's expansion
        [(6, 0, 1.3), (4, 4, 0.9), (9, 2, 7.3), (7, 1, 24.0), (20, 3, 60.0), (14, 12, 150.0)],
    )
    def test_negative_argument_flips_the_odd_offsets(self, n_max, power, size):
        # J_n(-x) / (-x)^p = (-1)^(n + p) J_n(x) / x^p: row i of the rows
        # p .. n_max flips sign when i is odd, bit for bit, for a float and
        # for lanes
        rows = bessel_j_over_power(n_max, size, power)
        flipped = [-value if i % 2 else value for i, value in enumerate(rows)]
        assert bessel_j_over_power(n_max, -size, power) == flipped
        lanes = bessel_j_over_power(n_max, np.array([size, -size]), power)
        assert [row[0] for row in lanes] == rows
        assert [row[1] for row in lanes] == flipped

    def test_many_matches_scalar(self):
        # the rows of one pass are each order asked for alone
        rows = bessel_j_over_power(3, 7.3, 0)
        for n in range(4):
            assert rows[n] == j_kernel(n, 7.3)

    @pytest.mark.parametrize(
        "orders,power,xs",
        [
            # series: the origin, an underflowing leading term, x <= 2
            (range(0, 4), 0, (0.0, 1e-200, 0.3, 1.999, 2.0)),
            (range(61, 63), 61, (0.0, 1e-200, -1e-200, 1.5)),
            # Miller recurrence, 2 < x <= 200, beside series lanes
            (range(2, 6), 2, (2.0000001, 7.3, 33.0, 150.0, 200.0, 0.7)),
            # negative x with a signed power, in both regimes
            (range(3, 7), 3, (-0.9, -4.2, -60.0, -199.5, 4.2)),
            # Hankel's expansion, x >= 25 and x > n_max + 2, beside Miller
            # lanes on the other side of each bound and a series lane
            (range(0, 17), 0, (25.0, 30.0, 99.9, 150.0, 1999.9, 24.9999999, 18.0, 1.0)),
            (range(30, 33), 30, (34.0, 34.0000001, 60.0, 24.9999999, 25.0)),
            # negative x with a signed power in Hankel lanes
            (range(12, 15), 12, (-25.0, -33.3, -150.0, -199.5, 140.0, -20.0, -1.5)),
        ],
    )
    def test_lanes_match_scalar(self, orders, power, xs):
        # the lanes of the rows power .. n_max, one row per order, equal the
        # scalar's rows to rounding
        lanes = bessel_j_over_power(orders[-1], np.array(xs), power)
        assert len(lanes) == len(orders)
        for i, x in enumerate(xs):
            scalar = bessel_j_over_power(orders[-1], x, power)
            for row, value in zip(lanes, scalar, strict=True):
                assert row[i] == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_hankel_lane_is_the_same_alone_and_in_a_batch(self):
        # a lane does its own arithmetic whatever its batch-mates are: the
        # lanes of a 2100-lane grid over all three regimes (Hankel beside
        # series and Miller lanes) equal the same lanes asked for alone,
        # bit for bit
        rng = np.random.default_rng(13)
        xs = np.concatenate([rng.uniform(-200.0, 200.0, 2000), rng.uniform(-2.0, 2.0, 100)])
        batch = bessel_j_over_power(14, xs, 12)
        size = np.abs(xs)
        for regime in (size <= 2.0, (2.0 < size) & (size < 25.0), size >= 25.0):
            for i in np.flatnonzero(regime)[::15]:
                alone = bessel_j_over_power(14, xs[i : i + 1], 12)
                assert [row[0] for row in alone] == [row[i] for row in batch]

    @pytest.mark.parametrize("n_max", [1, 4, 9, 14, 33, 64])
    def test_miller_lane_is_the_same_alone_and_in_a_batch(self, n_max):
        # Miller lanes start at their own even index, at least n_max + 12,
        # up to that of the top of the regime, and each takes its seed on the
        # step above its start: every start of the span, beside series and
        # Hankel lanes, gives the lane it gives alone, bit for bit
        top = max(_J_HANKEL_RADIUS, n_max + 2)
        rng = np.random.default_rng(n_max)
        miller = np.concatenate(
            [np.linspace(2.0 + 1e-9, top - 1e-9, 400), rng.uniform(2.0, top, 100)]
        )
        xs = np.concatenate([miller * rng.choice((-1.0, 1.0), 500), [0.5, -1.9, 150.0, -300.0]])
        power = n_max // 3
        batch = bessel_j_over_power(n_max, xs, power)
        starts = {}
        for i, x in enumerate(miller.tolist()):
            start = max(int(x + 9.0 * x ** (1.0 / 3.0) + 8.0), n_max + 12)
            starts.setdefault(start + start % 2, i)
        assert sorted(starts) == list(range(min(starts), max(starts) + 1, 2))
        for i in [*starts.values(), 500, 501, 502, 503]:
            alone = bessel_j_over_power(n_max, xs[i : i + 1], power)
            assert [row[0] for row in alone] == [row[i] for row in batch]

    def test_miller_stays_finite_up_to_the_order_cap(self):
        # the recurrence carries no rescale: below the cap its trial values
        # peak near 1e81, just above x = 2
        xs = np.concatenate([2.0 + np.logspace(-15, 0, 60), np.linspace(3.0, 200.0, 200)])
        assert np.all(np.isfinite(_j_miller(ORDER_CAP, xs, 0)))
        for x in xs[::13]:
            assert all(math.isfinite(value) for value in _j_miller(ORDER_CAP, float(x), 0))

    def test_miller_overflow_raises(self):
        # far past the cap the trial values overflow; the normalization
        # check turns that into an error instead of NaN
        with pytest.raises(ArgumentOutOfRange):
            _j_miller(300, 2.5, 0)
        with pytest.raises(ArgumentOutOfRange), np.errstate(over="ignore", invalid="ignore"):
            _j_miller(300, np.array([50.0, 2.5]), 0)

    def test_miller_start_against_mpmath(self):
        # the recurrence starts at x + 9 x^(1/3) + 8 (at least n_max + 12):
        # over its whole domain, 2 < x < 25 at every n_max <= ORDER_CAP and
        # 25 <= x <= n_max + 2, the rows 0 .. n_max lie within 2.2e-15 of
        # the largest of them (2.16e-15 measured on this grid, at n_max = 53,
        # x = 54.5; a start at + 24 gave 1.99e-15); n_max = 0 is left out,
        # since J_0 alone vanishes at its zeros.  The reference rows come
        # from mpmath's J_65 and J_66 by the downward recurrence, which is
        # stable for J, at 30 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        top = ORDER_CAP + 2
        xs = [2.0 + 1e-9, *np.arange(2.05, 25.0, 0.1), *np.arange(25.0, top + 1e-9, 0.25)]
        worst = 0.0
        for x in (round(float(x), 6) for x in xs):
            exact = mp.mpf(x)
            rows = {top: mp.besselj(top, exact), top - 1: mp.besselj(top - 1, exact)}
            for n in range(top - 1, 0, -1):
                rows[n - 1] = 2 * n / exact * rows[n] - rows[n + 1]
            ref = [float(rows[n]) for n in range(ORDER_CAP + 1)]
            for n_max in range(1 if x < 25.0 else math.ceil(x - 2.0), ORDER_CAP + 1):
                got = _j_miller(n_max, x, 0)
                error = max(abs(a - b) for a, b in zip(got, ref))
                worst = max(worst, error / max(map(abs, ref[: n_max + 1])))
        assert worst <= 2.2e-15

    def test_lanes_raise_as_scalar(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_j_over_power(1, np.array([1.0, J_ARGUMENT_CAP + 0.5]), 0)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j_over_power(1, np.array([1.0, math.nan]), 0)
        with pytest.raises(ArgumentOutOfRange, match="exceeds order cap 64"):
            bessel_j_over_power(65, np.array([1.0]), 0)
        with pytest.raises(ArgumentOutOfRange, match="power 3 outside 0 .. n_max 2"):
            bessel_j_over_power(2, np.array([1.0]), 3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        x=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_three_term_recurrence(self, n, x):
        lhs = j_kernel(n - 1, x) + j_kernel(n + 1, x)
        rhs = (2.0 * n / x) * j_kernel(n, x)
        scale = max(abs(lhs), abs(rhs), 0.5 / math.sqrt(x))
        assert abs(lhs - rhs) / scale < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=0.1, max_value=50.0), n=st.integers(min_value=1, max_value=8))
    def test_wronskian_neighbor_products(self, x, n):
        # J_{n+1} J_{n-1} - J_n^2 evaluated from one batched pass vs
        # independent single evaluations
        batch = bessel_j_over_power(n + 1, x, 0)
        direct = [j_kernel(n - 1, x), j_kernel(n, x), j_kernel(n + 1, x)]
        lhs = batch[n + 1] * batch[n - 1] - batch[n] ** 2
        rhs = direct[2] * direct[0] - direct[1] ** 2
        assert abs(lhs - rhs) < 1e-10


def pruned_hermite_rule(points: int) -> tuple:
    """The ``points``-point Gauss-Hermite rule folded onto its positive
    nodes s as (t, w) = (s^2, 2 w), keeping the nodes with
    w (1 + t) > 1e-18 w_0."""
    s, weights = np.polynomial.hermite.hermgauss(points)
    positive = s > 0.0
    t, w = s[positive] ** 2, 2.0 * weights[positive]
    keep = w * (1.0 + t) > 1e-18 * w[0]
    return tuple(zip(t[keep].tolist(), w[keep].tolist()))


def check_ladder_derivatives(derivatives, r, abs_tol, h=1e-6):
    """First derivatives against central differences of the values, and
    second derivatives against central differences of the first.
    ``derivatives(r)`` gives (values, first, second) as equal-length lists."""
    values, first, second = derivatives(r)
    below, above = derivatives(r - h), derivatives(r + h)

    def central(order):
        return [(b - a) / (2.0 * h) for a, b in zip(below[order], above[order])]

    for got, want in zip(first + second, central(0) + central(1)):
        assert abs(got - want) < abs_tol


def interior_derivatives(m, e, beta):
    """``check_ladder_derivatives`` view of the two interior waves."""

    def derivatives(r):
        waves = interior_pair(m, interior_wave_numbers(e, beta), r, derivatives=2)
        fields = ("value", "slope", "curvature")
        return [[x for wave in waves for x in getattr(wave, field)] for field in fields]

    return derivatives


def exterior_derivatives(m, e, v, beta):
    """``check_ladder_derivatives`` view of the two exterior waves, at true
    scale, since their divisor depends on r."""

    def derivatives(r):
        waves = exterior_pair(m, exterior_wave_numbers(e, v, beta), r, derivatives=2)
        fields = ("value", "slope", "curvature")
        return [
            [x * wave.divisor for wave in waves for x in getattr(wave, field)]
            for field in fields
        ]

    return derivatives


def j_series_stop(x):
    """The term at which a stopping rule would end the J series at x,
    the most over the rows n = 0 .. ORDER_CAP: the first whose size is
    below 1e-18 of the sum."""
    stops = []
    for n in range(ORDER_CAP + 1):
        total = term = (0.5 * x) ** n / math.factorial(n)
        for k in range(1, 100):
            term *= -0.25 * x * x / (k * (n + k))
            total += term
            if abs(term) < 1e-18 * abs(total):
                break
        stops.append(k)
    return max(stops)


def hankel_stop(x):
    """The pair of terms (of Q, then of P) at which a stopping rule would
    end Hankel's expansion of J_0 and J_1 at x: the first whose P terms of
    J_0 and J_1 sum in size below 1e-18."""
    t = [1.0, 1.0]
    for pair in range(1, 100):
        for m in (2 * pair - 1, 2 * pair):
            t = [t[nu] * (4 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m * x) for nu in (0, 1)]
        if abs(t[0]) + abs(t[1]) < 1e-18:
            break
    return pair


def k_series_stop(z):
    """The term at which a stopping rule would end the K log series at z:
    the first h^k / (k!)^2, h = z^2/4, whose size times H_(k+1) + 1 is
    below 1e-18 of |sum_k h^k H_k / (k!)^2| + |I_0(z)|."""
    h = 0.25 * z * z
    t0, i0, s0, harmonic = 1.0, 1.0, 0.0, 0.0
    for k in range(1, 100):
        t0 *= h / (k * k)
        harmonic += 1.0 / k
        i0 += t0
        s0 += t0 * harmonic
        if abs(t0) * (harmonic + 1.0 / (k + 1) + 1.0) < 1e-18 * (abs(s0) + abs(i0)):
            break
    return k


# |z| = 3 from the real axis to the imaginary one, Re z > 0, Im z >= 0
K_SERIES_EDGE = _K_CUTS[0] * np.exp(1j * np.linspace(0.0, 0.5 * math.pi, 91)[:-1])


@pytest.mark.parametrize(
    "stop,count,edge,regime",
    [
        (
            j_series_stop,
            _J_SERIES_TERMS,
            [_J_SERIES_RADIUS],
            np.linspace(0.05, _J_SERIES_RADIUS, 40),
        ),
        (
            hankel_stop,
            _J_HANKEL_PAIRS,
            [_J_HANKEL_RADIUS],
            np.linspace(_J_HANKEL_RADIUS, J_ARGUMENT_CAP, 41),
        ),
        (
            k_series_stop,
            _K_SERIES_TERMS,
            K_SERIES_EDGE,
            np.outer(np.linspace(0.05, 1.0, 20), K_SERIES_EDGE).ravel(),
        ),
    ],
    ids=["j_series", "hankel", "k_series"],
)
def test_fixed_series_length_is_what_the_stopping_rule_needs(stop, count, edge, regime):
    # each series sums a fixed count of terms, for one argument and for
    # lanes alike; the stopping rules above, which live here alone, derive
    # it: at its regime's worst argument, on the edge the regime split
    # sets, the last of the terms is the first that meets the rule, and no
    # argument inside the regime needs more
    assert max(stop(a) for a in edge) == count
    assert max(stop(a) for a in regime) <= count


# the bound every K quadrature rule meets on its span; 9.0e-16 measured
K_BOUND = 1e-15

# sizes across the span of each point rule, from just above its cut; 7.0
# is the 56-point rule's worst size
POINT_RULE_SIZES = (
    (3.0000001, 5.0, 7.0, 7.5),
    (7.5000001, 10.0, 13.0),
    (13.0000001, 19.0, 25.0),
    (25.0000001, 28.0),
)


def k_seeds_mpmath(mp, z: complex) -> tuple[complex, complex]:
    """(e^z K_0(z), e^z K_1(z)) to 30 digits by the ascending series
    (DLMF 10.31.1-2) in mpmath, with the digits its cancellation costs, at
    most 2|z| / ln 10: a tenth of the time of mpmath's ``besselk``."""
    with mp.workdps(30 + int(0.87 * abs(z)) + 5):
        z = mp.mpc(z.real, z.imag)
        h = z * z / 4
        euler = +mp.euler
        term = i0 = i1 = mp.mpc(1)  # term = h^k / (k!)^2
        harmonic, harmonic_next = mp.mpf(0), mp.mpf(1)  # H_k, H_(k+1)
        s0, s1 = mp.mpf(0), 1 - 2 * euler
        k = 0
        while abs(term) * (harmonic + 2) >= 1e-3 * mp.eps * abs(i0):
            k += 1
            term = term * h / (k * k)
            harmonic, harmonic_next = harmonic_next, harmonic_next + mp.mpf(1) / (k + 1)
            i0 += term
            s0 += term * harmonic
            i1 += (term_1 := term / (k + 1))
            s1 += term_1 * (harmonic + harmonic_next - 2 * euler)
        log_half = mp.log(z / 2)
        k0 = -(log_half + euler) * i0 + s0
        k1 = 1 / z + log_half * (z / 2) * i1 - z / 4 * s1
        scale = mp.exp(z)
        return complex(scale * k0), complex(scale * k1)


def test_point_rules_meet_the_k_bound_where_no_narrower_rule_does():
    # one point takes the narrowest rule its |z| allows: each point rule
    # lies within K_BOUND of 30-digit mpmath across its span, at 39 angles
    # from the real axis to 1e-9 off the imaginary one in both
    # half-planes; just above each cut the next narrower rule does not,
    # and one unit below each cut between 3 and the last (a lane cut too)
    # the rule above it does not either, so each rule takes over near
    # where it can
    mp = pytest.importorskip("mpmath")
    half_pi = 0.5 * math.pi
    angles = [*np.linspace(0.0, half_pi, 38)[:-1].tolist(), half_pi - 1e-6, half_pi - 1e-9]
    # the oracle against mpmath's besselk, inside its range and at its top
    # on the real axis, where its series cancels most
    for z in (5.0 + 5.0j, 30.0 + 0.0j):
        exact = mp.mpc(z.real, z.imag)
        for n, value in enumerate(k_seeds_mpmath(mp, z)):
            ref = complex(mp.besselk(n, exact) * mp.exp(exact))
            assert value == pytest.approx(ref, rel=1e-16)
    refs = {}

    def error(size, rule=None):
        """The worst relative error of the seeds at |z| = size, by the
        point's own rule, or by ``rule``."""
        worst = 0.0
        for angle in angles:
            z = cmath.rect(size, angle)
            if z not in refs:
                refs[z] = k_seeds_mpmath(mp, z)
            ref = refs[z]
            for point, exact in ((z, ref), (z.conjugate(), [x.conjugate() for x in ref])):
                if rule is None:
                    got = bessel_k_scaled_many(range(2), point)
                else:
                    got = _k01_quadrature(point, rule)
                worst = max(worst, *(abs(g - x) / abs(x) for g, x in zip(got, exact)))
        return worst

    assert [sizes[0] - 1e-7 for sizes in POINT_RULE_SIZES] == pytest.approx(_K_POINT_CUTS)
    for i, sizes in enumerate(POINT_RULE_SIZES):
        for size in sizes:
            assert _k_regime(size) == i + 1
            assert error(size) <= K_BOUND, size
        if i + 1 < len(_K_RULES):
            assert error(sizes[0], _K_RULES[i + 1]) > K_BOUND, sizes[0]
    for cut, rule in zip(_K_POINT_CUTS[1:-1], _K_RULES[1:-1]):
        assert error(cut - 1.0, rule) > K_BOUND, cut


class TestBesselJDerivative:
    """Derivatives of J, as the interior waves of ``radial_basis`` carry
    them."""

    def test_j0_derivative_identity(self):
        # beta = 0, e = 1: the wave is J_0(r), so its slope is -J_1(r)
        k = interior_wave_numbers(1.0, 0.0)
        for r in (0.3, 1.0, 2.7):
            assert interior_pair(0, k, r)[0].slope[0] == pytest.approx(-j_kernel(1, r), abs=1e-14)

    def test_matches_finite_difference(self):
        check_ladder_derivatives(interior_derivatives(1, 6.0, 2.0), 0.7, 1e-8)

    def test_zero_wave_number(self):
        # at e = 0 the lower wave number is 0: J_n(k r) / k^q takes its
        # limit r^q / (2^q q!) at |n| = q and 0 at |n| = q + 1
        r = 1.3
        for m in (0, 1, 5, -2, -6):
            q = min(abs(m), abs(m + 1))
            c = 1.0 / (2.0**q * math.factorial(q))
            sign = (-1.0) ** q if m < 0 else 1.0
            limit = (r**q, q * r ** (q - 1), q * (q - 1) * r ** (q - 2))
            wave = interior_pair(m, interior_wave_numbers(0.0, 2.0), r, derivatives=2)[0]
            at = 1 if m < 0 else 0  # the order with |n| = q
            for field, want in zip(("value", "slope", "curvature"), limit):
                got = getattr(wave, field)
                assert got[at] == pytest.approx(sign * c * want, rel=1e-14)
                assert got[1 - at] == 0.0

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
        check_ladder_derivatives(interior_derivatives(m, e, beta), r, 1e-7)


class TestBesselK:
    def test_k0_at_one(self):
        # frozen integral-representation oracle
        assert k_kernel(0, complex(1.0, 0.0)).real == pytest.approx(
            0.42102443824070834, abs=1e-10
        )
        assert k_kernel(0, complex(1.0, 0.0)).imag == 0.0

    @pytest.mark.parametrize("n,re,im,kre,kim", K_ORACLE)
    def test_against_frozen_oracle(self, n, re, im, kre, kim):
        got = k_kernel(n, complex(re, im))
        assert abs(got - complex(kre, kim)) <= 1e-10 * abs(complex(kre, kim))

    def test_conjugation_bit_exact(self):
        z = complex(1.5, 0.7)
        assert k_kernel(2, z.conjugate()) == k_kernel(2, z).conjugate()

    def test_negative_order_symmetry(self):
        z = complex(2.0, 1.0)
        assert k_kernel(-3, z) == k_kernel(3, z)

    def test_asymptotic_regime(self):
        z = complex(10.0, 0.0)
        leading = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) * (1.0 - 1.0 / (8.0 * z))
        got = k_kernel(0, z)
        assert abs(got - leading) / abs(got) < 2e-3
        # agreement improves with |z|
        z2 = complex(40.0, 0.0)
        leading2 = cmath.sqrt(math.pi / (2.0 * z2)) * cmath.exp(-z2) * (1.0 - 1.0 / (8.0 * z2))
        got2 = k_kernel(0, z2)
        assert abs(got2 - leading2) / abs(got2) < abs(got - leading) / abs(got)

    def test_domain_error(self):
        with pytest.raises(ArgumentOutOfRange, match="requires a finite z with Re z > 0"):
            k_kernel(0, complex(-1.0, 1.0))
        with pytest.raises(ArgumentOutOfRange, match="requires a finite z with Re z > 0"):
            k_kernel(0, complex(0.0, 1.0))

    def test_order_cap(self):
        with pytest.raises(ArgumentOutOfRange, match="exceeds order cap 64"):
            k_kernel(65, complex(1.0, 0.0))

    def test_scaled_consistency(self):
        # the scaled rows e^z K_n(z), their scale taken out, are K_n(z)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        z = complex(3.0, 2.0)
        scaled = bessel_k_scaled_many(range(3), z)
        for n in (0, 1, 2):
            plain = complex(mp.besselk(n, mp.mpc(z.real, z.imag)))
            assert scaled[n] * cmath.exp(-z) == pytest.approx(plain, rel=1e-13)

    # points in every seed regime and beside their cuts: the log series
    # (|z| <= 3), the Gauss-Hermite rungs (|z| > 3, cut at 14.5 and 25,
    # from near the imaginary axis to |z| = 1000), either side of the
    # point cuts 7.5 and 13, where a lane and a point take different
    # rules, and the lower half-plane
    LANE_POINTS = (
        1e-6 + 0j, 0.5 + 0.5j, 1.5 + 0.7j, 2.0 + 0j, 2.0000001 + 0j,
        1.0 + 1.7320509j, 3.0 + 0j,
        3.0000001 + 0j, 0.1 + 3.01j, 0.5 + 3j, 3 + 2j, 6 + 6j, 7.5 + 0j,
        7.5000001 + 0j, 0.3 + 7.49j, 0.3 + 7.9j, 13.0 + 0j, 13.0000001 + 0j,
        0.2 + 12.99j, 0.2 + 13.01j,
        0.5 + 12j, 0.99 + 12.4j, 1 + 12.4j, 12.4999 + 0j, 12.5 + 0j,
        14.5 + 0j, 14.5000001 + 0j, 0.2 + 14.6j, 10 + 20j, 25.0 + 0j,
        25.0000001 + 0j, 1e-3 + 25.1j,
        30 + 40j, 140 + 139j, 1000 + 5j,
        1.5 - 0.7j, 0.3 - 7.9j, 3 - 2j, 7.4 - 1.3j, 12.9 - 1.6j, 30 - 40j,
    )

    def test_lanes_match_scalar(self):
        # a lane of each requested order equals the scalar's value to rounding
        orders = range(-2, 6)
        lanes = bessel_k_scaled_lanes(orders, np.array(self.LANE_POINTS))
        assert len(lanes) == len(orders)
        for i, z in enumerate(self.LANE_POINTS):
            scalar = bessel_k_scaled_many(orders, z)
            tol = 1e-14
            if abs(z) <= 3.0:
                # the log series sums terms up to ~e^|z| to a result ~e^-Re z,
                # so it magnifies the one-ulp difference between numpy's and
                # the interpreter's complex rounding by that ratio
                tol = max(tol, 2.0**-52 * math.exp(abs(z) + z.real))
            for row, value in zip(lanes, scalar, strict=True):
                assert abs(row[i] - value) <= tol * abs(value)

    @pytest.mark.parametrize("orders", [range(0, 1), range(1, 3), range(-3, 3), range(-4, -1)])
    def test_values_align_with_the_requested_orders(self, orders):
        # one value per order from the lowest, K_{-n} = K_n, and
        # K_n(conj z) = conj(K_n(z)) bit for bit, in every seed regime and
        # for a number and lanes alike
        points = [complex(z) for z in self.LANE_POINTS if z.imag > 0.0]
        for z in points:
            table = bessel_k_scaled_many(range(0, 5), z)
            values = bessel_k_scaled_many(orders, z)
            assert values == [table[abs(n)] for n in orders]
            assert bessel_k_scaled_many(orders, z.conjugate()) == [v.conjugate() for v in values]
        lanes = bessel_k_scaled_lanes(orders, np.array(points))
        table = bessel_k_scaled_lanes(range(0, 5), np.array(points))
        mirrored = bessel_k_scaled_lanes(orders, np.array(points).conj())
        assert len(lanes) == len(mirrored) == len(orders)
        assert all(np.array_equal(row, table[abs(n)]) for n, row in zip(orders, lanes))
        assert all(np.array_equal(row.conj(), other) for row, other in zip(lanes, mirrored))

    @pytest.mark.parametrize("orders", [range(1, 2), range(0, 2)])
    @pytest.mark.parametrize(
        "z",
        [
            complex(math.inf, 0.0),
            complex(math.inf, 1.0),
            complex(1.0, math.inf),
            complex(1.0, -math.inf),
            complex(1.0, math.nan),
        ],
    )
    def test_non_finite_argument_is_a_domain_error(self, orders, z):
        # Re z > 0 passes for these, yet K there is no number: both forms
        # refuse them before any arithmetic, and warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentOutOfRange, match="requires a finite z with Re z > 0"):
                bessel_k_scaled_many(orders, z)
            with pytest.raises(ArgumentOutOfRange, match="requires a finite z with Re z > 0"):
                bessel_k_scaled_lanes(orders, np.array([1.0 + 1.0j, z]))

    def test_quadrature_lane_is_the_same_alone_and_in_a_batch(self):
        # a lane does its own arithmetic whatever its batch-mates are: the
        # log-series lanes and each quadrature rung's lanes of a 2000-lane
        # grid over both half-planes, 0.1 <= |z| <= 1000, equal the same
        # lanes asked for alone, bit for bit
        rng = np.random.default_rng(17)
        sizes = np.exp(rng.uniform(math.log(0.1), math.log(1000.0), 2000))
        zs = sizes * np.exp(1j * rng.uniform(-1.5, 1.5, 2000))
        orders = range(0, 3)
        batch = bessel_k_scaled_lanes(orders, zs)
        regimes = np.digitize(sizes, _K_CUTS, right=True)
        for regime in range(len(_K_RUNGS) + 1):
            lanes = np.flatnonzero(regimes == regime)[::15]
            assert len(lanes) >= 5, regime
            for i in lanes:
                alone = bessel_k_scaled_lanes(orders, zs[i : i + 1])
                assert [row[0] for row in alone] == [row[i] for row in batch]

    def test_series_lane_is_the_same_alone_and_in_a_batch(self):
        # the log series sums its terms as one stack: each lane of a
        # 2000-lane batch on both half-planes, 1e-6 <= |z| <= 3, equals the
        # same lane asked for alone, bit for bit
        rng = np.random.default_rng(19)
        sizes = np.exp(rng.uniform(math.log(1e-6), math.log(3.0), 2000))
        zs = sizes * np.exp(1j * rng.uniform(-1.57, 1.57, 2000))
        orders = range(-1, 3)
        batch = bessel_k_scaled_lanes(orders, zs)
        for i in range(0, 2000, 7):
            alone = bessel_k_scaled_lanes(orders, zs[i : i + 1])
            assert [row[0] for row in alone] == [row[i] for row in batch]

    def test_lanes_mirror_under_conjugation(self):
        # each half-plane is evaluated directly, and every operation of the
        # seed regimes and the recurrence commutes with conjugation:
        # K_n(conj z) = conj(K_n(z)) bit for bit on 2000 lanes over both
        # half-planes and every regime, 1e-6 <= |z| <= 200, from near the
        # real axis to within 2e-9 of the imaginary one, and on every 40th
        # lane as a single point
        rng = np.random.default_rng(23)
        sizes = np.exp(rng.uniform(math.log(1e-6), math.log(200.0), 2000))
        offsets = 1.0 - 10.0 ** -rng.uniform(0.0, 9.0, 2000)
        angles = rng.choice([-0.5, 0.5], 2000) * math.pi * offsets
        zs = sizes * np.exp(1j * angles)
        assert set(np.digitize(sizes, _K_CUTS, right=True)) == set(range(len(_K_RUNGS) + 1))
        orders = range(-3, 6)
        direct = bessel_k_scaled_lanes(orders, zs)
        mirrored = bessel_k_scaled_lanes(orders, zs.conj())
        for row, other in zip(direct, mirrored, strict=True):
            assert row.conj().tobytes() == other.tobytes()
        for z in zs[::40].tolist():
            mirrored = bessel_k_scaled_many(orders, z.conjugate())
            assert mirrored == [v.conjugate() for v in bessel_k_scaled_many(orders, z)]

    @pytest.mark.parametrize("rung", range(len(_K_RUNGS)))
    def test_quadrature_lanes_agree_across_a_block_edge(self, rung):
        # a rung takes its lanes _K_BLOCK nodes-by-lanes at a time: the lanes
        # on either side of the first two block edges, and a one-lane last
        # block, give the bits they give alone
        block = _K_BLOCK // len(_K_RUNGS[rung])
        low, high = _K_CUTS[rung], (*_K_CUTS, 200.0)[rung + 1]
        rng = np.random.default_rng(rung)
        sizes = rng.uniform(low, high, 2 * block + 1)
        zs = sizes * np.exp(1j * rng.uniform(-1.5, 1.5, sizes.size))
        batch = bessel_k_scaled_lanes(range(0, 2), zs)
        for i in (0, block - 1, block, block + 1, 2 * block - 1, 2 * block):
            alone = bessel_k_scaled_lanes(range(0, 2), zs[i : i + 1])
            assert [row[0] for row in alone] == [row[i] for row in batch]

    def test_quadrature_nodes_are_the_pruned_hermite_rule(self):
        # every literal rule is its Gauss-Hermite rule folded onto its
        # positive nodes as (s^2, 2 w), keeping the nodes with
        # w (1 + t) > 1e-18 w_0; the family runs from the widest rule, each
        # carrying the K_1 weight w t, and each lane rung is the rule a
        # point takes just above the rung's lane cut
        literals = {name for name in vars(special_functions) if name.startswith("_K_NODES_")}
        assert literals == {"_K_NODES_56", "_K_NODES_24", "_K_NODES_16", "_K_NODES_12"}
        rules = (
            (56, _K_NODES_56, 21), (24, _K_NODES_24, 12), (16, _K_NODES_16, 8), (12, _K_NODES_12, 6)
        )
        for (points, nodes, kept), rule in zip(rules, _K_RULES, strict=True):
            assert pruned_hermite_rule(points) == nodes
            assert len(nodes) == kept
            assert rule == tuple((t, w, w * t) for t, w in nodes)
        assert _K_CUTS == (3.0, 14.5, 25.0)
        assert _K_POINT_CUTS == (3.0, 7.5, 13.0, 25.0)
        for cut, rung in zip(_K_CUTS, _K_RUNGS, strict=True):
            assert rung is _K_RULES[_k_regime(math.nextafter(cut, math.inf)) - 1]

    def test_lanes_keep_the_rung_ladder(self):
        # lanes take the rung of their lane span whatever rule a point
        # takes at their |z|: the seeds of 600 lanes over both half-planes,
        # 3 < |z| <= 60, are byte for byte those of the 56-, 16- and
        # 12-point rules, built here from hermgauss, above the cuts 3, 14.5
        # and 25
        rng = np.random.default_rng(29)
        sizes = np.concatenate([rng.uniform(3.0, 60.0, 594), [7.5, 13.0, 14.5, 14.6, 25.0, 25.1]])
        zs = sizes * np.exp(1j * rng.uniform(-1.5, 1.5, sizes.size))
        sizes = np.abs(zs)
        k0, k1 = bessel_k_scaled_lanes(range(0, 2), zs)
        spans = ((3.0, 14.5, 56), (14.5, 25.0, 16), (25.0, math.inf, 12))
        for low, high, points in spans:
            lanes = (low < sizes) & (sizes <= high)
            assert lanes.sum() >= 50
            rung = np.array([(t, w, w * t) for t, w in pruned_hermite_rule(points)])
            seeds = _k01_quadrature(zs[lanes], rung.T[:, :, None])
            assert k0[lanes].tobytes() == seeds[0].tobytes()
            assert k1[lanes].tobytes() == seeds[1].tobytes()

    def test_lanes_raise_as_scalar(self):
        with pytest.raises(ArgumentOutOfRange, match="requires a finite z with Re z > 0"):
            bessel_k_scaled_lanes(range(0, 1), np.array([1.0 + 0j, -1.0 + 1j]))
        with pytest.raises(ArgumentOutOfRange, match="exceeds order cap 64"):
            bessel_k_scaled_lanes(range(65, 66), np.array([1.0 + 0j]))
        with pytest.raises(ArgumentOutOfRange, match="exceeds order cap 64"):
            bessel_k_scaled_many(range(-65, 0), 1.0 + 0j)
        # K_50 near the origin overflows the forward recurrence
        z = np.array([5.0 + 0j, 1e-5 + 0j])
        with pytest.raises(ArgumentOutOfRange):
            bessel_k_scaled_many(range(50, 51), complex(z[1]))
        with pytest.raises(ArgumentOutOfRange):
            bessel_k_scaled_lanes(range(50, 51), z)

    def test_zero_dimensional_argument_is_one_point(self):
        # a 0-d array takes the scalar form in both regimes and half-planes,
        # with the bits of the numpy scalar
        for z in (0.5 + 0.2j, 1 + 1j, 5 + 1j, 5 - 1j, 40 - 3j):
            scalar = bessel_k_scaled_many(range(3), np.complex128(z))
            assert bessel_k_scaled_many(range(3), np.array(z)) == scalar

    def test_scaled_survives_deep_well_arguments(self):
        # unscaled K underflows near Re z ~ 750; the scaled value stays O(1)
        z = complex(1000.0, 5.0)
        value = bessel_k_scaled_many(range(1), z)[0]
        assert 0.01 < abs(value) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        re=st.floats(min_value=0.05, max_value=30.0),
        im=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_three_term_recurrence(self, n, re, im):
        z = complex(re, im)
        # the scaled rows share the factor e^z, so they keep the recurrence
        low, middle, high = bessel_k_scaled_many(range(n - 1, n + 2), z)
        lhs = low - high
        rhs = -(2.0 * n / z) * middle
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
        assert k_kernel(n, z.conjugate()) == k_kernel(n, z).conjugate()


class TestBesselKDerivative:
    """Ladder-identity derivatives of K, as the exterior basis pairs of
    ``radial_basis`` carry them."""

    def test_k0_derivative_identity(self):
        # beta = 0: f = K_0(k r) with k = sqrt(v - e) = 2, so f' = -2 K_1(2 r);
        # slope * divisor is edge-scaled, e^2 times f'
        for r in (0.4, 1.1, 3.0):
            expected = -2.0 * k_kernel(1, complex(2.0 * r, 0.0)).real
            x = exterior_pair(0, exterior_wave_numbers(21.0, 25.0, 0.0), r)[0]
            assert x.slope[0] * x.divisor * math.exp(-2.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference(self):
        # k_plus = 3 + i: complex argument, so f and g are both nonzero
        check_ladder_derivatives(exterior_derivatives(1, 12.0, 25.0, 2.0), 1.2, 1e-7)

    def test_conjugate_wave_number(self):
        # beta -> -beta conjugates k_plus: g = Im K and its derivatives flip
        # sign, f = Re K and its derivatives keep their values, bit for bit;
        # x = (f(m), g(m+1)) and y = (g(m), f(m+1))
        x_a, y_a = exterior_pair(2, exterior_wave_numbers(3.0, 25.0, 1.8), 0.8, 2)
        x_b, y_b = exterior_pair(2, exterior_wave_numbers(3.0, 25.0, -1.8), 0.8, 2)
        assert x_b.divisor == x_a.divisor
        for field in ("value", "slope", "curvature"):
            (f_a, g_a), (f_b, g_b) = getattr(x_a, field), getattr(x_b, field)
            assert (f_b, g_b) == (f_a, -g_a)
            (g_a, f_a), (g_b, f_b) = getattr(y_a, field), getattr(y_b, field)
            assert (g_b, f_b) == (-g_a, f_a)


@pytest.mark.slow
class TestLiveHighPrecisionOracle:
    """Spot comparison against an independent multiprecision library."""

    def test_j_sampled_grid(self):
        # rows 0 .. n_max against the largest of them, in every regime and
        # on both sides of the Hankel bounds x = 25 and x = n_max + 2; the
        # upward recurrence from Hankel's J_0 and J_1 up to the argument cap
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n_max in (0, 1, 4, 13, 23, 40, ORDER_CAP):
            edge = n_max + 2.0
            for x in (
                0.7, 2.0, 2.5, 5.1, 19.7, 24.99, 25.0, 25.01,
                edge - 0.01, edge, edge + 0.01, 87.3, 166.0, 199.9,
                316.2, 499.7, 1000.0, 1414.2, 1999.9, J_ARGUMENT_CAP,
            ):
                got = bessel_j_over_power(n_max, x, 0)
                ref = [float(mp.besselj(n, mp.mpf(x))) for n in range(n_max + 1)]
                error = max(abs(got[n] - ref[n]) for n in range(n_max + 1))
                assert error <= 1e-13 * max(map(abs, ref)), (n_max, x)

    def test_k_sampled_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n in (0, 2, 6):
            for re, im in (
                (0.4, 0.1), (1.9, 6.5), (8.0, 1.0), (16.0, 55.0), (0.3, 11.4),
                (0.99, 12.4), (1e-6, 12.6), (0.5, 3.0), (3.0, 0.0),
            ):
                got = k_kernel(n, complex(re, im))
                ref = complex(mp.besselk(n, mp.mpc(re, im)))
                assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_k_seeds_beyond_the_series(self):
        # e^z K_0 and e^z K_1 from each quadrature rule, 3 < |z| <= 1000
        # with sizes at and just above each cut, from the real axis to 1e-9
        # off the imaginary one and in the lower half-plane; up to |z| = 30
        # against the series oracle, which takes a tenth of besselk's time
        # there, and beyond against besselk, where the series would need
        # too many digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        half_pi = 0.5 * math.pi
        for size in (
            3.0000001, 3.2, 4.5, 7.5, 7.5000001, 8.0, 12.5, 13.0, 13.0000001, 14.5,
            14.5000001, 15.0, 20.0, 25.0, 25.0000001, 26.0, 30.0, 100.0, 400.0, 1000.0,
        ):
            for angle in (
                0.0, 0.3, 0.8, 1.2, 1.5, half_pi - 1e-6, half_pi - 1e-9,
                -0.7, -1.5, -(half_pi - 1e-9),
            ):
                z = cmath.rect(size, angle)
                got = bessel_k_scaled_many(range(2), z)
                if size <= 30.0:
                    refs = k_seeds_mpmath(mp, z)
                else:
                    exact = mp.mpc(z.real, z.imag)
                    refs = [complex(mp.besselk(n, exact) * mp.exp(exact)) for n in (0, 1)]
                for n, ref in enumerate(refs):
                    assert abs(got[n] - ref) <= 2e-15 * abs(ref), (n, z)


def test_no_lanes_give_empty_rows():
    # a zero-length array of lanes is a valid call of every lane entry point
    none = np.array([])
    assert [row.shape for row in bessel_j_over_power(4, none, 1)] == [(0,)] * 4
    k_rows = bessel_k_scaled_lanes(range(-2, 3), none.astype(complex))
    assert [(row.shape, row.dtype) for row in k_rows] == [((0,), np.complex128)] * 5
    matrix, scale = equilibrated_matrix(DotParameters(100.0, 20.0, 2), none)
    assert matrix.shape == (0, 4, 4) and scale.shape == (0, 4)


def test_lane_batches_agree_without_avx512():
    # numpy picks its loops by the CPU; with its AVX-512 groups switched
    # off, the lanes of a batch still give the bits they give alone, in the
    # Bessel kernels and in the matching matrix, and K still mirrors under
    # conjugation
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512_groups())}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__]
        + [str(Path(__file__).with_name("test_spectral_solver.py"))]
        + ["-k", "alone_and_in_a_batch or across_a_block_edge or mirror_under_conjugation"
                 " or lanes_independent_of_batch"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert " passed" in result.stdout and "skipped" not in result.stdout
