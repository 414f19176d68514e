"""Shared fixtures: the full reference-grid spectra and normalized states,
computed once per session."""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rashbadot import spectral_solver
from rashbadot.radial_basis import (
    DotParameters,
    exterior_pair,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)
from rashbadot.reference_levels import REFERENCE_ROWS
from rashbadot.special_functions import bessel_j_over_power, bessel_k_scaled_many
from rashbadot.spectral_solver import equilibrated_matrix, find_spectrum
from rashbadot.wavefunction import evaluate_radial, normalize, solve_coefficients


@pytest.fixture(scope="session")
def timed_table():
    """Solve the whole reference grid once: ({(m, v, beta_factor):
    EnergySpectrum}, {(m, v, beta_factor): CPU seconds of that solve}).

    CPU time of this process, so load from other processes on a shared
    machine does not count against the criterion 1 budgets.
    """
    spectra, seconds = {}, {}
    for row in REFERENCE_ROWS:
        key = (row.m, row.v, row.beta_factor)
        start = time.process_time()
        spectra[key] = find_spectrum(DotParameters(v=row.v, beta=row.beta, m=row.m))
        seconds[key] = time.process_time() - start
    return spectra, seconds


@pytest.fixture(scope="session")
def table_spectra(timed_table):
    """{(m, v, beta_factor): EnergySpectrum} over the whole reference grid."""
    return timed_table[0]


@pytest.fixture(scope="session")
def table_states(table_spectra):
    """{(m, v, beta_factor): [normalized BoundState, ...]} for every level."""
    out = {}
    for key, spectrum in table_spectra.items():
        states = []
        for e in spectrum.levels:
            states.append(normalize(solve_coefficients(spectrum.params, e)))
        out[key] = states
    return out


# the 24-point Gauss-Legendre rule on [-1, 1], exact for degree 47
GAUSS_NODES, GAUSS_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(24))
# a panel spans at most this many e-foldings or radians of its integrand
PANEL_SPAN = 8.0
# a decaying tail is cut after this many e-foldings: e^-40 = 4e-18 of it
TAIL_E_FOLDINGS = 40.0


def gauss_legendre(f, a: float, b: float, panels: int) -> float:
    """Integral of ``f`` over [a, b] by the 24-point Gauss-Legendre rule on
    ``panels`` equal panels, sampling ``f`` point by point."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a) / panels
    total = 0.0
    for i in range(panels):
        mid = a + (2 * i + 1) * half
        total += half * sum(w * f(mid + half * x) for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS))
    return total


def gauss_legendre_tail(f, a: float, decay_rate: float, frequency: float = 0.0) -> float:
    """Integral over [a, inf) of an ``f`` that decays at least as fast as
    exp(-decay_rate r) and oscillates at most at ``frequency``: the rule of
    :func:`gauss_legendre` on TAIL_E_FOLDINGS e-foldings, in panels at most
    PANEL_SPAN e-foldings, PANEL_SPAN radians and 1 long (the algebraic
    factors of K_n(kappa r) near r = 1)."""
    if not decay_rate > 0.0:
        raise ValueError(f"decay_rate must be positive, got {decay_rate}")
    length = TAIL_E_FOLDINGS / decay_rate
    panels = math.ceil(length * max(decay_rate, frequency, PANEL_SPAN) / PANEL_SPAN)
    return gauss_legendre(f, a, a + length, panels)


def overlap_parts(state_a, state_b) -> tuple[float, float]:
    """(integral_0^1, integral_1^inf) of (u_a u_b + w_a w_b) r dr by the
    fixed Gauss-Legendre rule, sampling the two states point by point.
    With state_b = state_a it is the density integral, an oracle for the
    closed-form norm of ``wavefunction`` that shares only the basis with
    it.

    Inside, the product oscillates at most at the sum of the two states'
    larger wave numbers; outside, it decays at the sum of their Re kappa
    and oscillates at most at |beta|, since Im kappa = beta/2 at every
    energy."""

    # evaluate_radial reads only the coefficients, whatever their scale
    sampled_a, sampled_b = (replace(s, normalized=True) for s in (state_a, state_b))

    def product(r):
        _, ua, wa = evaluate_radial(sampled_a, r)
        _, ub, wb = evaluate_radial(sampled_b, r)
        return (ua * ub + wa * wb) * r

    params = state_a.params
    states = (state_a, state_b)
    wave = sum(max(map(abs, interior_wave_numbers(s.e, params.beta))) for s in states)
    decay = sum(exterior_wave_numbers(s.e, params.v, params.beta).real for s in states)
    inside = gauss_legendre(product, 0.0, 1.0, max(1, math.ceil(wave / PANEL_SPAN)))
    return inside, gauss_legendre_tail(product, 1.0, decay, abs(params.beta))


def matching_residuals(state) -> list[float]:
    """The four continuity mismatches at r = 1, scaled by local magnitude.

    Each row of the true-scale matching matrix in the wave basis, applied
    to the state's stored (a, c2, b, d2), is an interior value (columns
    a, b) minus the exterior one (columns c2, d2).
    """
    matrix, scale = equilibrated_matrix(state.params, state.e)
    out = []
    for row in matrix * scale:
        inside = row[0] * state.a + row[2] * state.b
        outside = -(row[1] * state.c2 + row[3] * state.d2)
        out.append(abs(inside - outside) / max(abs(inside), abs(outside), 1.0))
    return out


# deep wells across v, beta and m; the last one's determinant is noisy
# over about 1e-12 in e around its level at e = 169.0845
DEEP_WELLS = [
    (9961.549810803253, 125.77606606560674, -2),
    (9512.792778045305, 27.52841271669822, 0),
    (2500.0, 100.0, -12),
    (2500.0, 10.0, 5),
    (10000.0, 20.0, 3),
    (4000.0, 0.0, 3),
    (6846.12420229014, 113.18563015612773, -1),
]


# two wells whose deepest levels have Re kappa = 1000 and 775: their
# exterior coefficients overflow at true scale from Re kappa = 707 on, and
# only the edge-scaled ones that ``BoundState`` stores give every level a
# state (637 and 490 levels)
DEEP_STATE_WELLS = [(1e6, 0.0, 0), (6e5, 10.0, 3)]


def counted_lane_calls(monkeypatch) -> list[int]:
    """Wrap ``spectral_solver.equilibrated_matrix`` to count its calls on
    an array of energies (lane calls: scan chunks and probe rounds) in
    the returned one-element list."""
    equilibrated = spectral_solver.equilibrated_matrix
    lane_calls = [0]

    def counted(params, e):
        lane_calls[0] += isinstance(e, np.ndarray)
        return equilibrated(params, e)

    monkeypatch.setattr(spectral_solver, "equilibrated_matrix", counted)
    return lane_calls


def paper_basis(m, e, beta, r):
    """The paper's interior pair [(f1, g1, f1', g1') at order m, at m + 1],
    f1, g1 = (J(k_- r) +/- J(k_+ r)) / 2, from the two divided waves of
    ``interior_pair``."""
    minus, plus = interior_pair(m, interior_wave_numbers(e, beta), r)
    out = []
    for n in (0, 1):
        jm, jp = minus.value[n] * minus.divisor, plus.value[n] * plus.divisor
        dm, dp = minus.slope[n] * minus.divisor, plus.slope[n] * plus.divisor
        out.append((0.5 * (jm + jp), 0.5 * (jm - jp), 0.5 * (dm + dp), 0.5 * (dm - dp)))
    return out


def paper_exterior(m, e, v, beta, r):
    """The paper's exterior pair [(f2, g2, f2', g2') at order m, at m + 1],
    f2, g2 = Re, Im K_n(k_+ r) at true scale, from the two waves
    x = (f2(m), g2(m+1)) and y = (g2(m), f2(m+1)) of ``exterior_pair``,
    which value * divisor gives edge-scaled, e^{Re k_+} times true scale."""
    kappa = exterior_wave_numbers(e, v, beta)
    x, y = exterior_pair(m, kappa, r)
    d = x.divisor * math.exp(-kappa.real)
    return [
        (x.value[0] * d, y.value[0] * d, x.slope[0] * d, y.slope[0] * d),
        (y.value[1] * d, x.value[1] * d, y.slope[1] * d, x.slope[1] * d),
    ]


def channel_determinant(params, channel, e):
    """True-scale 2x2 determinant of spin channel 0 (order m) or 1 (m+1),
    built directly from the basis."""
    f1, _, df1, _ = paper_basis(params.m, e, params.beta, 1.0)[channel]
    f2, _, df2, _ = paper_exterior(params.m, e, params.v, params.beta, 1.0)[channel]
    sign = 1.0 if channel == 1 else -1.0
    return f1 * sign * df2 - sign * f2 * df1


def j_kernel(n, x):
    """J_n(x), n >= 0: the last row of the J kernel the solver runs, asked
    for the rows 0 .. n."""
    return bessel_j_over_power(n, x, 0)[-1]


def k_kernel(n, z):
    """K_n(z): the scaled K kernel the solver runs, asked for the one order
    n, times e^-z."""
    return bessel_k_scaled_many(range(n, n + 1), z)[0] * cmath.exp(-z)


def tail_form(e, v, beta):
    """(amplitude, decay_rate, gamma) of the leading large-r form of the
    exterior functions, K_n(z) ~ sqrt(pi / (2 z)) e^-z (DLMF 10.40.2) at
    z = kappa r:

        f2 ~  amplitude exp(-decay_rate r) / sqrt(r) cos((beta r + gamma) / 2),
        g2 ~ -amplitude exp(-decay_rate r) / sqrt(r) sin((beta r + gamma) / 2),

    with amplitude = sqrt(pi / (2 |kappa|)), decay_rate = Re kappa and
    gamma = arg kappa."""
    kappa = exterior_wave_numbers(e, v, beta)
    return math.sqrt(0.5 * math.pi / abs(kappa)), kappa.real, cmath.phase(kappa)


def uncoupled_level_count(v: float, m: int) -> int:
    """The number of levels of (v, 0, m) from the zeros of J alone.

    At beta = 0 the spectrum is that of two scalar finite circular wells,
    of orders n = m and m + 1.  A level of order n enters at the window
    top when sqrt(v) crosses a zero of J_{|n|-1} (for n = 0, of J_1, plus
    the level every 2D well binds), so the spectrum holds
    N(v, m) + N(v, m + 1) levels with

        N(v, n) = #{k : j_{|n|-1,k} < sqrt v}        for n != 0,
        N(v, 0) = 1 + #{k : j_{1,k} < sqrt v}.
    """
    from scipy.special import jn_zeros

    edge = math.sqrt(v)
    # adjacent zeros of J_0 and J_1 .. J_63 lie nearly pi apart (DLMF
    # 10.21(vi)), so the last of these lies past the edge
    available = int(edge / math.pi) + 2

    def below(order):
        zeros = jn_zeros(order, available)
        assert zeros[-1] > edge
        return int(np.count_nonzero(zeros < edge))

    return sum(1 + below(1) if n == 0 else below(abs(n) - 1) for n in (m, m + 1))
