"""Bound-state coefficients, normalization and spinor evaluation.

For an energy on the spectrum, the kernel of the matching matrix gives
the coefficient vector (a, c2, b, d2) of the radial pair

    u = a x(m) + b y(m),    w = a x(m+1) - b y(m+1)

on the two waves x, y of ``radial_basis``: inside the Bessel waves
J(k_- r), J(k_+ r) with (a, b), outside x = (f2(m), g2(m+1)) and
y = (g2(m), f2(m+1)), edge-scaled by e^{Re kappa}, with (c2, d2) in
place of (a, b).  :class:`BoundState` stores this vector, in the column
order of ``equilibrated_matrix``; its ``coefficients`` are the paper's

    r < 1:   u = c1 f1(m)   + d1 g1(m)
             w = c1 g1(m+1) + d1 f1(m+1)
    r >= 1:  u = c2 f2(m)   + d2 g2(m)
             w = c2 g2(m+1) - d2 f2(m+1)

(note the minus sign on d2 in the exterior w) with c1 = a + b,
d1 = a - b, and c2, d2 at true scale, e^{Re kappa} times the stored.
Nothing reads b back as (c1 - d1)/2, which loses it where c1 and d1
nearly cancel.  The full spinor is

    Psi_m(r, phi) = ( u(r) e^{i m phi},  w(r) e^{i (m+1) phi} ).

Normalization needs N = integral_0^inf (u^2 + w^2) r dr, which has a
closed form at the well edge (Green's identity; the Lommel integrals of
DLMF 10.22(iii) are its beta = 0 case).  Divided by r, the radial
equations that :func:`ode_residual` checks read

    (r u')' + (e r - m^2/r) u       = beta (r w' + (m+1) w),
    (r w')' + (e r - (m+1)^2/r) w   = -beta (r u' - m u),

with e - v in place of e outside.  For two solutions Psi_1, Psi_2 of one
region at energies e_1, e_2, set

    B(1, 2) = u1 u2' - u2 u1' + w1 w2' - w2 w1' + beta (u2 w1 - u1 w2);

the beta terms of the two equations combine into a total derivative, so

    d/dr [r B(1, 2)] = (e_1 - e_2) r (u1 u2 + w1 w2).

Take Psi_2 = Psi(e) and Psi_1 = Psi(e_1) with the same coefficients,
divide by e_1 - e_2 and let e_1 -> e: the integrand becomes the density
and r B becomes r B(dPsi/de, Psi).  r B vanishes at r = 0 (the waves
are regular) and at infinity (they decay), so

    integral_0^1   = B(dPsi_in/de,  Psi_in)(1),
    integral_1^inf = -B(dPsi_out/de, Psi_out)(1).

Each part is its own region's integral exactly, whether or not the
coefficients match at r = 1.  The energy derivatives come by the chain
rule from the waves' slopes and curvatures at r = 1: d/de J_n(k r) =
r J_n'(k r) dk/de with dk_pm/de = 1/(k_+ + k_-) inside, and d/de
K_n(kappa r) = r K_n'(kappa r) dkappa/de with dkappa/de = -1/(2 Re kappa)
outside.  The interior waves are stored divided by k^q, so their
derivatives carry k^(q-1), which stays finite as a wave number vanishes
for q >= 1; for q = 0 (m = 0 or -1) r J_n'(k r) is taken at its limit
r J_n'(0) where k is exactly 0.  Outside, neither the edge-scaled waves
nor the stored (c2, d2) leave the float range in deep wells.  One
normalization thus costs one interior and one exterior basis evaluation.

A sample costs one pair-function call, which ``evaluate_radial`` reaches
through ``_weighted_waves``: one K call outside the well, two J calls
inside (one at beta = 0, where k_- = k_+).  The wave numbers do not
depend on r, so a state computes them once (``wave_numbers``).  Above
the Bessel regime bodies a sample runs only the entry checks, the regime
choice, the K order recurrence and the three tuples it builds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .numerics import nullspace_4x4
from .radial_basis import (
    DotParameters,
    InteriorWaveNumbers,
    RadialWave,
    exterior_pair,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)
from .spectral_solver import equilibrated_matrix

# The benchmark's tracer patches these names here, though nothing calls
# them; they go when ROADMAP item 1 points the tracer at the kernels.
integrate_panel = integrate_tail = bessel_j_many = bessel_k_many = None


@dataclass(frozen=True)
class BoundState:
    """One bound state: energy, the wave coefficients (a, c2, b, d2) of
    the module docstring, normalization flag."""

    params: DotParameters
    e: float
    a: float
    c2: float
    b: float
    d2: float
    normalized: bool = False

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        """The paper's (c1, c2, d1, d2) = (a + b, c2 e^{Re kappa}, a - b,
        d2 e^{Re kappa}): the stored exterior pair is on the edge-scaled
        waves, and at true scale it is +/-inf where it overflows."""
        with np.errstate(over="ignore"):
            lift = float(np.exp(self.wave_numbers[1].real))
        c2, d2 = (c * lift if c else c for c in (self.c2, self.d2))
        return (self.a + self.b, c2, self.a - self.b, d2)

    @cached_property
    def wave_numbers(self) -> tuple[InteriorWaveNumbers, complex]:
        """The interior (k_-, k_+) and the exterior kappa at the state's
        energy, the part of every sample that does not depend on r:
        computed once per state."""
        p = self.params
        return interior_wave_numbers(self.e, p.beta), exterior_wave_numbers(self.e, p.v, p.beta)


class SpinorSample(NamedTuple):
    """Radial sample (r, u(r), w(r)); ``evaluate_radial`` builds it with
    ``tuple.__new__``, as ``radial_basis`` builds its waves."""

    r: float
    u: float
    w: float


def _scaled(state: BoundState, factor: float, normalized: bool = False) -> BoundState:
    """The state with its four coefficients multiplied by ``factor``."""
    a, c2, b, d2 = (factor * x for x in (state.a, state.c2, state.b, state.d2))
    return replace(state, a=a, c2=c2, b=b, d2=d2, normalized=normalized)


def solve_coefficients(params: DotParameters, e: float) -> BoundState:
    """The state at a spectrum energy whose stored (a, c2, b, d2) has unit
    norm (unnormalized state).

    Sign convention: the first largest-magnitude paper coefficient is
    positive.  Raises :class:`NumericalFailure` when e is not actually an
    eigenvalue or the level is degenerate.
    """
    # the kernel of the equilibrated matrix, taken back to the scale of the
    # stored waves: there the columns lie orders of magnitude apart, which
    # would smear the kernel direction
    matrix, scale = equilibrated_matrix(params, e)
    a, c2, b, d2 = (float(x) for x in nullspace_4x4(matrix) / scale)
    if params.beta == 0.0:
        # the channels decouple, so the kernel lies in one of them: keep
        # exact zeros in the other, d1 = a - b = 0 or c1 = a + b = 0
        if math.hypot(a + b, c2) >= math.hypot(a - b, d2):
            a = b = 0.5 * (a + b)
            d2 = 0.0
        else:
            a = 0.5 * (a - b)
            b, c2 = -a, 0.0
    state = BoundState(params=params, e=e, a=a, c2=c2, b=b, d2=d2)
    # the paper's (c1, c2, d1, d2) over e^{Re kappa}, whose first largest is positive
    edge = math.exp(-state.wave_numbers[1].real)
    paper = (edge * (a + b), c2, edge * (a - b), d2)
    return _scaled(state, math.copysign(1.0, max(paper, key=abs)) / math.hypot(a, c2, b, d2))


def _combine(a: float, b: float, x_row, y_row) -> tuple[float, float]:
    """(u, w) = (a x(m) + b y(m), a x(m+1) - b y(m+1)) from one row (the
    values, the slopes or the curvatures) of the two waves x, y (module
    docstring)."""
    return a * x_row[0] + b * y_row[0], a * x_row[1] - b * y_row[1]


def _weighted_waves(state: BoundState, r: float, derivatives: int):
    """(a, b, x, y): the region's two waves at r > 0 (r = 1 belongs to the
    exterior) with their first ``derivatives`` radial derivatives, and its
    coefficient pair times the waves' divisors, the weights of :func:`_combine`."""
    m = state.params.m
    k, kappa = state.wave_numbers
    if r < 1.0:
        x, y = interior_pair(m, k, r, derivatives)
        a, b = state.a, state.b
    else:
        x, y = exterior_pair(m, kappa, r, derivatives)
        a, b = state.c2, state.d2
    return a * x.divisor, b * y.divisor, x, y


def _r_slope(wave: RadialWave, scale: float = 1.0) -> tuple[tuple, tuple]:
    """Value and slope at r = 1 of ``scale`` times r d/dr of a wave: its
    slope, and its slope + curvature."""
    bent = (s + c for s, c in zip(wave.slope, wave.curvature))
    return tuple(scale * s for s in wave.slope), tuple(scale * s for s in bent)


def _interior_energy_wave(wave: RadialWave, k: float, m: int, q: int) -> tuple[tuple, tuple]:
    """Value and slope at r = 1 of d/de of a stored interior wave, over
    dk/de.  With J_n(k r) = k^q * stored wave, d/de J_n(k r) = r J_n'(k r)
    dk/de = k^(q-1) dk/de * r * stored slope."""
    if q == 0 and k == 0.0:
        # the 0/0 limit: at q = 0 the stored waves are J_n(k r) itself and
        # r J_n'(k r) -> r J_n'(0), which is +1/2 at n = 1, -1/2 at n = -1
        # and 0 at n = 0, with the same slope at r = 1
        limit = tuple(0.5 * n if abs(n) == 1 else 0.0 for n in (m, m + 1))
        return limit, limit
    return _r_slope(wave, k ** (q - 1))


def _edge_form(ab, waves, dab, energy_waves, beta: float) -> float:
    """B(dPsi/de, Psi) at r = 1 for one region (module docstring), with
    Psi = a x + b y and dPsi/de = a' x_e + b' y_e: ``waves`` holds the
    value and slope of x and y, ``energy_waves`` those of x_e and y_e, and
    (a', b') = ``dab`` carry the chain-rule factors that x_e and y_e
    leave out."""
    (u2, w2), (du2, dw2) = (_combine(*ab, *row) for row in waves)
    (u1, w1), (du1, dw1) = (_combine(*dab, *row) for row in energy_waves)
    return u1 * du2 - u2 * du1 + w1 * dw2 - w2 * dw1 + beta * (u2 * w1 - u1 * w2)


def region_density_integrals(state: BoundState) -> tuple[float, float]:
    """(integral_0^1, integral_1^inf) of (u^2 + w^2) r dr for the state's
    coefficients, each in closed form as a boundary form at r = 1
    (module docstring)."""
    m, beta = state.params.m, state.params.beta
    k, kappa = state.wave_numbers
    x, y = interior_pair(m, k, 1.0, derivatives=2)
    q = min(abs(m), abs(m + 1))
    rate = 1.0 / (k.k_plus + k.k_minus)
    x_e = _interior_energy_wave(x, k.k_minus, m, q)
    y_e = _interior_energy_wave(y, k.k_plus, m, q)
    inside = _edge_form(
        (state.a * x.divisor, state.b * y.divisor),
        [(x.value, y.value), (x.slope, y.slope)],
        (state.a * rate, state.b * rate),
        list(zip(x_e, y_e)),
        beta,
    )
    # outside, on the exp-scaled waves: d/de K_n(kappa r) = s r d/dr K_n(kappa r)
    # with the complex s = (dkappa/de) / kappa, and (a' - i b') = (a - i b) s
    # recombines the real and imaginary parts that x and y hold
    x, y = exterior_pair(m, kappa, 1.0, derivatives=2)
    a, b = state.c2 * x.divisor, state.d2 * y.divisor
    derivative = complex(a, -b) * (-0.5 / kappa.real / kappa)
    outside = -_edge_form(
        (a, b),
        [(x.value, y.value), (x.slope, y.slope)],
        (derivative.real, -derivative.imag),
        list(zip(_r_slope(x), _r_slope(y))),
        beta,
    )
    return inside, outside


def normalize(state: BoundState) -> BoundState:
    """Rescale the coefficients by one positive factor so the radial
    density integrates to 1."""
    total = sum(region_density_integrals(state))
    if not total > 1e-300:
        raise NumericalFailure(f"normalization integral {total!r} vanished")
    return _scaled(state, 1.0 / math.sqrt(total), normalized=True)


def evaluate_radial(state: BoundState, r: float) -> SpinorSample:
    """Sample (r, u, w) of a normalized state at r >= 0: the exterior from
    r = 1 on, the origin limit at r = 0."""
    if not state.normalized:
        raise InvalidInput("state must be normalized first")
    if r == 0.0:
        # both interior waves are 1 at the origin in order 0
        m = state.params.m
        u = state.a + state.b if m == 0 else 0.0
        w = state.a - state.b if m == -1 else 0.0
    else:
        # the pair function rejects r < 0 and r that is not finite
        a, b, x, y = _weighted_waves(state, r, 0)
        (x0, x1), (y0, y1) = x.value, y.value
        u, w = a * x0 + b * y0, a * x1 - b * y1
    return tuple.__new__(SpinorSample, (r, u, w))


def evaluate_spinor(state: BoundState, r: float, phi: float) -> tuple[complex, complex]:
    """Spinor components (u e^{i m phi}, w e^{i (m+1) phi}); phi must be
    finite."""
    _, u, w = evaluate_radial(state, r)
    if not math.isfinite(phi):
        raise InvalidInput("phi must be finite")
    m = state.params.m
    return (
        u * cmath.exp(complex(0.0, m * phi)),
        w * cmath.exp(complex(0.0, (m + 1) * phi)),
    )


def ode_residual(state: BoundState, r: float) -> tuple[float, float]:
    """Residuals of the two coupled radial equations at radius r,
    scaled by the largest term magnitude of each equation.

    Second derivatives come from applying the ladder identities twice,
    so the residual isolates assembly errors from differencing noise.
    """
    if not state.normalized:
        raise InvalidInput("state must be normalized first")
    if r == 0.0 or r == 1.0:
        raise InvalidInput("residual undefined exactly at r = 0 and r = 1")
    params = state.params
    m = params.m
    beta = params.beta
    a, b, x, y = _weighted_waves(state, r, 2)
    u, w = _combine(a, b, x.value, y.value)
    du, dw = _combine(a, b, x.slope, y.slope)
    ddu, ddw = _combine(a, b, x.curvature, y.curvature)
    kinetic = (state.e - (0.0 if r < 1.0 else params.v)) * r * r
    radial_u = kinetic - m * m
    radial_w = kinetic - (m + 1) * (m + 1)

    r2 = r * r
    coupling_u = beta * r2 * (dw + (m + 1) * w / r)
    coupling_w = beta * r2 * (du - m * u / r)
    terms_u = (r2 * ddu, r * du, radial_u * u, coupling_u)
    terms_w = (r2 * ddw, r * dw, radial_w * w, coupling_w)
    residual_u = terms_u[0] + terms_u[1] + terms_u[2] - coupling_u
    residual_w = terms_w[0] + terms_w[1] + terms_w[2] + coupling_w
    scale_u = max(max(abs(t) for t in terms_u), 1e-300)
    scale_w = max(max(abs(t) for t in terms_w), 1e-300)
    return residual_u / scale_u, residual_w / scale_w
