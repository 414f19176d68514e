"""Bound-state coefficients, normalization and spinor evaluation.

For an energy on the spectrum, the kernel of the matching matrix gives
the coefficient vector (c1, c2, d1, d2) of the radial pair

    r < 1:   u = c1 f1(m)   + d1 g1(m)
             w = c1 g1(m+1) + d1 f1(m+1)
    r >= 1:  u = c2 f2(m)   + d2 g2(m)
             w = c2 g2(m+1) - d2 f2(m+1)

(note the minus sign on d2 in the exterior w).  In both regions the pair
is evaluated on the two waves x, y of ``radial_basis`` as
u = a x(m) + b y(m), w = a x(m+1) - b y(m+1): inside with the Bessel
waves J(k_- r), J(k_+ r) and a = (c1 + d1)/2, b = (c1 - d1)/2, outside
with x = (f2(m), g2(m+1)), y = (g2(m), f2(m+1)) and a = c2, b = d2.
The state is then rescaled so that  integral_0^inf (u^2 + w^2) r dr = 1,
computed as an adaptive panel on [0, 1] plus an exponential-tail
quadrature with density decay rate 2 sqrt(v - e - beta^2/4).  The full
spinor is

    Psi_m(r, phi) = ( u(r) e^{i m phi},  w(r) e^{i (m+1) phi} ).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    BoundaryPoint,
    DegenerateState,
    InvalidInput,
    NotNormalized,
)
from .numerics import fix_sign, integrate_panel, integrate_tail, nullspace_4x4
from .radial_basis import DotParameters, exterior_pair, exterior_wave_numbers, interior_pair
from .spectral_solver import equilibrated_matrix

# not called here; bench/tracer.py patches these two names on this module
from .special_functions import bessel_j_many, bessel_k_many  # noqa: F401


@dataclass(frozen=True)
class BoundState:
    """One bound state: energy, matching coefficients, normalization flag."""

    params: DotParameters
    e: float
    c1: float
    c2: float
    d1: float
    d2: float
    normalized: bool = False

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c1, self.c2, self.d1, self.d2)


@dataclass(frozen=True)
class SpinorSample:
    """Radial sample (r, u(r), w(r))."""

    r: float
    u: float
    w: float


def solve_coefficients(params: DotParameters, e: float) -> BoundState:
    """Unit-norm coefficient vector at a spectrum energy (unnormalized state).

    Sign convention: the first largest-magnitude coefficient is positive.
    Raises :class:`NotSingular` when e is not actually an eigenvalue and
    :class:`RankDeficiency2` for degenerate levels.
    """
    # the kernel of the equilibrated matrix, mapped back to true scale and
    # to the paper's (c1, d1): at true scale the columns lie orders of
    # magnitude apart, which would smear the kernel direction
    matrix, scale = equilibrated_matrix(params, e)
    vec = nullspace_4x4(matrix)
    exponent = exterior_wave_numbers(e, params.v, params.beta).k_plus.real
    if exponent > 700.0:
        # true exterior coefficients would be ~e^{+exponent}
        raise ArgumentOutOfRange(
            f"exterior coefficients overflow double precision (decay exponent {exponent:.0f})"
        )
    a, c2, b, d2 = vec / scale
    vec = np.array([a + b, c2, a - b, d2])
    if params.beta == 0.0:
        # the channels decouple, so the kernel lies in one of them: keep
        # exact zeros in the other
        if math.hypot(vec[0], vec[1]) >= math.hypot(vec[2], vec[3]):
            vec[2:] = 0.0
        else:
            vec[:2] = 0.0
    vec = fix_sign(vec / math.sqrt(float(vec @ vec)))
    c1, c2, d1, d2 = (float(x) for x in vec)
    return BoundState(params=params, e=e, c1=c1, c2=c2, d1=d1, d2=d2)


def _terms(state: BoundState, r: float, second: bool = False) -> list[tuple[float, float]]:
    """(u, w), (u', w') and, with ``second``, (u'', w'') at r > 0; r = 1
    belongs to the exterior.  One formula for both regions,
    u = a x(m) + b y(m) and w = a x(m+1) - b y(m+1) (module docstring);
    only the two waves x, y and the coefficient pair (a, b) differ."""
    p = state.params
    if r < 1.0:
        x, y = interior_pair(p.m, state.e, p.beta, r, second)
        a, b = 0.5 * (state.c1 + state.d1), 0.5 * (state.c1 - state.d1)
    else:
        x, y = exterior_pair(p.m, state.e, p.v, p.beta, r, second)
        a, b = state.c2, state.d2
    # the waves carry true value / divisor
    a *= x.divisor
    b *= y.divisor
    waves = [(x.value, y.value), (x.slope, y.slope)]
    if second:
        waves.append((x.curvature, y.curvature))
    return [(a * wx[0] + b * wy[0], a * wx[1] - b * wy[1]) for wx, wy in waves]


def radial_components(state: BoundState, r: float) -> tuple[float, float]:
    """(u(r), w(r)) with region dispatch at r = 1 (r = 1 uses the exterior)."""
    m = state.params.m
    if r < 0.0:
        raise InvalidInput("r must be nonnegative")
    if r == 0.0:
        u = state.c1 if m == 0 else 0.0
        w = state.d1 if m + 1 == 0 else 0.0
        return u, w
    return _terms(state, r)[0]


def radial_derivatives(state: BoundState, r: float) -> tuple[float, float]:
    """(u'(r), w'(r)), same region dispatch as :func:`radial_components`."""
    if not r > 0.0:
        raise InvalidInput("r must be positive")
    return _terms(state, r)[1]


def radial_density_integral(state: BoundState) -> float:
    """integral_0^inf (u^2 + w^2) r dr for the state's coefficients."""
    params = state.params

    def density(r: float) -> float:
        u, w = radial_components(state, r)
        return (u * u + w * w) * r

    decay = 2.0 * math.sqrt(params.v - state.e - 0.25 * params.beta * params.beta)
    # the beta-oscillations inside each tail panel are resolved by the
    # adaptive subdivision of integrate_panel
    inside = integrate_panel(density, 0.0, 1.0)
    outside = integrate_tail(density, 1.0, decay)
    return inside + outside


def normalize(state: BoundState) -> BoundState:
    """Rescale the coefficients by one positive factor so the radial
    density integrates to 1."""
    total = radial_density_integral(state)
    if not total > 1e-300:
        raise DegenerateState(f"normalization integral {total!r} vanished")
    factor = 1.0 / math.sqrt(total)
    return replace(
        state,
        c1=state.c1 * factor,
        c2=state.c2 * factor,
        d1=state.d1 * factor,
        d2=state.d2 * factor,
        normalized=True,
    )


def _require_normalized(state: BoundState) -> None:
    if not state.normalized:
        raise NotNormalized("state must be normalized first")


def evaluate_radial(state: BoundState, r: float) -> SpinorSample:
    """Sample (r, u, w) of a normalized state; r = 0 via the origin limit."""
    _require_normalized(state)
    u, w = radial_components(state, r)
    return SpinorSample(r=r, u=u, w=w)


def evaluate_spinor(state: BoundState, r: float, phi: float) -> tuple[complex, complex]:
    """Spinor components (u e^{i m phi}, w e^{i (m+1) phi})."""
    _require_normalized(state)
    u, w = radial_components(state, r)
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
    _require_normalized(state)
    if r == 0.0 or r == 1.0:
        raise BoundaryPoint("residual undefined exactly at r = 0 and r = 1")
    if r < 0.0:
        raise InvalidInput("r must be nonnegative")
    params = state.params
    m = params.m
    beta = params.beta
    (u, w), (du, dw), (ddu, ddw) = _terms(state, r, second=True)
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
