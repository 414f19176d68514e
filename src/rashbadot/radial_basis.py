"""Radial basis functions of the two matching regions.

Inside the well (r < 1) the coupled radial equations are solved by the
two Bessel waves J_n(k1m r) and J_n(k1p r) at the wave numbers

    k1_pm(e, beta) = sqrt(e + beta^2/4) +/- beta/2,

at the orders n = m (component u) and n = m + 1 (w); the paper's
f1, g1 = (J_n(k1m r) +/- J_n(k1p r)) / 2 are a constant change of basis.
Outside (r > 1) the wave numbers form the conjugate pair

    k2_pm(e, v, beta) = sqrt(v - e - beta^2/4) +/- i beta/2,

and because K_n(conj z) = conj(K_n(z)) the two modified-Bessel
combinations collapse to one complex evaluation:

    f2(n, r) = Re K_n(k2p r),
    g2(n, r) = Im K_n(k2p r),

which give the two real exterior waves x = (f2(m), g2(m+1)) and
y = (g2(m), f2(m+1)).

This module is the one place where Bessel tables become basis values,
for one energy or for an array of energies (the scan's energy axis):
the formulas below are written once, and the type of the wave numbers
(of ``interior_wave_numbers`` and ``exterior_wave_numbers``, which do not
depend on r) picks the scalar or the lane kernels of ``special_functions``.
Both regions return two waves of one type, :class:`RadialWave`, stored
divided by a ``divisor``: the signed power k^q of the wave number inside,
exp(Re(k2p) (1 - r)) outside, where value * divisor is edge-scaled,
e^{Re k2p} K_n(k2p r), and the divisor is 1 at the well edge r = 1.  The
waves carry as many radial derivatives as the caller asks for (none,
the first, or the first two), by recurrence identities applied once or
twice, never by numerical differentiation:

    d/dr J_n(kr) = (n/r) J_n(kr) - k J_{n+1}(kr),     n >= 0 (no lower order),
    d/dr K_n(kr) = -k (K_{n-1}(kr) + K_{n+1}(kr)) / 2.

Bound states live in the open energy window  -beta^2/4 < e < v - beta^2/4,
where the exterior functions decay like

    exp(-r sqrt(v - e - beta^2/4)) / sqrt(r)

times an oscillation of phase (beta r + gamma)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentOutOfRange, InvalidInput
from .special_functions import (
    ORDER_CAP,
    bessel_j_over_power,
    bessel_k_scaled_lanes,
    bessel_k_scaled_many,
)

# The benchmark's tracer patches this name here, though nothing calls it;
# it goes when ROADMAP item 1 points the tracer at the kernels.
bessel_j_many = None

WINDOW_MARGIN = 1e-9


@dataclass(frozen=True)
class DotParameters:
    """Dimensionless problem instance: well depth v, Rashba strength beta,
    angular number m."""

    v: float
    beta: float
    m: int

    def __post_init__(self):
        # plain float and int: numpy scalars would change integer and
        # boolean arithmetic downstream
        try:
            v, beta, m = float(self.v), float(self.beta), int(self.m)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("v, beta and m must be real numbers") from None
        if m != self.m:
            raise InvalidInput(f"m = {self.m!r} must be an integer")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "m", m)
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise InvalidInput("well depth v must be positive and finite")
        if not math.isfinite(self.beta):
            raise InvalidInput("beta must be finite")
        # the matching needs orders m-2 .. m+3
        if abs(self.m) > ORDER_CAP - 3:
            raise ArgumentOutOfRange(f"|m| = {abs(self.m)} too large for order cap {ORDER_CAP}")

    @property
    def window(self) -> tuple[float, float]:
        """Open energy window (-beta^2/4, v - beta^2/4) holding all bound states."""
        quarter = 0.25 * self.beta * self.beta
        return (-quarter, self.v - quarter)


class InteriorWaveNumbers(NamedTuple):
    k_plus: float
    k_minus: float


class RadialWave(NamedTuple):
    """One basis wave at the orders n = m and m + 1, stored divided by
    ``divisor`` (value * divisor: true scale inside, edge-scaled outside),
    with its first radial derivatives (``slope``) and second ones
    (``curvature``) when asked for, otherwise ``None``.  Every field is a
    float, or a 1-D array with one lane per energy when the wave was
    evaluated on an array of energies.  The pair functions build it with
    ``tuple.__new__``, which skips the generated ``__new__`` and its
    argument handling: every wave-function sample builds two."""

    value: tuple[float, float]
    slope: tuple[float, float] | None
    divisor: float
    curvature: tuple[float, float] | None = None


def interior_wave_numbers(e: float | np.ndarray, beta: float) -> InteriorWaveNumbers:
    """Interior pair sqrt(e + beta^2/4) +/- beta/2; requires e > -beta^2/4.
    ``e`` is a float or a 1-D array of energies, and so are the fields: at
    beta = 0 one object for both, which :func:`interior_pair` evaluates
    once."""
    shifted = e + 0.25 * beta * beta
    lanes = isinstance(shifted, np.ndarray)
    if not (shifted.min(initial=math.inf) if lanes else shifted) > 0.0:
        raise InvalidInput(f"e = {np.min(e)} at or below window bottom {-0.25 * beta * beta}")
    root = np.sqrt(shifted) if lanes else math.sqrt(shifted)
    if beta == 0.0:
        return InteriorWaveNumbers(k_plus=root, k_minus=root)
    return InteriorWaveNumbers(k_plus=root + 0.5 * beta, k_minus=root - 0.5 * beta)


def exterior_wave_numbers(
    e: float | np.ndarray, v: float, beta: float
) -> complex | np.ndarray:
    """The exterior wave number kappa = k2p = sqrt(v - e - beta^2/4) + i beta/2,
    for a float or a 1-D array of energies ``e``; its partner k2m is
    conj(kappa), which the waves never need (module docstring)."""
    remaining = v - e - 0.25 * beta * beta
    lanes = isinstance(remaining, np.ndarray)
    if not (remaining.min(initial=math.inf) if lanes else remaining) > 0.0:
        raise InvalidInput(f"e = {np.max(e)} at or above window top {v - 0.25 * beta * beta}")
    if lanes:
        return np.sqrt(remaining) + 0.5j * beta
    return complex(math.sqrt(remaining), 0.5 * beta)


def _wave(rows: list, k, r: float, q: int, signed: tuple, derivatives: int) -> RadialWave:
    """One interior wave and its first ``derivatives`` (1 or 2) radial
    derivatives from ``rows``, the orders q .. q + 1 + derivatives of
    J(k r) / (k r)^q, at the (sign times r^q, row) ``signed`` of its orders
    m and m + 1, j = q + row:

        d/dr J_j(kr)   = (j / r) J_j - k J_{j+1},
        d2/dr2 J_j(kr) = (j (j-1) / r^2) J_j - k ((2j+1)/r) J_{j+1} + k^2 J_{j+2}.
    """
    value, slope, curvature = [], [], []
    # s = 1 at the well edge, unless the order is odd and negative: the
    # multiply by it changes no bit there and is skipped
    for s, i in signed:
        j, t0, t1 = q + i, rows[i], rows[i + 1]
        value.append(t0 if s == 1.0 else s * t0)
        d1 = j / r * t0 - k * t1
        slope.append(d1 if s == 1.0 else s * d1)
        if derivatives == 2:
            bend = j * (j - 1) / (r * r) * t0 - k * (2 * j + 1) / r * t1 + k * k * rows[i + 2]
            curvature.append(s * bend)
    bent = tuple(curvature) if curvature else None
    return tuple.__new__(RadialWave, (tuple(value), tuple(slope), k**q, bent))


def interior_pair(
    m: int, k: InteriorWaveNumbers, r: float, derivatives: int = 1
) -> tuple[RadialWave, RadialWave]:
    """The two interior waves J(k_- r) and J(k_+ r) at orders m and m+1,
    for the wave numbers ``k`` of :func:`interior_wave_numbers`, each
    divided by the signed power k^q of its wave number,
    q = min(|m|, |m+1|), which ``divisor`` records.

    J_n(k r) ~ k^|n| with |n| >= q, so the divided waves stay O(1) for
    small |k| instead of underflowing, and the one whose number vanishes
    at e = 0 (k_- for beta > 0, k_+ for beta < 0) takes its finite limit
    there.

    The waves carry their first ``derivatives`` (0, 1 or 2) radial
    derivatives; each needs one more order of J, so callers ask only for
    those they use.

    ``k`` holds floats, or 1-D arrays of N energies' wave numbers.  On
    arrays one J call takes the 2N arguments (k_- r, k_+ r), whose fixed
    cost is then paid once for both waves; each lane gives what it would
    give in a call of its own.  A ``k`` whose two fields are one object
    (beta = 0) takes one J call for both waves.  ``r`` must be positive
    and finite.
    """
    if not (0.0 < r < math.inf and derivatives in (0, 1, 2)):
        raise InvalidInput(f"r = {r!r} must be positive and finite, derivatives 0, 1 or 2")
    k_minus, k_plus = k.k_minus, k.k_plus
    # q = min(|m|, |m + 1|), and the rows of the orders |m| and |m + 1|
    q, i0, i1 = (m, 0, 1) if m >= 0 else (-m - 1, 1, 0)
    n_max = q + 1 + derivatives
    if k_plus is k_minus:
        # beta = 0: the two waves coincide
        minus = plus = bessel_j_over_power(n_max, k_minus if r == 1.0 else k_minus * r, q)
    elif isinstance(k_minus, np.ndarray):
        k_both = np.concatenate((k_minus, k_plus))
        both = bessel_j_over_power(n_max, k_both if r == 1.0 else k_both * r, q)
        size = len(k_minus)
        minus = [row[:size] for row in both]
        plus = [row[size:] for row in both]
    else:
        minus = bessel_j_over_power(n_max, k_minus * r, q)
        plus = bessel_j_over_power(n_max, k_plus * r, q)
    # J_n(k r) / k^q = r^q J_|n|(x) / x^q at n = m and m + 1, negated for odd n < 0
    lift = r**q
    s0 = -lift if m < 0 and m % 2 else lift
    s1 = -lift if m < -1 and m % 2 == 0 else lift
    if derivatives:
        signed = (s0, i0), (s1, i1)
        x = _wave(minus, k_minus, r, q, signed, derivatives)
        return x, _wave(plus, k_plus, r, q, signed, derivatives)
    x = tuple.__new__(RadialWave, ((s0 * minus[i0], s1 * minus[i1]), None, k_minus**q, None))
    return x, tuple.__new__(RadialWave, ((s0 * plus[i0], s1 * plus[i1]), None, k_plus**q, None))


def exterior_pair(
    m: int, kappa: complex | np.ndarray, r: float, derivatives: int = 1
) -> tuple[RadialWave, RadialWave]:
    """The two real exterior waves x = (Re K_m, Im K_{m+1}) and
    y = (Im K_m, Re K_{m+1}) of K_n(kappa r), for the wave number
    ``kappa`` of :func:`exterior_wave_numbers`, each multiplied by
    exp(+Re(kappa) r), with ``divisor`` exp(Re(kappa) (1 - r)), which is
    1 at r = 1: value * divisor is e^{Re kappa} K_n(kappa r), edge-scaled.

    The scaled waves stay finite for arbitrarily deep wells, where the
    true ones underflow, and so do coefficients on them, which at true
    scale (about e^{+Re kappa}) overflow.  ``derivatives`` is as in
    :func:`interior_pair`, and needs K at orders m .. m + 1 and one more
    each side per derivative; ``kappa`` is a complex or a 1-D array of N
    energies' wave numbers, and ``r`` must be positive and finite.
    """
    if not (0.0 < r < math.inf and derivatives in (0, 1, 2)):
        raise InvalidInput(f"r = {r!r} must be positive and finite, derivatives 0, 1 or 2")
    z = kappa * r
    orders = range(m - derivatives, m + 2 + derivatives)
    # scaled[derivatives + i] is e^z K_{m+i}(z), which e^{-i Im z} takes to e^{Re z} K_{m+i}(z)
    if isinstance(z, np.ndarray):
        scaled = bessel_k_scaled_lanes(orders, z)
        phase = np.exp(-1j * z.imag)
        divisor = np.exp(kappa.real - z.real)
    else:
        scaled = bessel_k_scaled_many(orders, z)
        phase = cmath.exp(complex(0.0, -z.imag))
        divisor = math.exp(kappa.real - z.real)
    low, high = scaled[derivatives] * phase, scaled[derivatives + 1] * phase
    x_slope = y_slope = x_curve = y_curve = None
    if derivatives:
        below, above = scaled[derivatives - 1] * phase, scaled[derivatives + 2] * phase
        half = -0.5 * kappa
        slope_low, slope_high = half * (below + high), half * (low + above)
        x_slope, y_slope = (slope_low.real, slope_high.imag), (slope_low.imag, slope_high.real)
    if derivatives == 2:
        curve_low = 0.25 * kappa**2 * (scaled[0] * phase + 2.0 * low + above)
        curve_high = 0.25 * kappa**2 * (below + 2.0 * high + scaled[5] * phase)
        x_curve, y_curve = (curve_low.real, curve_high.imag), (curve_low.imag, curve_high.real)
    return (
        tuple.__new__(RadialWave, ((low.real, high.imag), x_slope, divisor, x_curve)),
        tuple.__new__(RadialWave, ((low.imag, high.real), y_slope, divisor, y_curve)),
    )
