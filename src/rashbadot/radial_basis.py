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
the formulas below are written once, and the type of the energy picks
the scalar or the lane kernels of ``special_functions``.
Both regions return two waves of one type, :class:`RadialWave`, stored
divided by a ``divisor`` (true value = value * divisor): the signed
power k^q of the wave number inside, exp(-Re(k2p) r) outside.  The
waves carry their first radial derivatives and, on request, their
second ones, by recurrence identities applied once or twice, never by
numerical differentiation:

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

import numpy as np

from .errors import AboveWindow, BelowWindow, InvalidInput, OrderCapExceeded
from .special_functions import (
    ORDER_CAP,
    bessel_j_over_power,
    bessel_j_over_power_lanes,
    bessel_k_scaled_lanes,
    bessel_k_scaled_many,
)

# not called here; bench/tracer.py patches this name on this module
from .special_functions import bessel_j_many  # noqa: F401

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
            raise OrderCapExceeded(f"|m| = {abs(self.m)} too large for order cap {ORDER_CAP}")

    @property
    def window(self) -> tuple[float, float]:
        """Open energy window (-beta^2/4, v - beta^2/4) holding all bound states."""
        quarter = 0.25 * self.beta * self.beta
        return (-quarter, self.v - quarter)


@dataclass(frozen=True)
class InteriorWaveNumbers:
    k_plus: float
    k_minus: float


@dataclass(frozen=True)
class ExteriorWaveNumbers:
    k_plus: complex
    k_minus: complex


@dataclass(frozen=True)
class RadialWave:
    """One basis wave at the orders n = m and m + 1, stored divided by
    ``divisor`` (true value = value * divisor), with its first radial
    derivatives and, on request, its second ones (``curvature``,
    otherwise ``None``).  Every field is a float, or a 1-D array with one
    lane per energy when the wave was evaluated on an array of energies."""

    value: tuple[float, float]
    slope: tuple[float, float]
    divisor: float
    curvature: tuple[float, float] | None = None


@dataclass(frozen=True)
class TailEnvelope:
    """Large-r amplitude, decay and phase of the exterior basis."""

    amplitude: float
    decay_rate: float
    phase_rate: float
    gamma: float


def interior_wave_numbers(e: float | np.ndarray, beta: float) -> InteriorWaveNumbers:
    """Interior pair sqrt(e + beta^2/4) +/- beta/2; requires e > -beta^2/4.
    ``e`` is a float or a 1-D array of energies, and so are the fields."""
    shifted = e + 0.25 * beta * beta
    lanes = isinstance(shifted, np.ndarray)
    if not (shifted.min() if lanes else shifted) > 0.0:
        raise BelowWindow(f"e = {np.min(e)} at or below window bottom {-0.25 * beta * beta}")
    root = np.sqrt(shifted) if lanes else math.sqrt(shifted)
    return InteriorWaveNumbers(k_plus=root + 0.5 * beta, k_minus=root - 0.5 * beta)


def exterior_wave_numbers(e: float | np.ndarray, v: float, beta: float) -> ExteriorWaveNumbers:
    """Exterior conjugate pair sqrt(v - e - beta^2/4) +/- i beta/2, for a
    float or a 1-D array of energies ``e``."""
    remaining = v - e - 0.25 * beta * beta
    lanes = isinstance(remaining, np.ndarray)
    if not (remaining.min() if lanes else remaining) > 0.0:
        raise AboveWindow(f"e = {np.max(e)} at or above window top {v - 0.25 * beta * beta}")
    if lanes:
        root = np.sqrt(remaining)
        return ExteriorWaveNumbers(k_plus=root + 0.5j * beta, k_minus=root - 0.5j * beta)
    root = math.sqrt(remaining)
    return ExteriorWaveNumbers(
        k_plus=complex(root, 0.5 * beta), k_minus=complex(root, -0.5 * beta)
    )


def _wave(m: int, k: float | np.ndarray, r: float, second: bool) -> RadialWave:
    """J_n(k r) / k^q at n = m, m + 1 from the orders q .. q + 3 of J
    (J_n = (-1)^n J_|n|, |n| >= q); the second derivative is

        d2/dr2 J_j(kr) = (j (j-1) / r^2) J_j - k ((2j+1)/r) J_{j+1} + k^2 J_{j+2}.
    """
    q = min(abs(m), abs(m + 1))
    # J_j(kr) / k^q = r^q J_j(x) / x^q
    j_over_power = bessel_j_over_power_lanes if isinstance(k, np.ndarray) else bessel_j_over_power
    table = j_over_power(range(q, q + (4 if second else 3)), k * r, q)
    lift = r**q
    value, slope, curvature = [], [], []
    for n in (m, m + 1):
        j = abs(n)
        sign = -lift if n < 0 and j % 2 else lift
        t0, t1 = table[j], table[j + 1]
        value.append(sign * t0)
        slope.append(sign * (j / r * t0 - k * t1))
        if second:
            t2 = table[j + 2]
            curvature.append(
                sign * (j * (j - 1) / (r * r) * t0 - k * (2 * j + 1) / r * t1 + k * k * t2)
            )
    return RadialWave(tuple(value), tuple(slope), k**q, tuple(curvature) if second else None)


def interior_pair(
    m: int, e: float | np.ndarray, beta: float, r: float, second: bool = False
) -> tuple[RadialWave, RadialWave]:
    """The two interior waves J(k_- r) and J(k_+ r) at orders m and m+1,
    each divided by the signed power k^q of its wave number,
    q = min(|m|, |m+1|), which ``divisor`` records.

    J_n(k r) ~ k^|n| with |n| >= q, so the divided waves stay O(1) for
    small |k| instead of underflowing, and the one whose number vanishes
    at e = 0 (k_- for beta > 0, k_+ for beta < 0) takes its finite limit
    there.

    With ``second`` the waves also carry their second radial derivatives;
    they need one more order of J, so only callers that use them ask.

    ``e`` is a float, or a 1-D array of energies that the lane kernel of
    J evaluates at once.
    """
    if not r > 0.0:
        raise InvalidInput("r must be positive")
    k = interior_wave_numbers(e, beta)
    return _wave(m, k.k_minus, r, second), _wave(m, k.k_plus, r, second)


def exterior_pair(
    m: int, e: float | np.ndarray, v: float, beta: float, r: float, second: bool = False
) -> tuple[RadialWave, RadialWave]:
    """The two real exterior waves x = (Re K_m, Im K_{m+1}) and
    y = (Im K_m, Re K_{m+1}) of K_n(k_+ r), each multiplied by
    exp(+Re(k_+) r), whose inverse ``divisor`` records.

    The scaled waves stay finite for arbitrarily deep wells, where the
    true ones underflow.  With ``second`` they also carry their second
    radial derivatives, and ``e`` may be an array, as in
    :func:`interior_pair`.
    """
    if not r > 0.0:
        raise InvalidInput("r must be positive")
    k = exterior_wave_numbers(e, v, beta).k_plus
    z = k * r
    reach = 2 if second else 1
    orders = range(m - reach, m + 2 + reach)
    # e^z K_n(z) times e^{-i Im z} is e^{Re z} K_n(z)
    if isinstance(z, np.ndarray):
        scaled = bessel_k_scaled_lanes(orders, z)
        phase = np.exp(-1j * z.imag)
        divisor = np.exp(-z.real)
    else:
        scaled = bessel_k_scaled_many(orders, z)
        phase = cmath.exp(complex(0.0, -z.imag))
        divisor = math.exp(-z.real)
    t = {n: value * phase for n, value in scaled.items()}
    low, high = t[m], t[m + 1]
    slope_low = -0.5 * k * (t[m - 1] + high)
    slope_high = -0.5 * k * (low + t[m + 2])
    x_curve = y_curve = None
    if second:
        curve_low = 0.25 * k**2 * (t[m - 2] + 2.0 * low + t[m + 2])
        curve_high = 0.25 * k**2 * (t[m - 1] + 2.0 * high + t[m + 3])
        x_curve, y_curve = (curve_low.real, curve_high.imag), (curve_low.imag, curve_high.real)
    return (
        RadialWave((low.real, high.imag), (slope_low.real, slope_high.imag), divisor, x_curve),
        RadialWave((low.imag, high.real), (slope_low.imag, slope_high.real), divisor, y_curve),
    )


def tail_envelope(e: float, v: float, beta: float) -> TailEnvelope:
    """Asymptotic envelope of the exterior basis:

    f2 ~  amplitude * exp(-decay_rate r) / sqrt(r) * cos((beta r + gamma)/2)
    g2 ~ -amplitude * exp(-decay_rate r) / sqrt(r) * sin((beta r + gamma)/2)
    """
    decay = exterior_wave_numbers(e, v, beta).k_plus.real
    amplitude = math.sqrt(0.5 * math.pi) * (v - e) ** -0.25
    return TailEnvelope(
        amplitude=amplitude,
        decay_rate=decay,
        phase_rate=0.5 * beta,
        gamma=math.atan2(0.5 * beta, decay),
    )
