"""Radial basis functions of the two matching regions.

Inside the well (r < 1) the coupled radial equations are solved by real
combinations of Bessel functions evaluated at the two wave numbers

    k1_pm(e, beta) = sqrt(e + beta^2/4) +/- beta/2,

    f1(n, r) = (J_n(k1m r) + J_n(k1p r)) / 2,
    g1(n, r) = (J_n(k1m r) - J_n(k1p r)) / 2.

Outside (r > 1) the wave numbers form the conjugate pair

    k2_pm(e, v, beta) = sqrt(v - e - beta^2/4) +/- i beta/2,

and because K_n(conj z) = conj(K_n(z)) the two modified-Bessel
combinations collapse to one complex evaluation:

    f2(n, r) = Re K_n(k2p r),
    g2(n, r) = Im K_n(k2p r).

This module is the one place where Bessel tables become basis values.
Both bases are returned with their first radial derivatives and, on
request, their second ones, by the ladder identities

    d/dr J_n(kr) =  k (J_{n-1}(kr) - J_{n+1}(kr)) / 2,
    d/dr K_n(kr) = -k (K_{n-1}(kr) + K_{n+1}(kr)) / 2,

applied once or twice, never by numerical differentiation.

Bound states live in the open energy window  -beta^2/4 < e < v - beta^2/4,
where the exterior functions decay like

    exp(-r sqrt(v - e - beta^2/4)) / sqrt(r)

times an oscillation of phase (beta r + gamma)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AboveWindow, BelowWindow, InvalidInput, OrderCapExceeded
from .special_functions import ORDER_CAP, bessel_j_many, bessel_k_scaled_many

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
class RadialBasisEval:
    """Values and radial derivatives of one (f, g) basis pair at a radius."""

    f: float
    g: float
    df: float
    dg: float


@dataclass(frozen=True)
class TailEnvelope:
    """Large-r amplitude, decay and phase of the exterior basis."""

    amplitude: float
    decay_rate: float
    phase_rate: float
    gamma: float


def interior_wave_numbers(e: float, beta: float) -> InteriorWaveNumbers:
    """Interior pair sqrt(e + beta^2/4) +/- beta/2; requires e > -beta^2/4."""
    shifted = e + 0.25 * beta * beta
    if not shifted > 0.0:
        raise BelowWindow(f"e = {e} at or below window bottom {-0.25 * beta * beta}")
    root = math.sqrt(shifted)
    return InteriorWaveNumbers(k_plus=root + 0.5 * beta, k_minus=root - 0.5 * beta)


def exterior_wave_numbers(e: float, v: float, beta: float) -> ExteriorWaveNumbers:
    """Exterior conjugate pair sqrt(v - e - beta^2/4) +/- i beta/2."""
    remaining = v - e - 0.25 * beta * beta
    if not remaining > 0.0:
        raise AboveWindow(f"e = {e} at or above window top {v - 0.25 * beta * beta}")
    root = math.sqrt(remaining)
    return ExteriorWaveNumbers(
        k_plus=complex(root, 0.5 * beta), k_minus=complex(root, -0.5 * beta)
    )


def _interior_from_tables(m: int, k: InteriorWaveNumbers, jm: dict, jp: dict) -> RadialBasisEval:
    f = 0.5 * (jm[m] + jp[m])
    g = 0.5 * (jm[m] - jp[m])
    deriv_minus = 0.5 * k.k_minus * (jm[m - 1] - jm[m + 1])
    deriv_plus = 0.5 * k.k_plus * (jp[m - 1] - jp[m + 1])
    return RadialBasisEval(
        f=f,
        g=g,
        df=0.5 * (deriv_minus + deriv_plus),
        dg=0.5 * (deriv_minus - deriv_plus),
    )


def _interior_second(m: int, k: InteriorWaveNumbers, jm: dict, jp: dict) -> tuple[float, float]:
    second_minus = 0.25 * k.k_minus**2 * (jm[m - 2] - 2.0 * jm[m] + jm[m + 2])
    second_plus = 0.25 * k.k_plus**2 * (jp[m - 2] - 2.0 * jp[m] + jp[m + 2])
    return 0.5 * (second_minus + second_plus), 0.5 * (second_minus - second_plus)


def interior_pair(m: int, e: float, beta: float, r: float, second: bool = False) -> tuple:
    """Interior basis at orders m and m+1 from one recurrence pass per
    wave number (the matching matrix needs both).

    With ``second`` the result also holds the second radial derivatives
    ``(f'', g'')`` at both orders: ``(low, high, low_second, high_second)``.
    They need two more orders of J, so only callers that use them ask.
    """
    if not r > 0.0:
        raise InvalidInput("r must be positive")
    k = interior_wave_numbers(e, beta)
    reach = 2 if second else 1
    orders = range(m - reach, m + 2 + reach)
    jm = bessel_j_many(orders, k.k_minus * r)
    jp = bessel_j_many(orders, k.k_plus * r)
    pair = (_interior_from_tables(m, k, jm, jp), _interior_from_tables(m + 1, k, jm, jp))
    if not second:
        return pair
    return pair + (_interior_second(m, k, jm, jp), _interior_second(m + 1, k, jm, jp))


def _exterior_scaled_tables(
    m: int, e: float, v: float, beta: float, r: float, reach: int
) -> tuple[dict[int, complex], complex, float]:
    """Scaled phase-adjusted table S_n, n = m - reach .. m + 1 + reach, with
    K_n(k_plus r) = S_n e^{-s}; returns (table, k_plus, s = Re(k_plus) r)."""
    if not r > 0.0:
        raise InvalidInput("r must be positive")
    k_plus = exterior_wave_numbers(e, v, beta).k_plus
    z = k_plus * r
    scaled = bessel_k_scaled_many(range(m - reach, m + 2 + reach), z)
    phase = cmath.exp(complex(0.0, -z.imag))
    return {n: value * phase for n, value in scaled.items()}, k_plus, z.real


def _exterior_from_tables(
    m: int, k_plus: complex, table: dict, damp: float = 1.0
) -> RadialBasisEval:
    value = table[m]
    deriv = -0.5 * k_plus * (table[m - 1] + table[m + 1])
    return RadialBasisEval(
        f=value.real * damp, g=value.imag * damp, df=deriv.real * damp, dg=deriv.imag * damp
    )


def _exterior_second(m: int, k_plus: complex, table: dict, damp: float) -> tuple[float, float]:
    curve = 0.25 * k_plus**2 * (table[m - 2] + 2.0 * table[m] + table[m + 2])
    return curve.real * damp, curve.imag * damp


def exterior_pair_scaled(
    m: int, e: float, v: float, beta: float, r: float
) -> tuple[RadialBasisEval, RadialBasisEval, float]:
    """Exterior basis at orders m and m+1 scaled by exp(+decay_rate * r),
    plus that scale exponent.

    The scaled form stays finite for arbitrarily deep wells, where the
    true basis underflows; true values are scaled * exp(-exponent).
    """
    table, k_plus, exponent = _exterior_scaled_tables(m, e, v, beta, r, 1)
    return (
        _exterior_from_tables(m, k_plus, table),
        _exterior_from_tables(m + 1, k_plus, table),
        exponent,
    )


def exterior_pair(
    m: int, e: float, v: float, beta: float, r: float, second: bool = False
) -> tuple:
    """Exterior basis at orders m and m+1 (true scale).

    With ``second`` the result also holds the second radial derivatives
    ``(f'', g'')`` at both orders, as :func:`interior_pair` does.
    """
    table, k_plus, exponent = _exterior_scaled_tables(m, e, v, beta, r, 2 if second else 1)
    damp = math.exp(-exponent)
    pair = (
        _exterior_from_tables(m, k_plus, table, damp),
        _exterior_from_tables(m + 1, k_plus, table, damp),
    )
    if not second:
        return pair
    return pair + (
        _exterior_second(m, k_plus, table, damp),
        _exterior_second(m + 1, k_plus, table, damp),
    )


def tail_envelope(e: float, v: float, beta: float) -> TailEnvelope:
    """Asymptotic envelope of the exterior basis:

    f2 ~  amplitude * exp(-decay_rate r) / sqrt(r) * cos((beta r + gamma)/2)
    g2 ~ -amplitude * exp(-decay_rate r) / sqrt(r) * sin((beta r + gamma)/2)
    """
    remaining = v - e - 0.25 * beta * beta
    if not remaining > 0.0:
        raise AboveWindow(f"e = {e} at or above window top {v - 0.25 * beta * beta}")
    decay = math.sqrt(remaining)
    amplitude = math.sqrt(0.5 * math.pi) * (v - e) ** -0.25
    return TailEnvelope(
        amplitude=amplitude,
        decay_rate=decay,
        phase_rate=0.5 * beta,
        gamma=math.atan2(0.5 * beta, decay),
    )
