"""Bessel J_n for real argument and modified Bessel K_n for complex argument.

J_n(x) is computed by the ascending power series for |x| <= 2 and by
backward (Miller) recurrence with the normalization

    J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1

for 2 < |x| <= 200.  Negative arguments and negative orders are folded
onto the positive quadrant through the parity reflections

    J_n(-x) = (-1)^n J_n(x),        J_{-n}(x) = (-1)^n J_n(x).

K_n(z) requires Re z > 0 and is assembled from seed values K_0, K_1 by
the forward order recurrence K_{n+1} = K_{n-1} + (2n/z) K_n, which is
stable for K.  The seeds come from three regimes (boundaries validated
to keep the worst relative error near 1e-11 over 1e-6 <= |z| <= 200):

* ascending log series for |z| <= 2, and also for Re z < 1 with
  |z| < 12.5 where the continued fraction stalls near the imaginary
  axis but the series suffers little cancellation;
* Steed's continued fraction for Re z >= 1, 2 < |z| < 12.5;
* the large-argument asymptotic expansion for |z| >= 12.5.

All K evaluation is done internally on the exponentially scaled function
e^z K_n(z), which stays representable for Re z far beyond the point
where K itself underflows; the public entry point multiplies the scale
back in.  Conjugate arguments are routed through K_n(conj z) =
conj(K_n(z)) so the symmetry holds bit-exactly.  Radial derivatives of
the basis built from these functions live in ``radial_basis``.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

from .errors import ArgumentOutOfRange, DomainError, NoConvergence, OrderCapExceeded

ORDER_CAP = 64
J_ARGUMENT_CAP = 200.0
K_ARGUMENT_CAP = 200.0

EULER_GAMMA = 0.5772156649015328606

_SERIES_ASYMPTOTIC_SPLIT = 12.5
_CF_REAL_FLOOR = 1.0
_CF_MAX_ITER = 20000


def _check_order(n: int) -> None:
    if abs(n) > ORDER_CAP:
        raise OrderCapExceeded(f"|n| = {abs(n)} exceeds cap {ORDER_CAP}")


# ---------------------------------------------------------------------------
# Bessel J, real argument
# ---------------------------------------------------------------------------


def _j_series(n: int, x: float) -> float:
    """Ascending series for J_n(x), 0 <= x <= 2."""
    term = 1.0
    for k in range(1, n + 1):
        term *= x / (2.0 * k)
        if term == 0.0:
            return 0.0
    total = term
    q = -0.25 * x * x
    for k in range(1, 40):
        term *= q / (k * (n + k))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def _j_sequence(n_max: int, x: float) -> list[float]:
    """[J_0(x), ..., J_n_max(x)] for x >= 0."""
    if x == 0.0:
        return [1.0] + [0.0] * n_max
    if x <= 2.0:
        return [_j_series(n, x) for n in range(n_max + 1)]

    start = int(x + 9.0 * x ** (1.0 / 3.0) + 24.0)
    start = max(start, n_max + 12)
    if start % 2:
        start += 1

    out = [0.0] * (n_max + 1)
    j_above = 0.0
    j_here = 1e-30
    norm = 0.0
    for n in range(start, 0, -1):
        j_below = (2.0 * n / x) * j_here - j_above
        j_above = j_here
        j_here = j_below
        if n - 1 <= n_max:
            out[n - 1] = j_here
        if n % 2 == 0:
            norm += 2.0 * j_above
        if abs(j_here) > 1e250:
            j_here *= 1e-250
            j_above *= 1e-250
            norm *= 1e-250
            for i in range(n_max + 1):
                out[i] *= 1e-250
    norm += j_here  # j_here now holds the J_0 trial value
    return [v / norm for v in out]


def bessel_j_many(orders: Iterable[int], x: float) -> dict[int, float]:
    """J_n(x) for every order in ``orders`` from one recurrence pass."""
    orders = list(orders)
    for n in orders:
        _check_order(n)
    if not abs(x) <= J_ARGUMENT_CAP:
        raise ArgumentOutOfRange(f"|x| = {abs(x)!r} beyond validated domain {J_ARGUMENT_CAP}")
    n_abs_max = max((abs(n) for n in orders), default=0)
    seq = _j_sequence(n_abs_max, abs(x))
    # int, not bool: two numpy bools add as a logical or
    negative_x = int(x < 0.0)
    out = {}
    for n in orders:
        value = seq[abs(n)]
        flips = int(n < 0) + negative_x
        if abs(n) % 2 == 1 and flips % 2 == 1:
            value = -value
        out[n] = value
    return out


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind, integer order, real argument."""
    return bessel_j_many((n,), x)[n]


# ---------------------------------------------------------------------------
# Modified Bessel K, complex argument (Re z > 0)
# ---------------------------------------------------------------------------


def _k01_series_scaled(z: complex) -> tuple[complex, complex]:
    """(e^z K_0, e^z K_1) by the ascending log series."""
    h = 0.25 * z * z
    log_half_z = cmath.log(0.5 * z)
    t0 = 1.0 + 0.0j  # h^k / (k!)^2
    t1 = 1.0 + 0.0j  # h^k / (k! (k+1)!)
    i0 = t0
    i1_sum = t1
    s0 = 0.0 + 0.0j
    s1 = (1.0 - 2.0 * EULER_GAMMA) * t1
    harmonic = 0.0
    for k in range(1, 130):
        t0 *= h / (k * k)
        t1 *= h / (k * (k + 1))
        harmonic += 1.0 / k
        harmonic_next = harmonic + 1.0 / (k + 1)
        i0 += t0
        i1_sum += t1
        s0 += t0 * harmonic
        s1 += t1 * (harmonic + harmonic_next - 2.0 * EULER_GAMMA)
        if abs(t0) * (harmonic_next + 1.0) < 1e-18 * (abs(s0) + abs(i0)):
            break
    i1 = 0.5 * z * i1_sum
    k0 = -(log_half_z + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + log_half_z * i1 - 0.25 * z * s1
    scale = cmath.exp(z)
    return scale * k0, scale * k1


def _k01_cf2_scaled(z: complex) -> tuple[complex, complex]:
    """(e^z K_0, e^z K_1) by Steed's continued fraction; Re z > 0."""
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = d
    delta_h = d
    q_prev = 0.0 + 0.0j
    q_here = 1.0 + 0.0j
    a1 = 0.25
    q = a1 + 0.0j
    c = a1 + 0.0j
    a = -a1
    s = 1.0 + q * delta_h
    for i in range(2, _CF_MAX_ITER):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q_next = (q_prev - b * q_here) / a
        q_prev = q_here
        q_here = q_next
        q += c * q_next
        b += 2.0
        d = 1.0 / (b + a * d)
        delta_h = (b * d - 1.0) * delta_h
        h += delta_h
        delta_s = q * delta_h
        s += delta_s
        if abs(delta_s) < 1e-16 * abs(s):
            break
    else:
        raise NoConvergence(f"K continued fraction stalled at z = {z!r}")
    h = a1 * h
    k0 = cmath.sqrt(math.pi / (2.0 * z)) / s
    k1 = k0 * (z + 0.5 - h) / z
    return k0, k1


def _k01_asymptotic_scaled(z: complex) -> tuple[complex, complex]:
    """(e^z K_0, e^z K_1) by the large-|z| expansion, |z| >= 12.5."""
    prefactor = cmath.sqrt(math.pi / (2.0 * z))
    seeds = []
    for n in (0, 1):
        four_n2 = 4.0 * n * n
        term = 1.0 + 0.0j
        total = term
        previous = abs(term)
        for k in range(1, 60):
            term *= (four_n2 - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
            if abs(term) >= previous:
                break  # divergent tail of the asymptotic series
            total += term
            previous = abs(term)
            if abs(term) < 1e-18 * abs(total):
                break
        seeds.append(prefactor * total)
    return seeds[0], seeds[1]


def _k01_scaled(z: complex) -> tuple[complex, complex]:
    modulus = abs(z)
    if modulus >= _SERIES_ASYMPTOTIC_SPLIT:
        return _k01_asymptotic_scaled(z)
    if modulus <= 2.0 or z.real < _CF_REAL_FLOOR:
        return _k01_series_scaled(z)
    return _k01_cf2_scaled(z)


def bessel_k_scaled_many(orders: Iterable[int], z: complex) -> dict[int, complex]:
    """e^z K_n(z) for every order in ``orders``; Re z > 0, any magnitude.

    Internal workhorse: not subject to the public |z| cap, so the
    exterior basis stays usable for very deep wells where the unscaled
    K underflows double precision.
    """
    orders = list(orders)
    for n in orders:
        _check_order(n)
    if not z.real > 0.0:
        raise DomainError(f"K_n requires Re z > 0, got z = {z!r}")
    conjugated = z.imag < 0.0
    if conjugated:
        z = z.conjugate()
    n_abs_max = max((abs(n) for n in orders), default=0)
    k0, k1 = _k01_scaled(z)
    seq = [k0, k1]
    for n in range(1, n_abs_max):
        seq.append(seq[n - 1] + (2.0 * n / z) * seq[n])
    out = {}
    for n in orders:
        value = seq[abs(n)]
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ArgumentOutOfRange(f"K_{n}({z!r}) overflowed the recurrence")
        out[n] = value.conjugate() if conjugated else value
    return out


def bessel_k_many(orders: Iterable[int], z: complex) -> dict[int, complex]:
    """K_n(z) for every order in ``orders``; validated for |z| <= 200."""
    z = complex(z)
    if not abs(z) <= K_ARGUMENT_CAP:
        raise ArgumentOutOfRange(f"|z| = {abs(z)!r} beyond validated domain {K_ARGUMENT_CAP}")
    if z.imag < 0.0:
        # single evaluation in the upper half-plane keeps K_n(conj z) ==
        # conj(K_n(z)) bit-exact
        upper = bessel_k_many(orders, z.conjugate())
        return {n: value.conjugate() for n, value in upper.items()}
    scaled = bessel_k_scaled_many(orders, z)
    damp = cmath.exp(-z)
    return {n: value * damp for n, value in scaled.items()}


def bessel_k_complex(n: int, z: complex) -> complex:
    """Modified Bessel function of the second kind, integer order."""
    return bessel_k_many((n,), z)[n]
