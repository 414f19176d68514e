"""Bessel J_n for real argument and modified Bessel K_n for complex argument.

J_n(x) is computed by the ascending power series for |x| <= 2 and by
backward (Miller) recurrence with the normalization

    J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1

for 2 < |x| <= 200.  Negative arguments and negative orders are folded
onto the positive quadrant through the parity reflections

    J_n(-x) = (-1)^n J_n(x),        J_{-n}(x) = (-1)^n J_n(x).

The quotient J_n(x) / x^p, 0 <= p <= n, is finite down to x = 0; the
series regime leaves the p factors of x out of its leading term instead
of dividing two numbers that may have underflowed.

K_n(z) requires Re z > 0 and is assembled from seed values K_0, K_1 by
the forward order recurrence K_{n+1} = K_{n-1} + (2n/z) K_n, which is
stable for K.  The seeds come from two regimes, split at |z| = 3
(validated against mpmath to keep the worst relative error near 1e-13
over 1e-6 <= |z| <= 200, Re z > 0):

* the ascending log series for |z| <= 3, which sums terms of size up to
  ~e^|z| to a result of size ~e^-Re z and so loses at most e^6 ulps;
* Steed's continued fraction (Numerical Recipes, section 6.7; Thompson
  and Barnett, J. Comput. Phys. 64, 490 (1986), for complex argument)
  for every other z.  It converges for all Re z > 0, right up to the
  imaginary axis, in fewer iterations the larger |z| is: at most about
  100 just outside |z| = 3, under 30 beyond |z| = 12.5.

All K evaluation is done internally on the exponentially scaled function
e^z K_n(z), which stays representable for Re z far beyond the point
where K itself underflows; the public entry point multiplies the scale
back in.  Conjugate arguments are routed through K_n(conj z) =
conj(K_n(z)) so the symmetry holds bit-exactly.  Radial derivatives of
the basis built from these functions live in ``radial_basis``.

Each function comes in two evaluation forms.  The scalar kernels take
one argument.  The lane kernels (``bessel_j_over_power_lanes``,
``bessel_k_scaled_lanes``) take a 1-D array and run the same regimes on
every lane: masks pick the J series and the two K seed regimes, each
lane's Miller recurrence starts at its own index and rescales on its
own, and a lane that has converged is frozen by ``np.where`` while its
batch-mates iterate.  A lane therefore does the same arithmetic whatever
its batch-mates are, and its value is bit-identical alone, in a chunk or
in a full scan grid.  It agrees with the scalar kernel to rounding
(numpy's complex arithmetic rounds differently from the interpreter's
by an ulp, which the log series magnifies by its cancellation, at most
e^6 at |z| = 3).

The scalar form stays for single points: the steps of root refinement,
the kernel solve, the normalization and the wave-function samples
evaluate one energy at one radius at a time.  Measured on the matching
matrix of three wells (2-core x86-64 machine), one point costs 1.7-3.5
ms through the lanes against 100-160 us through the scalar kernels,
while a 2000-point scan grid costs 11-20 ms through the lanes against
290-330 ms point by point.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import numpy as np

from .errors import ArgumentOutOfRange, DomainError, NoConvergence, OrderCapExceeded

ORDER_CAP = 64
J_ARGUMENT_CAP = 200.0
K_ARGUMENT_CAP = 200.0

EULER_GAMMA = 0.5772156649015328606

_K_SERIES_RADIUS = 3.0
_CF_MAX_ITER = 20000


def _check_order(n: int) -> None:
    if abs(n) > ORDER_CAP:
        raise OrderCapExceeded(f"|n| = {abs(n)} exceeds cap {ORDER_CAP}")


# ---------------------------------------------------------------------------
# Bessel J, real argument
# ---------------------------------------------------------------------------


def _j_series(n: int, x: float, power: int) -> float:
    """Ascending series for J_n(x) / x^power, 0 <= x <= 2, 0 <= power <= n.

    The leading term (x/2)^n / n! is a running product; its first
    ``power`` factors of x are left out, so the quotient neither
    underflows for tiny x nor is 0/0 at x = 0.
    """
    term = 1.0
    for k in range(1, n + 1):
        term *= (x if k > power else 1.0) / (2.0 * k)
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


def _j_sequence(n_max: int, x: float, power: int) -> list[float]:
    """[J_n(x) / x^power for n = power, ..., n_max], x >= 0."""
    if x <= 2.0:
        return [_j_series(n, x, power) for n in range(power, n_max + 1)]

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
    scale = x**-power
    return [v / norm * scale for v in out[power:]]


def bessel_j_many(orders: Iterable[int], x: float) -> dict[int, float]:
    """J_n(x) for every order in ``orders`` from one recurrence pass."""
    orders = list(orders)
    table = bessel_j_over_power({abs(n) for n in orders}, x, 0)
    # J_{-n}(x) = (-1)^n J_n(x)
    return {n: -table[-n] if n < 0 and n % 2 else table[abs(n)] for n in orders}


def bessel_j_over_power(orders: Iterable[int], x: float, power: int) -> dict[int, float]:
    """J_n(x) / x^power for every order n >= power >= 0 in ``orders``, from
    one recurrence pass; x may be negative (the power is signed) or 0
    (the finite limit)."""
    orders = list(orders)
    if not orders:
        return {}
    n_max = max(orders)
    _check_order(n_max)
    if not 0 <= power <= min(orders):
        raise DomainError(f"power {power} outside 0 .. lowest order {min(orders)}")
    if not abs(x) <= J_ARGUMENT_CAP:
        raise ArgumentOutOfRange(f"|x| = {abs(x)!r} beyond validated domain {J_ARGUMENT_CAP}")
    seq = _j_sequence(n_max, abs(x), power)
    # J_n(-x) / (-x)^power = (-1)^(n + power) J_n(x) / x^power
    flip = x < 0.0
    return {n: -seq[n - power] if flip and (n + power) % 2 else seq[n - power] for n in orders}


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


def _k01_scaled(z: complex) -> tuple[complex, complex]:
    if abs(z) <= _K_SERIES_RADIUS:
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
    # bessel_k_scaled_many evaluates in the upper half-plane, which keeps
    # K_n(conj z) == conj(K_n(z)) bit-exact
    damp = cmath.exp(-z)
    return {n: value * damp for n, value in bessel_k_scaled_many(orders, z).items()}


def bessel_k_complex(n: int, z: complex) -> complex:
    """Modified Bessel function of the second kind, integer order."""
    return bessel_k_many((n,), z)[n]


# ---------------------------------------------------------------------------
# Lane kernels: the same regimes over a 1-D array of arguments
# ---------------------------------------------------------------------------


def _j_series_lanes(n_max: int, x: np.ndarray, power: int) -> np.ndarray:
    """Rows n = power .. n_max of :func:`_j_series`, over lanes 0 <= x <= 2."""
    lead = np.ones_like(x)
    rows = [lead] if power == 0 else []
    for k in range(1, n_max + 1):
        lead = lead * ((x if k > power else 1.0) / (2.0 * k))
        if k >= power:
            rows.append(lead)
    term = np.array(rows)
    total = term.copy()
    orders = np.arange(power, n_max + 1, dtype=float)[:, None]
    q = -0.25 * x * x
    # a leading term that underflowed is the scalar's early return of 0
    live = term != 0.0
    for k in range(1, 40):
        if not live.any():
            break
        term = term * (q / (k * (orders + k)))
        total = np.where(live, total + term, total)
        live &= ~(np.abs(term) < 1e-18 * np.abs(total))
    return total


def _j_miller_lanes(n_max: int, x: np.ndarray, power: int) -> np.ndarray:
    """Rows n = power .. n_max of :func:`_j_sequence`'s backward recurrence,
    over lanes 2 < x; each lane starts at its own index and rescales on
    its own, so it does the scalar's arithmetic step for step."""
    start = (x + 9.0 * x ** (1.0 / 3.0) + 24.0).astype(np.int64)
    start = np.maximum(start, n_max + 12)
    start += start % 2
    first = int(start.min())
    out = np.zeros((n_max + 1, len(x)))
    j_above = np.zeros_like(x)
    j_here = np.full_like(x, 1e-30)
    norm = np.zeros_like(x)
    for n in range(int(start.max()), 0, -1):
        j_below = (2.0 * n / x) * j_here - j_above
        if n > first:
            # lanes that start below n hold their seeds
            active = start >= n
            j_above = np.where(active, j_here, j_above)
            j_here = np.where(active, j_below, j_here)
        else:
            j_above = j_here
            j_here = j_below
        if n - 1 <= n_max:
            out[n - 1] = j_here
        if n % 2 == 0:
            norm = norm + 2.0 * j_above  # 0 for lanes not yet started
        big = np.abs(j_here) > 1e250
        if big.any():
            j_here = np.where(big, j_here * 1e-250, j_here)
            j_above = np.where(big, j_above * 1e-250, j_above)
            norm = np.where(big, norm * 1e-250, norm)
            out[:, big] *= 1e-250
    norm = norm + j_here
    return out[power:] / norm * x**-power


def bessel_j_over_power_lanes(
    orders: Iterable[int], x: np.ndarray, power: int
) -> dict[int, np.ndarray]:
    """:func:`bessel_j_over_power` over a 1-D array of arguments: each
    lane takes the regime and the arithmetic the scalar would."""
    orders = list(orders)
    if not orders:
        return {}
    n_max = max(orders)
    _check_order(n_max)
    if not 0 <= power <= min(orders):
        raise DomainError(f"power {power} outside 0 .. lowest order {min(orders)}")
    x = np.asarray(x, dtype=float)
    size = np.abs(x)
    if not np.all(size <= J_ARGUMENT_CAP):
        raise ArgumentOutOfRange(
            f"|x| = {np.max(size)!r} beyond validated domain {J_ARGUMENT_CAP}"
        )
    seq = np.empty((n_max + 1 - power, len(x)))
    small = size <= 2.0
    if small.any():
        seq[:, small] = _j_series_lanes(n_max, size[small], power)
    if not small.all():
        seq[:, ~small] = _j_miller_lanes(n_max, size[~small], power)
    # J_n(-x) / (-x)^power = (-1)^(n + power) J_n(x) / x^power
    flip = x < 0.0
    return {
        n: np.where(flip, -seq[n - power], seq[n - power]) if (n + power) % 2 else seq[n - power]
        for n in orders
    }


def _k01_series_lanes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_k01_series_scaled` over lanes; converged lanes are frozen."""
    h = 0.25 * z * z
    log_half_z = np.log(0.5 * z)
    t0 = np.ones_like(z)
    t1 = np.ones_like(z)
    i0 = t0
    i1_sum = t1
    s0 = np.zeros_like(z)
    s1 = (1.0 - 2.0 * EULER_GAMMA) * t1
    harmonic = 0.0
    live = np.ones(len(z), dtype=bool)
    for k in range(1, 130):
        t0 = t0 * (h / (k * k))
        t1 = t1 * (h / (k * (k + 1)))
        harmonic += 1.0 / k
        harmonic_next = harmonic + 1.0 / (k + 1)
        i0 = np.where(live, i0 + t0, i0)
        i1_sum = np.where(live, i1_sum + t1, i1_sum)
        s0 = np.where(live, s0 + t0 * harmonic, s0)
        s1 = np.where(live, s1 + t1 * (harmonic + harmonic_next - 2.0 * EULER_GAMMA), s1)
        live &= ~(np.abs(t0) * (harmonic_next + 1.0) < 1e-18 * (np.abs(s0) + np.abs(i0)))
        if not live.any():
            break
    i1 = 0.5 * z * i1_sum
    k0 = -(log_half_z + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + log_half_z * i1 - 0.25 * z * s1
    scale = np.exp(z)
    return scale * k0, scale * k1


def _k01_cf2_lanes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_k01_cf2_scaled` over lanes; converged lanes are frozen."""
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = d
    delta_h = d
    q_prev = np.zeros_like(z)
    q_here = np.ones_like(z)
    a1 = 0.25
    q = np.full_like(z, a1)
    c = a1 + 0.0j
    a = -a1
    s = 1.0 + q * delta_h
    live = np.ones(len(z), dtype=bool)
    for i in range(2, _CF_MAX_ITER):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q_next = (q_prev - b * q_here) / a
        q_prev = q_here
        q_here = q_next
        q = q + c * q_next
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delta_h = (b * d - 1.0) * delta_h
        h = np.where(live, h + delta_h, h)
        delta_s = q * delta_h
        s = np.where(live, s + delta_s, s)
        live &= ~(np.abs(delta_s) < 1e-16 * np.abs(s))
        if not live.any():
            break
    else:
        raise NoConvergence(f"K continued fraction stalled at z = {z[live][0]!r}")
    h = a1 * h
    k0 = np.sqrt(math.pi / (2.0 * z)) / s
    k1 = k0 * (z + 0.5 - h) / z
    return k0, k1


def bessel_k_scaled_lanes(orders: Iterable[int], z: np.ndarray) -> dict[int, np.ndarray]:
    """:func:`bessel_k_scaled_many` over a 1-D array of arguments: each
    lane takes the seed regime and the arithmetic the scalar would."""
    orders = list(orders)
    for n in orders:
        _check_order(n)
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0.0):
        raise DomainError(f"K_n requires Re z > 0, got z = {z[~(z.real > 0.0)][0]!r}")
    conjugated = z.imag < 0.0
    z = np.where(conjugated, z.conj(), z)
    n_abs_max = max((abs(n) for n in orders), default=0)
    series = np.abs(z) <= _K_SERIES_RADIUS
    k0 = np.empty_like(z)
    k1 = np.empty_like(z)
    # lanes frozen after convergence keep iterating; what they compute
    # is discarded, so its overflow is too
    with np.errstate(all="ignore"):
        for lanes, seeds in ((series, _k01_series_lanes), (~series, _k01_cf2_lanes)):
            if lanes.any():
                k0[lanes], k1[lanes] = seeds(z[lanes])
        seq = [k0, k1]
        for n in range(1, n_abs_max):
            seq.append(seq[n - 1] + (2.0 * n / z) * seq[n])
    out = {}
    for n in orders:
        value = seq[abs(n)]
        if not np.all(np.isfinite(value)):
            bad = z[~np.isfinite(value)][0]
            raise ArgumentOutOfRange(f"K_{n}({bad!r}) overflowed the recurrence")
        out[n] = np.where(conjugated, value.conj(), value)
    return out
