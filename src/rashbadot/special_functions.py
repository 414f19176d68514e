"""Bessel J_n for real argument and modified Bessel K_n for complex argument.

J_n(x), for the rows n = 0 .. n_max of one call, comes from three
regimes, split in ``_j_split`` alone (after Numerical Recipes, section
6.5, ``bessj``):

* the ascending power series for |x| <= 2;
* Hankel's asymptotic expansion of J_0 and J_1 (DLMF 10.17.3) and the
  upward recurrence J_{n+1} = (2n/x) J_n - J_{n-1} for |x| >= 25 and
  |x| > n_max + 2, where every row lies below x and the recurrence is
  stable.  The expansion reaches 1e-18 within 22 terms at x = 25 and
  11 at x = 100.  Against mpmath, on 252 x per n_max in that domain, the
  rows lie within 6.7e-16 (n_max = 16) and 1.5e-15 (n_max = 64) of the
  largest row, where Miller's reach 5.5e-15;
* backward (Miller) recurrence with the normalization

      J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1

  for every other x, 2 < |x| <= 200.  It starts near
  x + 9 x^(1/3) + 24 whatever n_max is, about 165 steps at x = 100,
  which is why deep wells take the upward regime.

Negative arguments and negative orders are folded onto the positive
quadrant through the parity reflections

    J_n(-x) = (-1)^n J_n(x),        J_{-n}(x) = (-1)^n J_n(x).

The quotient J_n(x) / x^p, 0 <= p <= n, is finite down to x = 0; the
series regime leaves the p factors of x out of its leading term instead
of dividing two numbers that may have underflowed.  The Miller
recurrence needs no rescaling: for n <= ORDER_CAP and 2 < x <= 200 its
trial values peak near 1.1e81 and their normalization sum near 1.9e81
(x just above 2, n_max = 64, start index 76), far from overflow.  A sum
that is not finite all the same raises ``ArgumentOutOfRange``.

Hankel's regime would serve any x, but ``J_ARGUMENT_CAP`` stays at 200:
beyond it lie wells whose levels the default 1000-point scan of
``spectral_solver`` has not been shown to resolve (its step in the
interior wave number grows with the well's depth), and the cap is what
makes them fail loudly.  Widening it waits for a level count that does
not depend on the scan grid.

K_n(z) requires Re z > 0 and is assembled from seed values K_0, K_1 by
the forward order recurrence K_{n+1} = K_{n-1} + (2n/z) K_n, which is
stable for K.  The seeds come from two regimes, split at |z| = 3
(validated against mpmath to keep the worst relative error near 1e-13
over 1e-6 <= |z| <= 200, Re z > 0):

* the ascending log series for |z| <= 3, which sums terms of size up to
  ~e^|z| to a result of size ~e^-Re z and so loses at most e^6 ulps;
* Gauss-Hermite quadrature for every other z.  DLMF 10.32.8 with t = s^2
  writes e^z K_0 and e^z K_1 as integrals over the real line of e^(-s^2)
  times functions analytic in a strip of half-width at least sqrt|z|,
  so one fixed rule (21 nodes of the 56-point rule, ``_K_NODES``)
  converges at every such z, and its terms (positive for real z) do not
  cancel.  Against mpmath, on 594 points with 3 < |z| <= 1000 from the
  real axis to 1e-9 off the imaginary one and in the lower half-plane,
  the seeds lie within 8.3e-16.  Its cost does not depend on z: a
  scalar call of the K entry point costs 15-17 us, and 2000 lanes cost
  2.2-2.5 ms (shared 2-vCPU x86-64 machine).

All K evaluation is done internally on the exponentially scaled function
e^z K_n(z), which stays representable for Re z far beyond the point
where K itself underflows; the public entry point multiplies the scale
back in.  Conjugate arguments are routed through K_n(conj z) =
conj(K_n(z)) so the symmetry holds bit-exactly.  Radial derivatives of
the basis built from these functions live in ``radial_basis``.

Each function comes in two evaluation forms, and each regime is written
once for both.  Given one argument, a regime runs interpreter arithmetic;
where it has a convergence test it leaves its loop when the test passes,
and the K quadrature always sums its 21 nodes.  The lane kernels
(``bessel_j_over_power_lanes``, ``bessel_k_scaled_lanes``) take a 1-D
array, pick each lane's regime by mask, and run the same statements on
arrays: a lane keeps its values from the step at which its own test
first passes (``_Lanes``), the loop ends when no lane is live, and each
lane's Miller recurrence starts at its own index.  A lane therefore does
the same arithmetic whatever its batch-mates are, and its value is
bit-identical alone, in a chunk or in a full scan grid.  It agrees with
the scalar form to rounding (numpy's complex arithmetic rounds
differently from the interpreter's by an ulp, which the log series
magnifies by its cancellation, at most e^6 at |z| = 3).

The scalar form stays for single points: the steps of root refinement,
the kernel solve, the normalization and the wave-function samples
evaluate one energy at one radius at a time.  Measured on the matching
matrix of (v, beta, m) = (25, 5, 0), (100, 20, 2) and (6000, 100, 8)
(shared 2-vCPU x86-64 machine; the ranges span three repeated runs),
one point costs 0.6-1.0 ms through the lanes against 67-108 us through
the scalar kernels, while a 2000-point scan grid costs 4.2-8.1 ms
through the lanes against 170-240 ms point by point.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import numpy as np

from .errors import ArgumentOutOfRange, DomainError, OrderCapExceeded

ORDER_CAP = 64
J_ARGUMENT_CAP = 200.0
K_ARGUMENT_CAP = 200.0

EULER_GAMMA = 0.5772156649015328606

# the J regime split, read in _j_split alone
_J_SERIES_RADIUS = 2.0
_J_HANKEL_RADIUS = 25.0
_K_SERIES_RADIUS = 3.0

# the 56-point Gauss-Hermite rule folded onto its 28 positive nodes s, as
# (t, w) = (s^2, twice the weight of s), keeping the 21 with
# w (1 + t) > 1e-18 w_0; the integrands of _k01_quadrature are even in s
_K_NODES = (
    (0.02183595942166429, 0.5783501686702966),
    (0.19662501675605396, 0.4859785419854475),
    (0.5467457595545774, 0.3429544952425431),
    (1.073292764692549, 0.20303878543597345),
    (1.7779315886935154, 0.10067679484963173),
    (2.6629283184247887, 0.04171714828031564),
    (3.7311909350139647, 0.014404104464082102),
    (4.986324374557585, 0.004129495127206275),
    (6.432701921917829, 0.0009787458713140975),
    (8.075556568667016, 0.00019079198209554608),
    (9.92109731942131, 3.040216298456891e-05),
    (11.97665731809708, 3.9315068008019425e-06),
    (14.250883359461472, 4.0908929072921536e-07),
    (16.753980285337462, 3.3908648511983946e-08),
    (19.49802964803646, 2.2124013953764334e-09),
    (22.49741105007469, 1.1202795700936892e-10),
    (25.769368816152557, 4.328385177002464e-12),
    (29.334789869091175, 1.2500891259504768e-13),
    (33.219297919270076, 2.6317122502794006e-15),
    (37.45483826846007, 3.913852357129493e-17),
    (42.08205580020674, 3.951333623078096e-19),
)

# Hankel's expansion of J_0 and J_1 (DLMF 10.17.3) as running terms: term m
# of order nu is term m - 1 times c_m / x, c_m = (4 nu^2 - (2m - 1)^2) / (8m),
# with the sum's sign (-1)^floor(m/2) folded into the even steps; the odd
# terms sum to Q, the even ones to P.  x = 25 needs 22 of the 30 steps.
_HANKEL_STEPS = tuple(
    tuple((4 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m) * (1 if m % 2 else -1) for nu in (0, 1))
    for m in range(1, 31)
)


def _check_order(n: int) -> None:
    if abs(n) > ORDER_CAP:
        raise OrderCapExceeded(f"|n| = {abs(n)} exceeds cap {ORDER_CAP}")


def _check_j_orders(orders: list[int], power: int) -> None:
    _check_order(max(orders))
    if not 0 <= power <= min(orders):
        raise DomainError(f"power {power} outside 0 .. lowest order {min(orders)}")


class _Lanes:
    """The exit of a regime's loop over an array of arguments: each lane
    keeps its values from the step at which its own convergence test first
    passed, so it does the scalar's arithmetic whatever its batch-mates
    are.  Lanes that have passed keep iterating, and what they compute
    afterwards is discarded."""

    def __init__(self, live: np.ndarray | bool = True) -> None:
        self.live = live
        self.held = None

    def settle(self, passed: np.ndarray, *values: np.ndarray) -> bool:
        """Hold ``values`` on the lanes whose test passed for the first
        time at this step; True once no lane is live."""
        first = passed & self.live
        if self.held is None:
            self.held = [value.copy() for value in values]
        elif first.any():
            for held, value in zip(self.held, values):
                held[first] = value[first]
        self.live = self.live & ~first
        return not self.live.any()

    def values(self, *values: np.ndarray) -> list[np.ndarray]:
        """The held values; lanes still live when the loop ran out of
        steps take ``values``, their last ones."""
        for held, value in zip(self.held, values):
            held[self.live] = value[self.live]
        return self.held


# ---------------------------------------------------------------------------
# Bessel J, real argument
# ---------------------------------------------------------------------------


def _j_series(n_max: int, x, power: int) -> list:
    """Rows n = power .. n_max of J_n(x) / x^power by the ascending series,
    0 <= x <= 2; ``x`` is a float or a 1-D array of lanes.

    One running product gives every order's leading term (x/2)^n / n!;
    its first ``power`` factors of x are left out, so the quotient neither
    underflows for tiny x nor is 0/0 at x = 0.  A leading term that
    underflowed sums to 0.
    """
    lead = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    leads = [lead] if power == 0 else []
    for k in range(1, n_max + 1):
        lead = lead * ((x if k > power else 1.0) / (2.0 * k))
        if k >= power:
            leads.append(lead)
    if isinstance(x, np.ndarray):
        # every order at once, the order a column; a leading term that
        # underflowed is final, and its test would never pass
        leads = np.array(leads)
        sums = [(leads, np.arange(power, n_max + 1.0)[:, None])]
        lanes = _Lanes(live=leads != 0.0)
    else:
        sums = zip(leads, range(power, n_max + 1))
        lanes = None
    q = -0.25 * x * x
    rows = []
    for total, n in sums:
        term = total
        for k in range(1, 40):
            term = term * (q / (k * (n + k)))
            total = total + term
            passed = abs(term) < 1e-18 * abs(total)
            if lanes.settle(passed, total) if lanes else passed:
                break
        rows.append(total)
    return lanes.values(*rows)[0] if lanes else rows


def _j_miller(n_max: int, x, power: int) -> list:
    """Rows n = power .. n_max of J_n(x) / x^power by backward recurrence,
    2 < x <= 200 (it serves x < 25 or x <= n_max + 2); ``x`` is a float or
    a 1-D array of lanes.

    Each lane starts at its own index; lanes that start below n hold
    their seeds, so a lane does the scalar's arithmetic step for step.
    """
    lanes = isinstance(x, np.ndarray)
    start = x + 9.0 * x ** (1.0 / 3.0) + 24.0
    if lanes:
        start = np.maximum(start.astype(np.int64), n_max + 12)
    else:
        start = max(int(start), n_max + 12)
    start += start % 2
    first, top = (int(start.min()), int(start.max())) if lanes else (start, start)

    out = [0.0] * (n_max + 1)
    j_above = 0.0
    j_here = 1e-30
    norm = 0.0
    for n in range(top, 0, -1):
        j_below = (2.0 * n / x) * j_here - j_above
        if n > first:
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
    norm = norm + j_here  # j_here now holds the J_0 trial value
    if not (np.isfinite(norm).all() if lanes else math.isfinite(norm)):
        bad = x[~np.isfinite(norm)][0] if lanes else x
        raise ArgumentOutOfRange(f"J Miller recurrence to n = {n_max} overflowed at x = {bad!r}")
    scale = x**-power
    return [value / norm * scale for value in out[power:]]


def _j_hankel(n_max: int, x, power: int) -> list:
    """Rows n = power .. n_max of J_n(x) / x^power from J_0 and J_1 by
    Hankel's expansion and the upward recurrence
    J_{n+1} = (2n/x) J_n - J_{n-1}, which is stable for n < x (Numerical
    Recipes, section 6.5); x >= 25 and x > n_max + 2, and ``x`` is a float
    or a 1-D array of lanes."""
    lanes = _Lanes() if isinstance(x, np.ndarray) else None
    lib = np if lanes else math
    p0 = p1 = 1.0
    q0 = q1 = 0.0
    t0 = t1 = 1.0
    for (q0_step, q1_step), (p0_step, p1_step) in zip(_HANKEL_STEPS[::2], _HANKEL_STEPS[1::2]):
        t0 = t0 * (q0_step / x)
        t1 = t1 * (q1_step / x)
        q0 = q0 + t0
        q1 = q1 + t1
        t0 = t0 * (p0_step / x)
        t1 = t1 * (p1_step / x)
        p0 = p0 + t0
        p1 = p1 + t1
        passed = abs(t0) + abs(t1) < 1e-18
        if lanes.settle(passed, p0, q0, p1, q1) if lanes else passed:
            break
    if lanes:
        p0, q0, p1, q1 = lanes.values(p0, q0, p1, q1)
    # J_nu = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - (2 nu + 1) pi/4,
    # where cos w and sin w are sums of sin x and cos x over sqrt(2)
    sin, cos = lib.sin(x), lib.cos(x)
    amplitude = lib.sqrt(1.0 / (math.pi * x))
    out = [
        amplitude * (p0 * (cos + sin) + q0 * (cos - sin)),
        amplitude * (p1 * (sin - cos) + q1 * (sin + cos)),
    ]
    for n in range(1, n_max):
        out.append((2.0 * n / x) * out[n] - out[n - 1])
    scale = x**-power
    return [value * scale for value in out[power : n_max + 1]]


def _j_split(n_max: int, size):
    """The J regime of the rows 0 .. n_max at |x| = ``size``, a float or a
    1-D array of lanes, as the masks (series, hankel); Miller's recurrence
    serves the rest."""
    return size <= _J_SERIES_RADIUS, (size >= _J_HANKEL_RADIUS) & (size > n_max + 2)


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
    _check_j_orders(orders, power)
    size = abs(x)
    if not size <= J_ARGUMENT_CAP:
        raise ArgumentOutOfRange(f"|x| = {size!r} beyond validated domain {J_ARGUMENT_CAP}")
    n_max = max(orders)
    series, hankel = _j_split(n_max, size)
    regime = _j_series if series else _j_hankel if hankel else _j_miller
    seq = regime(n_max, size, power)
    # J_n(-x) / (-x)^power = (-1)^(n + power) J_n(x) / x^power
    flip = x < 0.0
    return {n: -seq[n - power] if flip and (n + power) % 2 else seq[n - power] for n in orders}


def bessel_j_over_power_lanes(
    orders: Iterable[int], x: np.ndarray, power: int
) -> dict[int, np.ndarray]:
    """:func:`bessel_j_over_power` over a 1-D array of arguments: each
    lane takes the regime and the arithmetic the scalar would."""
    orders = list(orders)
    if not orders:
        return {}
    _check_j_orders(orders, power)
    x = np.asarray(x, dtype=float)
    size = np.abs(x)
    if not np.all(size <= J_ARGUMENT_CAP):
        raise ArgumentOutOfRange(
            f"|x| = {np.max(size)!r} beyond validated domain {J_ARGUMENT_CAP}"
        )
    n_max = max(orders)
    seq = np.empty((n_max + 1 - power, len(x)))
    series, hankel = _j_split(n_max, size)
    miller = ~(series | hankel)
    for lanes, regime in ((series, _j_series), (miller, _j_miller), (hankel, _j_hankel)):
        if lanes.any():
            seq[:, lanes] = regime(n_max, size[lanes], power)
    # J_n(-x) / (-x)^power = (-1)^(n + power) J_n(x) / x^power
    flip = x < 0.0
    return {
        n: np.where(flip, -seq[n - power], seq[n - power]) if (n + power) % 2 else seq[n - power]
        for n in orders
    }


# ---------------------------------------------------------------------------
# Modified Bessel K, complex argument (Re z > 0)
# ---------------------------------------------------------------------------


def _k01_series(z) -> tuple:
    """(e^z K_0, e^z K_1) by the ascending log series; ``z`` is a complex
    or a 1-D array of lanes."""
    lanes = _Lanes() if isinstance(z, np.ndarray) and z.ndim else None
    lib = np if lanes else cmath
    h = 0.25 * z * z
    log_half_z = lib.log(0.5 * z)
    t0 = 1.0 + 0.0j  # h^k / (k!)^2
    t1 = 1.0 + 0.0j  # h^k / (k! (k+1)!)
    i0 = t0
    i1_sum = t1
    s0 = 0.0 + 0.0j
    s1 = (1.0 - 2.0 * EULER_GAMMA) * t1
    harmonic = 0.0
    for k in range(1, 130):
        t0 = t0 * (h / (k * k))
        t1 = t1 * (h / (k * (k + 1)))
        harmonic += 1.0 / k
        harmonic_next = harmonic + 1.0 / (k + 1)
        i0 = i0 + t0
        i1_sum = i1_sum + t1
        s0 = s0 + t0 * harmonic
        s1 = s1 + t1 * (harmonic + harmonic_next - 2.0 * EULER_GAMMA)
        passed = abs(t0) * (harmonic_next + 1.0) < 1e-18 * (abs(s0) + abs(i0))
        if lanes.settle(passed, i0, i1_sum, s0, s1) if lanes else passed:
            break
    if lanes:
        i0, i1_sum, s0, s1 = lanes.values(i0, i1_sum, s0, s1)
    i1 = 0.5 * z * i1_sum
    k0 = -(log_half_z + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + log_half_z * i1 - 0.25 * z * s1
    scale = lib.exp(z)
    return scale * k0, scale * k1


def _k01_quadrature(z) -> tuple:
    """(e^z K_0, e^z K_1) by Gauss-Hermite quadrature, Re z > 0; ``z`` is a
    complex or a 1-D array of lanes.

    DLMF 10.32.8 with t = s^2 gives, over the whole real line,

        e^z K_0(z) = (2z)^(-1/2) int e^(-s^2) (1 + s^2/2z)^(-1/2) ds,
        e^z K_1(z) = (2/z)^(1/2) int e^(-s^2) s^2 (1 + s^2/2z)^(1/2) ds.

    The integrands are analytic in a strip of half-width at least sqrt|z|
    about the real line, so the fixed rule of ``_K_NODES`` converges at
    every |z| > 3: a loop over the nodes, with no convergence test.
    """
    lib = np if isinstance(z, np.ndarray) and z.ndim else cmath
    u = 0.5 / z
    s0 = s1 = 0.0
    for t, w in _K_NODES:
        root = lib.sqrt(1.0 + t * u)
        s0 = s0 + w / root
        s1 = s1 + (w * t) * root
    return s0 / lib.sqrt(2.0 * z), s1 * lib.sqrt(2.0 / z)


def bessel_k_scaled_many(orders: Iterable[int], z: complex) -> dict[int, complex]:
    """e^z K_n(z) for every order in ``orders``; Re z > 0, any magnitude.

    Internal workhorse: not subject to the public |z| cap, so the
    exterior basis stays usable for very deep wells where the unscaled
    K underflows double precision.
    """
    orders = list(orders)
    n_abs_max = max((abs(n) for n in orders), default=0)
    _check_order(n_abs_max)
    if not z.real > 0.0:
        raise DomainError(f"K_n requires Re z > 0, got z = {z!r}")
    conjugated = z.imag < 0.0
    if conjugated:
        z = z.conjugate()
    k0, k1 = (_k01_series if abs(z) <= _K_SERIES_RADIUS else _k01_quadrature)(z)
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


def bessel_k_scaled_lanes(orders: Iterable[int], z: np.ndarray) -> dict[int, np.ndarray]:
    """:func:`bessel_k_scaled_many` over a 1-D array of arguments: each
    lane takes the seed regime and the arithmetic the scalar would."""
    orders = list(orders)
    n_abs_max = max((abs(n) for n in orders), default=0)
    _check_order(n_abs_max)
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0.0):
        raise DomainError(f"K_n requires Re z > 0, got z = {z[~(z.real > 0.0)][0]!r}")
    conjugated = z.imag < 0.0
    z = np.where(conjugated, z.conj(), z)
    series = np.abs(z) <= _K_SERIES_RADIUS
    k0 = np.empty_like(z)
    k1 = np.empty_like(z)
    # lanes that have converged keep iterating; what they compute is
    # discarded, so its overflow is too
    with np.errstate(all="ignore"):
        for lanes, seeds in ((series, _k01_series), (~series, _k01_quadrature)):
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
