"""Bessel J_n for real argument and modified Bessel K_n for complex argument.

J_n(x), for the rows n = 0 .. n_max of one call, comes from three
regimes, split in ``_j_split`` alone (after Numerical Recipes, section
6.5, ``bessj``):

* the ascending power series for |x| <= 2;
* Hankel's asymptotic expansion of J_0 and J_1 (DLMF 10.17.3) and the
  upward recurrence J_{n+1} = (2n/x) J_n - J_{n-1} for |x| >= 25 and
  |x| > n_max + 2, where every row lies below x and the recurrence is
  stable.  The expansion reaches 1e-18 within 24 terms at x = 25 and
  12 at x = 100.  Against mpmath, on 252 x per n_max in that domain, the
  rows lie within 6.7e-16 (n_max = 16) and 1.5e-15 (n_max = 64) of the
  largest row, where Miller's reach 5.5e-15; on 7 x from 199.9 to
  ``J_ARGUMENT_CAP`` = 2000, within 5.9e-16 (n_max = 0 .. 64);
* backward (Miller) recurrence with the normalization

      J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1

  for every other x, 2 < |x| < 25 or |x| <= n_max + 2.  It starts near
  x + 9 x^(1/3) + 8, at least n_max + 12, where the neglected tail lies
  below double precision (the bound of Numerical Recipes, section 6.5,
  and of Zhang & Jin's ``MSTA1/2``, 1996): 38 steps at x = 10 (54 from
  + 24) and 150 at x = 100, which is why deep wells take the upward
  regime.  Against mpmath, over its whole domain at n_max = 1 .. 64, the
  rows lie within 2.2e-15 of the largest row (2.0e-15 from + 24).

``bessel_j_over_power(n_max, x, p)`` returns the rows J_n(x) / x^p,
n = p .. n_max, as the list its regime builds, and for x < 0 flips the
rows at odd offsets from p, J_n(-x) / (-x)^p = (-1)^(n + p) J_n(x) / x^p.

The quotient J_n(x) / x^p, 0 <= p <= n, is finite down to x = 0; the
series regime leaves the p factors of x out of its leading term instead
of dividing two numbers that may have underflowed.  The Miller
recurrence needs no rescaling: for n <= ORDER_CAP and 2 < x <= 200 its
trial values peak near 1.1e81 and their normalization sum near 1.9e81
(x just above 2, n_max = 64, start index 76), far from overflow.  A sum
that is not finite all the same raises ``ArgumentOutOfRange``.

Hankel's regime would serve any x; ``J_ARGUMENT_CAP`` is where its
validation against mpmath stops.  It admits whole windows up to
sqrt(v) + |beta|/2 = 2000, which ``spectral_solver`` scans at its usual
step in the interior wave number: at beta = 0, v = 1e5, 3e5 and 1e6
give exactly the level counts the zeros of J predict.

K_n(z) requires a finite z with Re z > 0 and is assembled from seed
values K_0, K_1 by the forward order recurrence K_{n+1} = K_{n-1} +
(2n/z) K_n, which is stable for K.  The seeds come from two regimes,
split at |z| = 3 in ``_k_regime`` (validated against mpmath to keep the
worst relative error near 1e-13 over 1e-6 <= |z| <= 200, Re z > 0):

* the ascending log series for |z| <= 3, which sums terms of size up to
  ~e^|z| to a result of size ~e^-Re z and so loses at most e^6 ulps;
* Gauss-Hermite quadrature for every other z.  DLMF 10.32.8 with t = s^2
  writes e^z K_0 and e^z K_1 as integrals over the real line of e^(-s^2)
  times functions analytic in a strip of half-width at least sqrt|z|,
  so a fixed rule converges at every such z, and its terms (positive for
  real z) do not cancel.  The strip widens with |z| and the rule shrinks
  with it, a ladder of pruned rules (``_K_RUNGS``): 21 nodes of the
  56-point rule for 3 < |z| <= 14.5, 8 of the 16-point rule up to 25
  and 6 of the 12-point rule beyond.  Against mpmath, on 25 sizes a rung
  and 39 angles from the real axis to 1e-9 off the imaginary one in both
  half-planes, the seeds lie within 8.2e-16, 6.5e-16 and 6.5e-16; a
  scalar call of the K entry point for K_0 and K_1 costs 8.6, 4.5 and
  3.9-4.0 us at |z| = 10, 20 and 40, and 2000 lanes on one rung 1.53-1.55,
  0.63-0.66 and 0.54-0.55 ms (best of 11 and 15 runs, shared 2-vCPU
  x86-64 machine).
  The first cut lies above every |z| of the reference rows' scan (at
  most 14.14); denser cuts save more per point, but a lane call whose
  lanes straddle a cut runs every rung it touches.

All K evaluation is done on the exponentially scaled function e^z K_n(z),
which stays representable for Re z far beyond the point where K itself
underflows; ``radial_basis`` keeps the scale as each exterior wave's
divisor.  Every operation of the K regimes (complex +, -, *, /, sqrt,
log and exp) commutes with conjugation, so K_n(conj z) = conj(K_n(z))
holds bit-exactly with each half-plane evaluated directly.  Radial
derivatives of the basis built from these functions live in
``radial_basis``.

Each function comes in two evaluation forms, and each regime is written once
for both.  Given one argument, a regime runs interpreter arithmetic, and
each series leaves its loop when its stopping rule passes.  Given a 1-D
array of lanes, ``bessel_j_over_power`` (one entry point for both forms) and
``bessel_k_scaled_lanes`` pick each lane's regime by mask, and the regime
makes one numpy call per term, node or step over all its lanes and orders,
with no stopping rule: each series sums the terms its rule needs at the
regime's worst argument (``_J_SERIES_TERMS``, ``_J_HANKEL_PAIRS``,
``_K_SERIES_TERMS``), each K quadrature rung its nodes, ``_K_BLOCK`` (node,
lane) pairs at a time, and each lane's Miller recurrence starts at its own
index, holding zeros until its seed.  A lane thus does the scalar's
arithmetic in its order, bit-identical alone or in any batch, unless a numpy
trap breaks it: ``np.add.reduce`` over a first axis with a one-number
cross-section sums pairwise, so only stacks of two or more sums a lane are
reduced; complex ``np.multiply.accumulate`` rounds unlike the binary
multiply, so running products stay loops; a (steps x lanes) factor table
must pay for its memory in time, as Miller's does.  The terms a lane sums
past the scalar's stopping point lie below the rule's 1e-18, so it agrees
with the scalar form to rounding (numpy's complex arithmetic rounds
differently from the interpreter's by an ulp, which the log series magnifies
by its cancellation, at most e^6 at |z| = 3).

The scalar form stays for single points: the steps of root refinement,
the kernel solve, the normalization and the wave-function samples
evaluate one energy at one radius at a time.  The determinant of the
matching matrix of (v, beta, m) = (25, 5, 0), (100, 20, 2) and
(6000, 100, 8) costs 0.26-0.36 ms at one lane call of 8 points and
0.40-0.54 ms at 80, against 42-47 us a point through the scalar
kernels, and 2.8-3.2 ms on a 2000-point scan grid (best of 11 and 15
runs, shared 2-vCPU x86-64 machine).
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from .errors import ArgumentOutOfRange, DomainError, OrderCapExceeded

ORDER_CAP = 64
J_ARGUMENT_CAP = 2000.0

EULER_GAMMA = 0.5772156649015328606

# the J regime split, read in _j_split alone
_J_SERIES_RADIUS = 2.0
_J_HANKEL_RADIUS = 25.0
# the K seed regime cuts, read in _k_regime alone: the log series up to
# |z| = 3, then rung i of _K_RUNGS above _K_CUTS[i] up to the next cut
_K_CUTS = (3.0, 14.5, 25.0)

# the terms each series sums on lanes, and the most it sums for one
# argument before its stopping rule passes: the count that rule needs at
# the regime's worst argument, the J series at x = 2 (n = 0), Hankel's
# expansion at x = 25 (in pairs of a Q and a P term) and the K log series
# on |z| = 3
_J_SERIES_TERMS = 13
_J_HANKEL_PAIRS = 12
_K_SERIES_TERMS = 15
# the lane K series' factors h / (k^2, k (k+1)) and sum weights (H_k, H_k + H_{k+1} - 2 gamma)
_K_SERIES_DIVISORS = np.array(
    [(k * k, k * (k + 1)) for k in range(1, _K_SERIES_TERMS + 1)], dtype=float
)[..., None]
_H = np.cumsum([0.0, *(1.0 / k for k in range(1, _K_SERIES_TERMS + 2))])  # harmonic numbers
_K_SERIES_HARMONICS = np.array((_H[:-1], _H[:-1] + _H[1:] - 2.0 * EULER_GAMMA)).T[..., None]

# the 56-, 16- and 12-point Gauss-Hermite rules folded onto their positive
# nodes s, as (t, w) = (s^2, twice the weight of s), keeping the 21, 8 and
# 6 with w (1 + t) > 1e-18 w_0; the integrands of _k01_quadrature are even
_K_NODES_56 = (
    (0.02183595942166429, 0.5783501686702966), (0.19662501675605396, 0.4859785419854475),
    (0.5467457595545774, 0.3429544952425431), (1.073292764692549, 0.20303878543597345),
    (1.7779315886935154, 0.10067679484963173), (2.6629283184247887, 0.04171714828031564),
    (3.7311909350139647, 0.014404104464082102), (4.986324374557585, 0.004129495127206275),
    (6.432701921917829, 0.0009787458713140975), (8.075556568667016, 0.00019079198209554608),
    (9.92109731942131, 3.040216298456891e-05), (11.97665731809708, 3.9315068008019425e-06),
    (14.250883359461472, 4.0908929072921536e-07), (16.753980285337462, 3.3908648511983946e-08),
    (19.49802964803646, 2.2124013953764334e-09), (22.49741105007469, 1.1202795700936892e-10),
    (25.769368816152557, 4.328385177002464e-12), (29.334789869091175, 1.2500891259504768e-13),
    (33.219297919270076, 2.6317122502794006e-15), (37.45483826846007, 3.913852357129493e-17),
    (42.08205580020674, 3.951333623078096e-19),
)
_K_NODES_16 = (
    (0.07479188259681827, 1.0158589580332273), (0.6772490876492891, 0.5612949170570674),
    (1.9051136350314286, 0.16762008279797166), (3.8094763614849065, 0.025760623071019978),
    (6.483145428627171, 0.0018645680172483614), (10.093323675221344, 5.4237201850757784e-05),
    (14.972627088426394, 4.6419616897304065e-07), (21.984272840962653, 5.309614948022335e-10),
)
_K_NODES_12 = (
    (0.0987470140684812, 1.140270472524959), (0.8983028345696178, 0.5209846205283222),
    (2.5525898026681713, 0.10321597123176796), (5.196152530054465, 0.00781078116925812),
    (9.124248037531178, 0.00017147374087175737), (15.129959781108084, 5.317103368712609e-07),
)
# the rungs as (t, w, w t): the weights of the K_0 and the K_1 integrand
_K_RUNGS = tuple(
    tuple((t, w, w * t) for t, w in rule) for rule in (_K_NODES_56, _K_NODES_16, _K_NODES_12)
)
# each rung's t, w and w t as the columns that lanes take
_K_COLUMNS = tuple(np.array(rung).T[:, :, None] for rung in _K_RUNGS)
_K_BLOCK = 8192

# Hankel's expansion of J_0 and J_1 (DLMF 10.17.3) as running terms: term m
# of order nu is term m - 1 times c_m / x, c_m = (4 nu^2 - (2m - 1)^2) / (8m),
# with the sum's sign (-1)^floor(m/2) folded into the even steps; the odd
# terms sum to Q, the even ones to P.  x = 25 needs all 24 steps.
_HANKEL_STEPS = tuple(
    tuple((4 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m) * (1 if m % 2 else -1) for nu in (0, 1))
    for m in range(1, 2 * _J_HANKEL_PAIRS + 1)
)
_HANKEL_COLUMNS = np.array(_HANKEL_STEPS).reshape(_J_HANKEL_PAIRS, 2, 2, 1)


def _top_order(orders) -> int:
    lowest, top = -orders[0], orders[-1]
    if lowest > top:
        top = lowest
    if top > ORDER_CAP:
        raise OrderCapExceeded(f"|n| = {top} exceeds cap {ORDER_CAP}")
    return top


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
    lanes = isinstance(x, np.ndarray)
    q = -0.25 * x * x
    if lanes:
        # every order at once, the order a column, with every term's factor
        # q / (k (n + k)) from one table
        k = np.arange(1.0, _J_SERIES_TERMS + 1)[:, None, None]
        n = np.arange(power, n_max + 1.0)[:, None]
        factors = q / (k * (n + k))
        sums = [(np.array(leads), n)]
    else:
        sums = zip(leads, range(power, n_max + 1))
    rows = []
    for total, n in sums:
        term = total
        for k in range(1, _J_SERIES_TERMS + 1):
            term = term * (factors[k - 1] if lanes else q / (k * (n + k)))
            total = total + term
            if not lanes and abs(term) < 1e-18 * abs(total):
                break
        rows.append(total)
    return rows[0] if lanes else rows


def _j_miller(n_max: int, x, power: int) -> list:
    """Rows n = power .. n_max of J_n(x) / x^power by backward recurrence,
    2 < x <= 200 (it serves x < 25 or x <= n_max + 2); ``x`` is a float or
    a 1-D array of lanes.

    Each lane starts at its own (even) index.  Lanes that have not
    started hold zeros, which the recurrence keeps at zero, and each takes
    its seed 1e-30 at its start, so a lane does the scalar's arithmetic
    step for step.
    """
    lanes = isinstance(x, np.ndarray)
    start = x + 9.0 * x ** (1.0 / 3.0) + 8.0
    if lanes:
        start = np.maximum(start.astype(np.int64), n_max + 12)
    else:
        start = max(int(start), n_max + 12)
    start += start % 2
    if lanes:
        starts = set(start.tolist())
        factor = (2.0 * np.arange(max(starts) + 1.0)[:, None]) / x  # 2n/x, a row a step
        trial = np.empty((n_max + 1, len(x)))
        j_above, j_here, norm = 0.0, np.zeros(len(x)), 0.0
        for n in range(max(starts), 0, -1):
            if n in starts:
                j_here[start == n] = 1e-30  # the seed of lanes that start at n
            if n % 2 == 0:
                norm = norm + j_here  # 0 for lanes not yet started, doubled below
            if n <= n_max:
                trial[n] = j_here
            j_above, j_here = j_here, factor[n] * j_here - j_above
        norm = 2.0 * norm + j_here
        trial[0] = j_here
    else:
        j_above, j_here, norm = 0.0, 1e-30, 0.0
        # two steps a turn down from each even order, which joins the sum as it passes
        kept = []
        for n in range(start, 0, -2):
            norm = norm + 2.0 * j_here
            j_odd = (2.0 * n / x) * j_here - j_above
            if n <= n_max + 1:
                kept += (j_here, j_odd)
            j_above, j_here = j_odd, (2.0 * (n - 1) / x) * j_odd - j_here
        norm = norm + j_here  # j_here now holds the J_0 trial value
        trial = [j_here, *kept[::-1]]  # J_0 .. J_n_max, and J_{n_max + 1} for odd n_max
    if not (np.isfinite(norm).all() if lanes else math.isfinite(norm)):
        bad = x[~np.isfinite(norm)][0] if lanes else x
        raise ArgumentOutOfRange(f"J Miller recurrence to n = {n_max} overflowed at x = {bad!r}")
    scale, rows = x**-power, trial[power : n_max + 1]
    return rows / norm * scale if lanes else [value / norm * scale for value in rows]


def _j_hankel(n_max: int, x, power: int) -> list:
    """Rows n = power .. n_max of J_n(x) / x^power from J_0 and J_1 by
    Hankel's expansion and the upward recurrence
    J_{n+1} = (2n/x) J_n - J_{n-1}, which is stable for n < x (Numerical
    Recipes, section 6.5); x >= 25 and x > n_max + 2, and ``x`` is a float
    or a 1-D array of lanes."""
    lanes = isinstance(x, np.ndarray)
    lib = np if lanes else math
    if lanes:  # nu = 0 and 1 as the two rows of each array, each step's factors a column
        p, q, t = 1.0, 0.0, 1.0
        for q_step, p_step in _HANKEL_COLUMNS:
            q = q + (t := t * (q_step / x))
            p = p + (t := t * (p_step / x))
        (p0, p1), (q0, q1) = p, q
    else:
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
            if abs(t0) + abs(t1) < 1e-18:
                break
    # J_nu = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - (2 nu + 1) pi/4,
    # where cos w and sin w are sums of sin x and cos x over sqrt(2)
    sin, cos = lib.sin(x), lib.cos(x)
    amplitude = lib.sqrt(1.0 / (math.pi * x))
    out = [
        amplitude * (p0 * (cos + sin) + q0 * (cos - sin)),
        amplitude * (p1 * (sin - cos) + q1 * (sin + cos)),
    ]
    factor = (2.0 * np.arange(n_max)[:, None]) / x if lanes else None
    for n in range(1, n_max):
        out.append((factor[n] if lanes else 2.0 * n / x) * out[n] - out[n - 1])
    scale = x**-power
    return [value * scale for value in out[power : n_max + 1]]


def _j_split(n_max: int, size):
    """The J regime of the rows 0 .. n_max at |x| = ``size``, a float or a
    1-D array of lanes, as the masks (series, hankel); Miller's recurrence
    serves the rest."""
    return size <= _J_SERIES_RADIUS, (size >= _J_HANKEL_RADIUS) & (size > n_max + 2)


def bessel_j_over_power(n_max: int, x: float | np.ndarray, power: int) -> list:
    """The rows n = power .. n_max of J_n(x) / x^power, 0 <= power <=
    n_max, from one recurrence pass; x may be negative (the power is
    signed) or 0 (the finite limit).  ``x`` is a float, giving floats, or
    a 1-D array of lanes, giving arrays: each lane takes the regime and
    the arithmetic the float would."""
    if not 0 <= power <= n_max <= ORDER_CAP:
        _top_order((n_max,))  # an order beyond the cap is reported first
        raise DomainError(f"power {power} outside 0 .. n_max {n_max}")
    lanes = isinstance(x, np.ndarray)
    size = abs(x)
    if not ((size <= J_ARGUMENT_CAP).all() if lanes else size <= J_ARGUMENT_CAP):
        raise ArgumentOutOfRange(
            f"|x| = {float(np.max(size))!r} beyond validated domain {J_ARGUMENT_CAP}"
        )
    series, hankel = _j_split(n_max, size)
    # J_n(-x) / (-x)^power = (-1)^(n + power) J_n(x) / x^power: odd offsets flip
    if lanes:
        rows = np.empty((n_max + 1 - power, len(x)))
        miller = ~(series | hankel)
        for mask, regime in ((series, _j_series), (miller, _j_miller), (hankel, _j_hankel)):
            if count := np.count_nonzero(mask):  # a regime that holds every lane takes them unmasked
                held = mask if count < len(x) else slice(None)
                for row, values in zip(rows, regime(n_max, size[held], power), strict=True):
                    row[held] = values  # row by row: a 2-D masked store costs more
        if (negative := x < 0.0).any():
            np.negative(rows[1::2], out=rows[1::2], where=negative)
        return list(rows)
    rows = (_j_series if series else _j_hankel if hankel else _j_miller)(n_max, size, power)
    if x < 0.0:
        rows[1::2] = [-value for value in rows[1::2]]
    return rows


# ---------------------------------------------------------------------------
# Modified Bessel K, complex argument (Re z > 0)
# ---------------------------------------------------------------------------


def _k01_series(z) -> tuple:
    """(e^z K_0, e^z K_1) by the ascending log series; ``z`` is a complex
    or a 1-D array of lanes."""
    lanes = isinstance(z, np.ndarray) and z.ndim > 0
    lib = np if lanes else cmath
    h = 0.25 * z * z
    log_half_z = lib.log(0.5 * z)
    if lanes:
        # row k: the scalar loop's t0, t1 and their terms of s0, s1, summed as one stack
        terms = np.empty((_K_SERIES_TERMS + 1, 4, len(z)), dtype=complex)
        terms[0, :2] = 1.0
        factors = h / _K_SERIES_DIVISORS
        for k in range(_K_SERIES_TERMS):
            np.multiply(terms[k, :2], factors[k], out=terms[k + 1, :2])
        np.multiply(terms[:, :2], _K_SERIES_HARMONICS, out=terms[:, 2:])
        i0, i1_sum, s0, s1 = np.add.reduce(terms)
    else:
        t0 = t1 = i0 = i1_sum = 1.0 + 0.0j  # t0 = h^k / (k!)^2, t1 = h^k / (k! (k+1)!)
        s0 = 0.0 + 0.0j
        s1 = (1.0 - 2.0 * EULER_GAMMA) * t1
        harmonic = 0.0
        for k in range(1, _K_SERIES_TERMS + 1):
            t0 = t0 * (h / (k * k))
            t1 = t1 * (h / (k * (k + 1)))
            harmonic += 1.0 / k
            harmonic_next = harmonic + 1.0 / (k + 1)
            i0 = i0 + t0
            i1_sum = i1_sum + t1
            s0 = s0 + t0 * harmonic
            s1 = s1 + t1 * (harmonic + harmonic_next - 2.0 * EULER_GAMMA)
            if abs(t0) * (harmonic_next + 1.0) < 1e-18 * (abs(s0) + abs(i0)):
                break
    i1 = 0.5 * z * i1_sum
    k0 = -(log_half_z + EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + log_half_z * i1 - 0.25 * z * s1
    scale = lib.exp(z)
    return scale * k0, scale * k1


def _k01_quadrature(z, terms: tuple) -> tuple:
    """(e^z K_0, e^z K_1) by the Gauss-Hermite rung ``terms`` of
    ``_K_RUNGS``, Re z > 0; ``z`` is a complex or a 1-D array of lanes.

    DLMF 10.32.8 with t = s^2 gives, over the whole real line,

        e^z K_0(z) = (2z)^(-1/2) int e^(-s^2) (1 + s^2/2z)^(-1/2) ds,
        e^z K_1(z) = (2/z)^(1/2) int e^(-s^2) s^2 (1 + s^2/2z)^(1/2) ds.

    The integrands are analytic in a strip of half-width at least sqrt|z|
    about the real line, so each rung converges on its whole span of |z|,
    and a wider strip needs fewer nodes: a loop over the rung's nodes, with
    no convergence test.
    """
    u = 0.5 / z
    if isinstance(z, np.ndarray) and z.ndim:
        # the nodes down and a block of lanes across, both integrands of a
        # node side by side, summed node by node (module docstring)
        t, w, wt = terms
        sums = np.empty((2, len(z)), dtype=complex)
        for i in range(0, len(z), block := _K_BLOCK // len(t)):
            root = np.sqrt(1.0 + t * u[i : i + block])
            nodes = np.empty((len(t), 2, root.shape[1]), dtype=complex)
            np.divide(w, root, out=nodes[:, 0])
            np.multiply(wt, root, out=nodes[:, 1])
            np.add.reduce(nodes, out=sums[:, i : i + block])
        return sums[0] / np.sqrt(2.0 * z), sums[1] * np.sqrt(2.0 / z)
    s0 = s1 = 0.0
    for t, w, wt in terms:
        root = cmath.sqrt(1.0 + t * u)
        s0 = s0 + w / root
        s1 = s1 + wt * root
    return s0 / cmath.sqrt(2.0 * z), s1 * cmath.sqrt(2.0 / z)


def _k_regime(size):
    """The K seed regime at |z| = ``size``, a float or a 1-D array of
    lanes: 0 for the log series, i >= 1 for the quadrature rung
    ``_K_RUNGS[i - 1]``."""
    if isinstance(size, np.ndarray):
        return np.array(_K_CUTS).searchsorted(size)  # the method skips np.searchsorted's wrapper
    return bisect.bisect_left(_K_CUTS, size)


def bessel_k_scaled_many(orders: range, z: complex) -> list[complex]:
    """[e^z K_n(z) for n in orders], ``orders`` a range; finite z, Re z > 0.

    Scaled, so the exterior basis stays usable for very deep wells where
    the unscaled K underflows double precision.
    """
    top = _top_order(orders)
    if not (z.real > 0.0 and (size := abs(z)) < math.inf):
        raise DomainError(f"K_n requires a finite z with Re z > 0, got z = {z!r}")
    regime = _k_regime(size)
    seq = [*(_k01_quadrature(z, _K_RUNGS[regime - 1]) if regime else _k01_series(z))]
    for n in range(1, top):
        seq.append(seq[n - 1] + (2.0 * n / z) * seq[n])
    # K_{-n} = K_n
    out = [seq[abs(n)] for n in orders]
    for value in out:
        if not cmath.isfinite(value):
            raise ArgumentOutOfRange(f"K_n({z!r}) overflowed the recurrence to order {top}")
    return out


def bessel_k_scaled_lanes(orders: range, z: np.ndarray) -> list[np.ndarray]:
    """:func:`bessel_k_scaled_many` over a 1-D array of arguments: each
    lane takes the seed regime and the arithmetic the scalar would."""
    top = _top_order(orders)
    z = np.asarray(z, dtype=complex)
    size = np.abs(z)
    if not (valid := (z.real > 0.0) & (size < math.inf)).all():
        bad = z[~valid][0]
        raise DomainError(f"K_n requires a finite z with Re z > 0, got z = {bad!r}")
    regime = _k_regime(size)
    k0, k1 = np.empty((2, len(z)), dtype=complex)
    for i, count in enumerate(np.bincount(regime, minlength=len(_K_RUNGS) + 1).tolist()):
        if count:  # a regime that holds every lane takes them without a mask
            lanes = regime == i if count < len(z) else slice(None)
            seeds = _k01_quadrature(z[lanes], _K_COLUMNS[i - 1]) if i else _k01_series(z[lanes])
            k0[lanes], k1[lanes] = seeds
    seq = [k0, k1]
    # only the order recurrence can overflow, which the finiteness check
    # below reports as the scalar does
    with np.errstate(all="ignore"):
        for n in range(1, top):
            seq.append(seq[n - 1] + (2.0 * n / z) * seq[n])
    # the requested orders, K_{-n} = K_n, checked as one stack
    out = np.array([seq[abs(n)] for n in orders])
    finite = np.isfinite(out)
    if not finite.all():
        row, lane = np.argwhere(~finite)[0]
        raise ArgumentOutOfRange(f"K_{orders[row]}({z[lane]!r}) overflowed the recurrence")
    return list(out)
