"""Problem-agnostic numerical kernels.

Bracketed root refinement (bisection with secant/inverse-quadratic
acceleration, Brent style) from an optional first guess, the root of
the polynomial interpolating a set of samples (a proxy that supplies
such a guess from values already computed, in the spirit of Boyd's
proxy root-finding, SIAM Review 55, 375 (2013)), the kernel of 4x4
systems by singular value decomposition, and adaptive Gauss-Legendre
quadrature over finite panels plus exponentially decaying tails.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketInvalid,
    DecayViolation,
    InvalidInput,
    NoConvergence,
    NotSingular,
    RankDeficiency2,
)

_EPS = sys.float_info.epsilon

ROOT_ITERATION_CAP = 200
SUBDIVISION_CAP = 40
TAIL_PANEL_CAP = 50
# a singular value counts as zero at or below this fraction of the largest
SING_TOL = 1e-8
# Gauss-Legendre panel order and the quadrature convergence tolerances
PANEL_ORDER = 16
QUAD_REL_TOL = 1e-12
QUAD_ABS_TOL = 1e-14


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval: lo < hi and f_lo * f_hi < 0, with an
    optional estimate ``guess`` of the root.  A guess that does not lie
    strictly inside (lo, hi), NaN included, is ignored."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    guess: float = math.nan


def refine_root(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Refine a bracketed root of ``f`` to an interval of width <= ``tol``.

    Uses Brent's method: the sign change is never lost, and secant /
    inverse-quadratic steps accelerate convergence when they behave.
    When ``bracket.guess`` lies strictly inside the bracket, the first
    evaluation is there; from then on it is the same iteration with the
    same stopping rule, so a poor guess costs steps, never the sign
    change.  Deterministic for identical inputs.
    """
    if tol <= 0.0:
        raise InvalidInput("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if not (a < b) or not (fa * fb < 0.0):
        raise BracketInvalid(f"not a sign-change bracket: [{a}, {b}]")

    c, fc = a, fa
    d = e = b - a
    if a < bracket.guess < b:
        # the guess is the first iterate; the contrapoint follows its sign
        a, fa = b, fb
        b, fb = bracket.guess, f(bracket.guess)
    for _ in range(ROOT_ITERATION_CAP):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise NoConvergence(f"root refinement exceeded {ROOT_ITERATION_CAP} iterations")


def interpolant_root(
    nodes: Sequence[float], values: Sequence[float], lo: float, hi: float
) -> float:
    """Root in [lo, hi] of the polynomial through (nodes, values), at
    distinct nodes.

    The interpolant is built in Newton form from divided differences
    and refined by :func:`refine_root` to machine precision, so no call
    of the sampled function is made.  Returns NaN when the interpolant
    shows no sign change on [lo, hi].  The result is an estimate of the
    sampled function's root, to pass on as ``Bracket.guess``: it is
    certified by nothing.
    """
    coefficients = list(values)
    if len(nodes) != len(coefficients) or not nodes:
        raise InvalidInput("need equally many nodes and values, at least one")
    count = len(nodes)
    for order in range(1, count):
        for i in range(count - 1, order - 1, -1):
            coefficients[i] = (coefficients[i] - coefficients[i - 1]) / (
                nodes[i] - nodes[i - order]
            )
    # nested form: c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...))
    steps = list(zip(coefficients[-2::-1], nodes[-2::-1]))
    top = coefficients[-1]

    def interpolant(x: float) -> float:
        acc = top
        for coefficient, node in steps:
            acc = acc * (x - node) + coefficient
        return acc

    f_lo, f_hi = interpolant(lo), interpolant(hi)
    if not (lo < hi and f_lo * f_hi < 0.0):
        return math.nan
    return refine_root(interpolant, Bracket(lo, hi, f_lo, f_hi), math.ulp(hi - lo))


def nullspace_4x4(matrix) -> np.ndarray:
    """Unit-norm kernel vector of a numerically singular 4x4 matrix.

    Singular value decomposition; singular value k counts as zero when
    sigma_k / sigma_1 <= ``SING_TOL``, and the kernel is the right
    singular vector of the smallest one, with the sign the decomposition
    gives it.

    Raises :class:`NotSingular` when the rank test finds full rank and
    :class:`RankDeficiency2` when two or more singular values vanish.
    """
    a = np.array(matrix, dtype=float)
    if a.shape != (4, 4):
        raise InvalidInput("expected a 4x4 matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")
    _, sigma, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(sigma > SING_TOL * sigma[0]))
    if rank == 4:
        raise NotSingular(f"no singular value below {SING_TOL:g} relative; not an eigenvalue")
    if rank <= 2:
        raise RankDeficiency2(
            f"kernel dimension {4 - rank} >= 2 (degenerate level)",
            kernel_dim=4 - rank,
        )
    return vt[3]


@lru_cache(maxsize=8)
def _gauss_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def integrate_panel(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Gauss-Legendre integral of ``f`` over [a, b].

    A panel is accepted when its two-half refinement agrees with the
    single-panel estimate to max(QUAD_REL_TOL * |I|, abs_tol), with
    abs_tol = QUAD_ABS_TOL halved on each subdivision.
    """
    if not a < b:
        raise InvalidInput("require a < b")
    nodes, weights = _gauss_rule(PANEL_ORDER)

    def one(lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        acc = 0.0
        for x, w in zip(nodes, weights):
            acc += w * f(mid + half * x)
        return acc * half

    def recurse(lo: float, hi: float, whole: float, abs_tol: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = one(lo, mid)
        right = one(mid, hi)
        total = left + right
        if abs(total - whole) <= max(QUAD_REL_TOL * abs(total), abs_tol):
            return total
        if depth >= SUBDIVISION_CAP:
            raise NoConvergence(f"quadrature depth {SUBDIVISION_CAP} exceeded on [{lo}, {hi}]")
        half_tol = 0.5 * abs_tol
        return recurse(lo, mid, left, half_tol, depth + 1) + recurse(
            mid, hi, right, half_tol, depth + 1
        )

    return recurse(a, b, one(a, b), QUAD_ABS_TOL, 0)


def integrate_tail(f: Callable[[float], float], a: float, decay_rate: float) -> float:
    """Integral of an exponentially decaying ``f`` over [a, infinity).

    Marches panels of width 5/decay_rate (about five e-foldings each),
    integrating each adaptively, and stops once a panel contributes less
    than ``QUAD_ABS_TOL`` in magnitude.
    """
    if not decay_rate > 0.0:
        raise InvalidInput("decay_rate must be positive")
    width = 5.0 / decay_rate

    total = 0.0
    lo = a
    for _ in range(TAIL_PANEL_CAP):
        hi = lo + width
        contribution = integrate_panel(f, lo, hi)
        total += contribution
        if abs(contribution) < QUAD_ABS_TOL:
            return total
        lo = hi
    raise DecayViolation(
        f"tail integral not below {QUAD_ABS_TOL:g} after {TAIL_PANEL_CAP} panels"
    )
