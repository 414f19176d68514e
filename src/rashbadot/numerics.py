"""Problem-agnostic numerical kernels.

Bracketed root refinement (Anderson–Björck regula falsi with a
bisection guard), the narrowing of a bracket by the values
either side of its guess, the Newton tables of a batch of polynomials
interpolating sets of samples and the root of one (a proxy that supplies
such a guess from values already computed, in the spirit of Boyd's
proxy root-finding, SIAM Review 55, 375 (2013)) and the kernel of 4x4
systems by singular value decomposition.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, NumericalFailure

_EPS = sys.float_info.epsilon

ROOT_ITERATION_CAP = 200
# a singular value counts as zero at or below this fraction of the largest
SING_TOL = 1e-8


class Bracket(NamedTuple):
    """A sign-change interval: lo < hi and f_lo * f_hi < 0, with an
    optional estimate ``guess`` of the root and an estimate ``slope`` of
    the function there, which :func:`narrow_bracket` alone reads."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    guess: float = math.nan
    slope: float = math.nan


def refine_root(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Refine a bracketed root of ``f`` to the secant point of a
    sign-change interval of width <= ``tol``.

    Anderson–Björck regula falsi (BIT 13, 253 (1973)) from the bracket
    ends alone (``bracket.guess`` is not read), bisecting a bracket that
    has not halved in four steps.  Deterministic for identical inputs.
    """
    if tol <= 0.0:
        raise InvalidInput("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if not (a < b) or not (fa * fb < 0.0):
        raise NumericalFailure(f"not a sign-change bracket: [{a}, {b}]")

    # b is the newest point and a the other end; each step evaluates the
    # secant point, kept tol1 inside the bracket; widths[-4] is the
    # bracket's width four steps back
    widths = [math.inf] * 4
    for _ in range(ROOT_ITERATION_CAP):
        c = b - fb * (b - a) / (fb - fa)
        tol1 = 2.0 * _EPS * abs(c) + 0.5 * tol
        width = abs(b - a)
        if width <= 2.0 * tol1:
            return c
        if width > 0.5 * widths[-4]:
            c = 0.5 * (a + b)
        widths.append(width)
        c = min(max(c, min(a, b) + tol1), max(a, b) - tol1)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            # a survives again: scale its value down
            scale = 1.0 - fc / fb
            fa *= scale if scale > 0.0 else 0.5
        else:
            a, fa = b, fb
        b, fb = c, fc
    raise NumericalFailure(f"root refinement exceeded {ROOT_ITERATION_CAP} iterations")


def narrow_bracket(
    bracket: Bracket, half_width: float, f_below: float, f_above: float
) -> float | Bracket:
    """Narrow ``bracket`` by the values ``f_below`` and ``f_above`` of its
    function at guess - half_width and guess + half_width, two points
    that the caller has checked lie strictly inside the bracket.

    Values of opposite signs give the bracket between the two points,
    which :func:`refine_root` closes at once when ``half_width`` is half
    its ``tol``; values of one sign give the half of the bracket that
    still holds the sign change, with the guess moved by one Newton step,
    guess - (f_below + f_above) / (2 slope), or NaN at a zero slope,
    which the caller checks against that half before it probes again.  A
    value of exactly 0.0 returns its point as the root.
    """
    guess, slope = bracket.guess, bracket.slope
    below, above = guess - half_width, guess + half_width
    if f_below == 0.0:
        return below
    if f_above == 0.0:
        return above
    if f_below * f_above < 0.0:
        return Bracket(below, above, f_below, f_above)
    if f_below * bracket.f_lo > 0.0:
        lo, hi, f_lo, f_hi = above, bracket.hi, f_above, bracket.f_hi
    else:
        lo, hi, f_lo, f_hi = bracket.lo, below, bracket.f_lo, f_below
    # the mean of the two values stands for the value at the guess
    moved = guess - (f_below + f_above) / (2.0 * slope) if slope != 0.0 else math.nan
    return Bracket(lo, hi, f_lo, f_hi, moved, slope)


def divided_differences(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The Newton coefficients f[x_0], f[x_0, x_1], ..., f[x_0 .. x_n]
    of the polynomial through (nodes, values) along the last axis, for
    a batch of stencils at once: arrays of shape (..., n + 1), distinct
    nodes within a stencil.  Each entry takes the arithmetic of the
    in-place table built one stencil at a time."""
    # copies with the orders down the first axis: each step takes whole rows
    nodes = np.array(np.asarray(nodes, dtype=float).T, order="C")
    table = np.array(np.asarray(values, dtype=float).T, order="C")
    if nodes.shape != table.shape or table.ndim == 0 or len(table) == 0:
        raise InvalidInput("need equally many nodes and values, at least one")
    for order in range(1, len(table)):
        table[order:] = (table[order:] - table[order - 1 : -1]) / (nodes[order:] - nodes[:-order])
    return table.T


def interpolant_root(
    nodes: Sequence[float], coefficients: Sequence[float], lo: float, hi: float
) -> tuple[float, float]:
    """Root in [lo, hi] of the polynomial with the Newton ``coefficients``
    (:func:`divided_differences`) on distinct ``nodes``, and the
    polynomial's slope there.

    The root is refined by :func:`refine_root` to machine precision, so
    no call of the sampled function is made.  Returns (NaN, NaN) when the
    interpolant shows no sign change on [lo, hi].  The pair estimates
    the sampled function's root and slope there, to pass on as
    ``Bracket.guess`` and ``Bracket.slope``: it is certified by nothing.
    """
    if len(nodes) != len(coefficients) or not nodes:
        raise InvalidInput("need equally many nodes and coefficients, at least one")
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
        return math.nan, math.nan
    root = refine_root(interpolant, Bracket(lo, hi, f_lo, f_hi), math.ulp(hi - lo))
    # the derivative of the nested form, by the same recurrence
    value, slope = top, 0.0
    for coefficient, node in steps:
        step = root - node
        slope = slope * step + value
        value = value * step + coefficient
    return root, slope


def nullspace_4x4(matrix) -> np.ndarray:
    """Unit-norm kernel vector of a numerically singular 4x4 matrix.

    Singular value decomposition; singular value k counts as zero when
    sigma_k / sigma_1 <= ``SING_TOL``, and the kernel is the right
    singular vector of the smallest one, with the sign the decomposition
    gives it.

    Raises :class:`NumericalFailure` when the rank test finds full rank
    or two or more singular values vanish.
    """
    a = np.array(matrix, dtype=float)
    if a.shape != (4, 4):
        raise InvalidInput("expected a 4x4 matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")
    _, sigma, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(sigma > SING_TOL * sigma[0]))
    if rank == 4:
        raise NumericalFailure(f"no singular value below {SING_TOL:g} relative; not an eigenvalue")
    if rank <= 2:
        raise NumericalFailure(f"kernel dimension {4 - rank} >= 2 (degenerate level)")
    return vt[3]


# The benchmark's tracer patches this name here, though nothing calls it;
# it goes when ROADMAP item 1 points the tracer at the kernels.
integrate_panel = None
