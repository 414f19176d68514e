"""Matching matrix, spectral determinant and bound-state enumeration.

Continuity of u, w and their radial derivatives at the well edge r = 1
gives a homogeneous 4x4 system M (c1, c2, d1, d2)^T = 0 with columns
ordered (c1, c2, d1, d2) and rows

    [ f1(m)    -f2(m)    g1(m)    -g2(m)  ]     u  continuity
    [ f1'(m)   -f2'(m)   g1'(m)   -g2'(m) ]     u' continuity
    [ g1(m+1)  -g2(m+1)  f1(m+1)  +f2(m+1)]     w  continuity
    [ g1'(m+1) -g2'(m+1) f1'(m+1) +f2'(m+1)]    w' continuity

(all evaluated at r = 1).  Bound-state energies are the zeros of
det M inside the open window -beta^2/4 < e < v - beta^2/4; the number
of zeros is finite.

The solver works on the same system in the basis of the four waves of
``radial_basis``: a = (c1 + d1)/2 times J(k_- r), b = (c1 - d1)/2 times
J(k_+ r), c2 times x = (f2(m), g2(m+1)) and d2 times y = (g2(m), f2(m+1)),
with columns (a, c2, b, d2).  One function, :func:`equilibrated_matrix`,
builds it for the scan, the refinement and the kernel solve.  Each
column is one wave as ``radial_basis`` stores it, divided by its
``divisor``, and then scaled to unit norm:

* an interior wave is divided by the signed power k^q of its wave
  number, q = min(|m|, |m+1|).  Undivided, the wave whose number
  vanishes at e = 0 (k_- for beta > 0, k_+ for beta < 0) gives det M a
  zero of order q there whose kernel is the null function, not a bound
  state; divided, its column is O(1), with a finite limit at e = 0;
* an exterior wave is edge-scaled, e^{decay_rate} K_n, so deep wells do
  not underflow;
* every column is scaled to unit norm, so columns whose J_n ~ k^|n| and
  K_n ~ z^-|n| entries lie orders of magnitude apart keep their full
  precision in the determinant.

Apart from the structural zero, these factors are nonzero and continuous
in e, so the scan reads the zeros of det M from the sign of
``np.linalg.det`` of the equilibrated matrix, at every beta.  At
beta = 0 det M is a nonzero factor times the product of the two spin
channels' 2x2 determinants, the scalar finite wells of orders q and
q + 1.  With R = k J_{q+1}(k) / J_q(k) and S = kappa K_{q+1}(kappa) /
K_q(kappa) > 0 (DLMF 10.6.2, 10.29.2), the order-q levels solve R = S
and the order-(q + 1) levels R = -S k^2 / kappa^2, so no energy is a
level of both channels: det M changes sign at every level, and the
lowest level, by min-max, is of order q.

The scan grid (:func:`scan_grid`) is uniform in the interior wave
number s = sqrt(e + beta^2/4), in which the levels, near zeros of
J_n(k_+/- r), are spaced about evenly, and sizes itself by its step in
s (``GRID_STEP_S``), which gives the reference rows 300 points, deep
wells 501 to 1001 and the whole window of v = 1e6 10001.
No caller sets the size: a grid ten times finer found no further level,
and a 100-point one lost none, on the reference rows and on 3932 levels
of deep wells.
The scan evaluates the energy axis in arrays: :func:`equilibrated_matrix`
takes a float or a 1-D array of energies, and the grid goes through it
in chunks of ``SCAN_CHUNK`` points (one chunk below v = 4e4; the
chunks keep memory flat for larger grids, up to the 20001 points of the
widest window the J argument domain admits), as one ``np.linalg.det`` of
the (N, 4, 4) stack per chunk.  Sign changes
are read from the value array; each energy is an independent lane of
the special-function kernels, so they do not depend on the chunking.
Each bracket carries a ``guess``, the root of the polynomial through
the ``PROXY_NODES`` scan values centred on the bracket (clamped to the
grid), which ``numerics.interpolant_root`` finds without evaluating the
determinant from the Newton table that ``numerics.divided_differences``
builds for every bracket in one array pass.
The guess is not trusted but certified: the values at guess -/+ h, h =
REFINE_TOL / 2, of every bracket that holds both points strictly inside
it (:func:`find_spectrum` alone picks them) go through the scan's
chunked lane call once, and ``numerics.narrow_bracket`` keeps the part
of each bracket that holds its sign change.  Values of opposite signs
leave a bracket REFINE_TOL wide, which Anderson–Björck regula falsi
(``numerics.refine_root``) then closes without an evaluation, at the
secant point of the two values; values of one sign leave the half
beyond them, with the guess moved by one Newton step on the
polynomial's slope there (``Bracket.slope``); an exact 0.0 is a root at
that energy, as at a grid node.  Each bracket is then refined by regula
falsi at one float energy at a time, which runs the scalar kernels.
Its steps are sequential, and a lane call has a fixed cost of several
scalar points (numpy's per-call cost on every term, node and step of a
regime), so one call per spectrum pays, where a lane call per step
would not.  An open half costs the refinement about 2.3 evaluations, so
a second probe round, at the moved guesses, runs when
``PROBE_ROUND_MIN`` or more halves hold both points of one: deep wells
leave dozens, the reference rows at most one.  The refinement starts
from the narrowed bracket's ends and keeps the sign change, so a poor
guess only leaves a wider bracket.

A level is the regula falsi point of a sign-change bracket at most
``REFINE_TOL`` wide, not an end of it.  On the reference rows it lies
within 3e-14 of the determinant's sign change (within 5e-14 on every
one, pinned by the tests); on deep wells the determinant's rounding
limits a level to about 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, InvalidInput, NumericalFailure
from .numerics import Bracket, divided_differences, interpolant_root, narrow_bracket, refine_root
from .radial_basis import (
    WINDOW_MARGIN,
    DotParameters,
    exterior_wave_numbers,
    interior_pair,
    interior_wave_numbers,
)
from .special_functions import J_ARGUMENT_CAP

# the one exterior function, under the name the benchmark's tracer patches here
from .radial_basis import exterior_pair as exterior_pair_scaled

# grid points evaluated in one batch: the sized grid of a window under
# 200 wide in s in one, and memory that stays flat for larger grids
SCAN_CHUNK = 2000
# the step in s = sqrt(e + beta^2/4) of a sized grid: adjacent levels lie
# at least 1.006 apart in s on the 36 reference rows and 1.238 on deep
# wells (deep_sweep seed 1), so it puts 10 or more steps between them
GRID_STEP_S = 0.1
# the fewest points of a sized grid, which the reference rows (s-ranges
# 5 to 10) get: the refinement takes 0.46 evaluations a level there,
# where at 250 points deep wells (deep_sweep seed 1) take 2.45
GRID_POINTS_MIN = 300
# scan samples per bracket whose interpolating polynomial seeds its
# refinement; fewer than the smallest grid
PROXY_NODES = 16
# the fewest open brackets with a guess that pay for a second probe round:
# its lane call costs several scalar points (module docstring) and an open
# bracket about 2.3 evaluations of the refinement; lower values move levels
PROBE_ROUND_MIN = 6
# the width to which regula falsi closes each sign-change bracket before it
# returns the bracket's secant point.  It bounds a level's error only as
# far as the determinant resolves its root, which on deep wells it does
# not: there the determinant's rounding noise spans about 1e-12 in e
# around a level, and levels lie up to 3.6e-12 from the sign change of
# the same determinant refined to 1e-16 (deep_sweep seeds 1-3)
REFINE_TOL = 1e-12


@dataclass(frozen=True)
class EnergySpectrum:
    """All bound-state energies of one (v, beta, m), sorted ascending;
    an empty ``levels`` list is a valid result."""

    params: DotParameters
    levels: tuple[float, ...]
    window: tuple[float, float]


def _check_window(params: DotParameters, e: float | np.ndarray) -> None:
    lo, hi = params.window
    if isinstance(e, np.ndarray):
        inside = (lo < e) & (e < hi)
        if inside.all():
            return
        e = e[~inside][0]
    elif lo < e < hi:
        return
    raise InvalidInput(f"e = {float(e)!r} outside open window ({lo!r}, {hi!r}) of {params}")


def equilibrated_matrix(
    params: DotParameters, e: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The matching matrix in the (a, c2, b, d2) columns, equilibrated,
    and the scale that takes column j back to the stored waves' scale
    (exterior edge-scaled): column = matrix[..., j] * scale[..., j].

    ``e`` is a float, giving a (4, 4) matrix and (4,) scales, or a 1-D
    array of N energies, giving an (N, 4, 4) stack and (N, 4) scales.
    Both forms take one column norm, the nested ``np.hypot`` below."""
    _check_window(params, e)
    minus, plus = interior_pair(params.m, interior_wave_numbers(e, params.beta), 1.0)
    kappa = exterior_wave_numbers(e, params.v, params.beta)
    x, y = exterior_pair_scaled(params.m, kappa, 1.0)
    matrix = np.array((
        (minus.value[0], minus.slope[0], minus.value[1], minus.slope[1]),
        (-x.value[0], -x.slope[0], -x.value[1], -x.slope[1]),
        (plus.value[0], plus.slope[0], -plus.value[1], -plus.slope[1]),
        (-y.value[0], -y.slope[0], y.value[1], y.slope[1]),
    ))
    # hypot: the K columns near the window top square past the float range;
    # each call takes the entries of two rows, column by column (and lane by lane)
    a, b, c, d = matrix.swapaxes(0, 1)
    norms = np.hypot(np.hypot(a, b), np.hypot(c, d))
    scale = norms * np.array((minus.divisor, x.divisor, plus.divisor, y.divisor))
    matrix /= norms[:, None]
    return matrix.T, scale.T


def _scan_roots(grid: np.ndarray, values: np.ndarray) -> tuple[list[float], list[Bracket]]:
    """Grid-point roots and sign-change brackets of the scan
    ``values`` on ``grid``, each bracket with the root of the polynomial
    through the scan values around it as its ``guess``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalFailure(
            f"scan value {values[~finite][0]} at e = {float(grid[~finite][0])!r}: "
            "no sign information"
        )
    if not values.any():
        raise NumericalFailure("scan values vanish on the whole grid: no sign information")

    lo, hi = values[:-1], values[1:]
    # a zero at the right end belongs to the next interval's left end
    at_node = grid[:-1][lo == 0.0].tolist()
    change = np.flatnonzero(lo * hi < 0.0)
    # the PROXY_NODES samples centred on each bracket, clamped to the grid,
    # and the Newton tables of their polynomials in one pass
    start = np.minimum(np.maximum(change + 1 - PROXY_NODES // 2, 0), len(grid) - PROXY_NODES)
    near = start[:, None] + np.arange(PROXY_NODES)
    nodes = grid[near]
    tables = divided_differences(nodes, values[near])
    brackets = []
    for e_lo, e_hi, f_lo, f_hi, stencil, table in zip(
        grid[change].tolist(),
        grid[change + 1].tolist(),
        values[change].tolist(),
        values[change + 1].tolist(),
        nodes.tolist(),
        tables.tolist(),
    ):
        guess, slope = interpolant_root(stencil, table, e_lo, e_hi)
        brackets.append(Bracket(e_lo, e_hi, f_lo, f_hi, guess, slope))
    return at_node, brackets


def scan_grid(a: float, b: float, beta: float) -> np.ndarray:
    """The scan energies, strictly increasing from ``a`` to ``b``, both
    exact: uniform in the interior wave number s = sqrt(e + beta^2/4), in
    steps of at most ``GRID_STEP_S`` and at least ``GRID_POINTS_MIN``
    points, less the repeats where a step in s maps below the float
    spacing of e.  A window that passes the J argument check of
    :func:`find_spectrum` spans at most 2000 in s, so at most 20001 points.

    The levels sit near zeros of J_n(k_+/- r), which McMahon's expansion
    (DLMF 10.21(vi)) spaces about evenly in s; a grid uniform in e would
    crowd the window top and starve the deep levels."""
    quarter = 0.25 * beta * beta
    s_a, s_b = math.sqrt(a + quarter), math.sqrt(b + quarter)
    points = max(math.ceil((s_b - s_a) / GRID_STEP_S) + 1, GRID_POINTS_MIN)
    s = np.linspace(s_a, s_b, points)
    # rounding can carry a node next to an end beyond it
    grid = np.clip(s * s - quarter, a, b)
    grid[0], grid[-1] = a, b
    return grid[np.diff(grid, prepend=-math.inf) > 0.0]


def _lost_binding_level(params: DotParameters) -> ArgumentOutOfRange:
    return ArgumentOutOfRange(
        f"no level of {params}, though m = 0 and -1 bind one in every well: "
        f"its binding energy lies below WINDOW_MARGIN = {WINDOW_MARGIN}"
    )


def find_spectrum(params: DotParameters) -> EnergySpectrum:
    """Enumerate all bound-state energies inside the window.

    Sign-change brackets of the scale-free determinant on the grid of
    :func:`scan_grid`, uniform in the interior wave number between the
    margin-shrunk window ends and sized by their span, are narrowed by
    the values either side of their guesses, where both lie inside the
    bracket, and refined to ``REFINE_TOL``.  Two levels within one grid
    step give no sign change and are not reported.  At beta = 0 no level
    is shared by the two spin channels, so the determinant changes sign
    at each (module docstring).  An empty spectrum is a valid result.  A
    window that double precision cannot resolve (beta^2 overflows, or the
    float spacing at its edges exceeds ``WINDOW_MARGIN``), or whose top
    needs J beyond ``J_ARGUMENT_CAP``, raises ``ArgumentOutOfRange``.

    The angular numbers m = 0 and -1 bind a level in every well (at
    beta = 0 the lowest, of order 0: u for m = 0, w for m = -1).  A scan
    that finds none there raises ``ArgumentOutOfRange``: the level
    lies within ``WINDOW_MARGIN`` of the window top, which the scan does
    not reach.
    """
    window = params.window
    a = window[0] + WINDOW_MARGIN
    b = window[1] - WINDOW_MARGIN
    if not (window[0] < a and b < window[1]):
        raise ArgumentOutOfRange(
            f"window {window} of {params} does not resolve its margin {WINDOW_MARGIN} "
            "in double precision"
        )
    # m = 0 and -1 bind a level in every well
    binding = params.m in (0, -1)
    if not a < b:
        if binding:
            raise _lost_binding_level(params)
        return EnergySpectrum(params=params, levels=(), window=window)
    # the matching takes J at k_+/- r = 1, the largest at the window top
    reach = math.sqrt(b + 0.25 * params.beta * params.beta) + 0.5 * abs(params.beta)
    if reach > J_ARGUMENT_CAP:
        raise ArgumentOutOfRange(
            f"window ({a!r}, {b!r}) of {params} reaches the interior wave number "
            f"{reach:.6g}, beyond the validated J argument domain {J_ARGUMENT_CAP}"
        )

    def values_at(e: float | np.ndarray) -> float | np.ndarray:
        """Scan values at the energies e: a float at a float, a 1-D array
        at an array."""
        return np.linalg.det(equilibrated_matrix(params, e)[0])

    def values_on(energies: np.ndarray) -> np.ndarray:
        """``values_at`` on an array of energies, SCAN_CHUNK lanes at a time."""
        return np.concatenate(
            [values_at(energies[i : i + SCAN_CHUNK]) for i in range(0, len(energies), SCAN_CHUNK)]
        )

    grid = scan_grid(a, b, params.beta)
    roots, found = _scan_roots(grid, values_on(grid))
    if binding and not (roots or found):
        raise _lost_binding_level(params)

    half = 0.5 * REFINE_TOL
    # at most two probe rounds, each narrowing every bracket whose guess
    # has both points inside it by the values half REFINE_TOL either side
    # of the guess, in one lane call; the second runs only when enough
    # brackets are left open to pay for its call
    for least in (1, PROBE_ROUND_MIN):
        probed = [
            i
            for i, bracket in enumerate(found)
            if isinstance(bracket, Bracket)
            and bracket.lo < bracket.guess - half
            and bracket.guess + half < bracket.hi
        ]
        if len(probed) < least:
            break
        guesses = np.array([found[i].guess for i in probed])
        probes = values_on(np.concatenate((guesses - half, guesses + half))).tolist()
        for i, below, above in zip(probed, probes, probes[len(probed) :]):
            found[i] = narrow_bracket(found[i], half, below, above)

    for narrowed in found:
        if isinstance(narrowed, Bracket):
            narrowed = refine_root(lambda e: float(values_at(e)), narrowed, REFINE_TOL)
        roots.append(narrowed)

    return EnergySpectrum(params=params, levels=tuple(sorted(roots)), window=window)
