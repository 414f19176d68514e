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
builds it for the scan, the refinement, the beta = 0 channel minors and
the kernel solve.  Each column is one wave as ``radial_basis`` stores
it, divided by its ``divisor``, and then scaled to unit norm:

* an interior wave is divided by the signed power k^q of its wave
  number, q = min(|m|, |m+1|).  Undivided, the wave whose number
  vanishes at e = 0 (k_- for beta > 0, k_+ for beta < 0) gives det M a
  zero of order q there whose kernel is the null function, not a bound
  state; divided, its column is O(1), with a finite limit at e = 0;
* an exterior wave is divided by exp(-decay_rate), so deep wells do not
  underflow;
* every column is scaled to unit norm, so columns whose J_n ~ k^|n| and
  K_n ~ z^-|n| entries lie orders of magnitude apart keep their full
  precision in the determinant.

Apart from the structural zero, these factors are nonzero and continuous
in e, so the scan reads the zeros of det M from the sign of
``np.linalg.det`` of the equilibrated matrix.  At beta = 0 the system
splits into the two spin channels, the 2x2 minors on rows 0-1 of the
(a, c2) columns (u) and on rows 2-3 of the (a, d2) columns (w), each
normalized by its own column norms and scanned separately, so that
degenerate channel roots are not lost to an even-order touch of the
product.

The scan evaluates the energy axis in arrays: :func:`equilibrated_matrix`
takes a float or a 1-D array of energies, and the grid goes through it
in chunks of ``SCAN_CHUNK`` points (one chunk at the default grid; the
chunks keep memory flat for larger ones, up to ``GRID_POINTS_CAP``), as
one ``np.linalg.det`` of the (N, 4, 4) stack or the two channel minors
per chunk.  Sign changes are read from the value arrays; each energy is
an independent lane of the special-function kernels, so they do not depend
on the chunking.  Each bracket, of either channel at beta = 0, is then
refined by Brent's method (``numerics.refine_root``) on the same values
at one float energy at a time, which runs the scalar kernels: a
refinement step needs one point, where a lane call would pay the lane
kernels' per-step loop overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, BracketInvalid, InvalidInput, WindowViolation
from .numerics import Bracket, refine_root
from .radial_basis import WINDOW_MARGIN, DotParameters, interior_pair

# the one exterior function, under the name bench/tracer.py patches here
from .radial_basis import exterior_pair as exterior_pair_scaled

# grid points evaluated in one batch: the default grid in one, and
# memory that stays flat for larger grids
SCAN_CHUNK = 2000
# the largest scan grid: a scan of about 4 s at under 70 MB peak
# (2-core x86-64 machine)
GRID_POINTS_CAP = 1_000_000


@dataclass(frozen=True)
class ScanSpec:
    """Grid density and refinement tolerances for the spectrum search.

    ``e_min``/``e_max`` optionally clamp the scan to a sub-range of the
    window (useful for very deep wells, where resolving the full window
    would need an enormous grid); they never widen it.
    """

    grid_points: int = 2000
    refine_tol: float = 1e-12
    e_min: float | None = None
    e_max: float | None = None

    def __post_init__(self):
        try:
            grid_points = int(self.grid_points)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput("grid_points must be an integer") from None
        if grid_points != self.grid_points:
            raise InvalidInput(f"grid_points = {self.grid_points!r} must be an integer")
        object.__setattr__(self, "grid_points", grid_points)
        if not 100 <= self.grid_points <= GRID_POINTS_CAP:
            raise InvalidInput(f"grid_points must lie in 100 .. {GRID_POINTS_CAP}")
        for name in ("refine_tol", "e_min", "e_max"):
            value = getattr(self, name)
            if value is None and name != "refine_tol":
                continue
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError):
                raise InvalidInput(f"{name} must be a real number") from None
            if not math.isfinite(value):
                raise InvalidInput(f"{name} = {value!r} must be finite")
            object.__setattr__(self, name, value)
        if not self.refine_tol > 0.0:
            raise InvalidInput("refine_tol must be positive")


@dataclass(frozen=True)
class EnergySpectrum:
    """All bound-state energies of one (v, beta, m), sorted ascending;
    an empty ``levels`` list is a valid result."""

    params: DotParameters
    levels: tuple[float, ...]
    window: tuple[float, float]


def _check_window(params: DotParameters, e: float | np.ndarray) -> None:
    lo, hi = params.window
    inside = (lo < e) & (e < hi)
    if not np.all(inside):
        bad = float(e[~inside][0] if isinstance(e, np.ndarray) else e)
        raise WindowViolation(f"e = {bad!r} outside open window ({lo!r}, {hi!r}) of {params}")


def _hypot_lanes(a, b, c, d):
    """math.hypot(a, b, c, d) lane by lane."""
    return np.hypot(np.hypot(a, b), np.hypot(c, d))


def equilibrated_matrix(
    params: DotParameters, e: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The matching matrix in the (a, c2, b, d2) columns, equilibrated,
    and the scale that takes column j back to true scale:
    true column = matrix[..., j] * scale[..., j].

    ``e`` is a float, giving a (4, 4) matrix and (4,) scales, or a 1-D
    array of N energies, giving an (N, 4, 4) stack and (N, 4) scales."""
    _check_window(params, e)
    minus, plus = interior_pair(params.m, e, params.beta, 1.0)
    x, y = exterior_pair_scaled(params.m, e, params.v, params.beta, 1.0)
    columns = (
        (minus.value[0], minus.slope[0], minus.value[1], minus.slope[1]),
        (-x.value[0], -x.slope[0], -x.value[1], -x.slope[1]),
        (plus.value[0], plus.slope[0], -plus.value[1], -plus.slope[1]),
        (-y.value[0], -y.slope[0], y.value[1], y.slope[1]),
    )
    # hypot: the K columns near the window top square past the float range
    hypot = _hypot_lanes if isinstance(e, np.ndarray) else math.hypot
    norms = np.array([hypot(*column) for column in columns]).T
    scale = norms * np.array((minus.divisor, x.divisor, plus.divisor, y.divisor)).T
    return np.array(columns).T / norms[..., None, :], scale


def match_matrix(params: DotParameters, e: float) -> np.ndarray:
    """The 4x4 continuity matrix at energy e in the paper's (c1, c2, d1, d2)
    columns, true scale, strictly inside the window."""
    matrix, scale = equilibrated_matrix(params, e)
    minus, c2, plus, d2 = (matrix * scale).T
    # a = (c1 + d1)/2 and b = (c1 - d1)/2 multiply the two waves
    return np.column_stack((0.5 * (minus + plus), c2, 0.5 * (minus - plus), d2))


def spectral_determinant(params: DotParameters, e: float) -> float:
    """det M(m, e, v, beta) at true scale."""
    return float(np.linalg.det(match_matrix(params, e)))


def _channel_minor(matrix: np.ndarray, row: int, column: int) -> np.ndarray:
    """2x2 minors of a matrix or a matrix stack on rows (row, row + 1)
    and columns (0, column), each column part scaled to unit norm: at
    beta = 0 the (c1, c2) channel for (0, 1) and the (d1, d2) channel
    for (2, 3)."""
    a, b = matrix[..., row, 0], matrix[..., row, column]
    c, d = matrix[..., row + 1, 0], matrix[..., row + 1, column]
    return (a * d - b * c) / (np.hypot(a, c) * np.hypot(b, d))


def _scan_roots(grid: np.ndarray, values: np.ndarray) -> tuple[list[float], list[Bracket]]:
    """Grid-point roots and sign-change brackets of one channel's
    ``values`` on ``grid``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise BracketInvalid(
            f"scan value {values[~finite][0]} at e = {float(grid[~finite][0])!r}: "
            "no sign information"
        )
    if not values.any():
        raise BracketInvalid("scan values vanish on the whole grid: no sign information")

    lo, hi = values[:-1], values[1:]
    # a zero at the right end belongs to the next interval's left end
    at_node = grid[:-1][lo == 0.0].tolist()
    brackets = [
        Bracket(float(grid[i]), float(grid[i + 1]), float(values[i]), float(values[i + 1]))
        for i in np.flatnonzero(lo * hi < 0.0).tolist()
    ]
    return at_node, brackets


def _dedupe(sorted_values: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for value in sorted_values:
        if not out or value - out[-1] > tol:
            out.append(value)
    return out


def _lost_binding_level(params: DotParameters) -> ArgumentOutOfRange:
    return ArgumentOutOfRange(
        f"no level in the order-0 channel of {params}, which binds one in every well: "
        f"its binding energy lies below WINDOW_MARGIN = {WINDOW_MARGIN}"
    )


def find_spectrum(params: DotParameters, scan: ScanSpec | None = None) -> EnergySpectrum:
    """Enumerate all bound-state energies inside the window.

    Sign-change brackets of the scale-free determinant on a uniform grid
    are refined to ``scan.refine_tol``.  A root that the grid does not
    resolve (two close levels within one grid step, or an even-order
    touch) gives no sign change and is not reported.  An empty spectrum
    is a valid result.  A window that double precision cannot resolve
    (beta^2 overflows, or the float spacing at its edges exceeds
    ``WINDOW_MARGIN``) raises ``ArgumentOutOfRange``.

    At beta = 0 the channel of order 0 (u for m = 0, w for m = -1) binds
    a level in every well.  A scan of the whole window that finds none
    there raises ``ArgumentOutOfRange``: the level lies within
    ``WINDOW_MARGIN`` of the window top, which the scan does not reach.
    """
    if scan is None:
        scan = ScanSpec()
    window = params.window
    a = window[0] + WINDOW_MARGIN
    b = window[1] - WINDOW_MARGIN
    if not (window[0] < a and b < window[1]):
        raise ArgumentOutOfRange(
            f"window {window} of {params} does not resolve its margin {WINDOW_MARGIN} "
            "in double precision"
        )
    whole = (a, b)
    if scan.e_min is not None:
        a = max(a, scan.e_min)
    if scan.e_max is not None:
        b = min(b, scan.e_max)
    coupled = params.beta != 0.0
    # the scanned channel that must hold a level, if any
    binding = None if coupled or (a, b) != whole else {0: 0, -1: 1}.get(params.m)
    if not a < b:
        if binding is not None:
            raise _lost_binding_level(params)
        return EnergySpectrum(params=params, levels=(), window=window)

    def values_at(e: float | np.ndarray) -> np.ndarray:
        """Scan values at the energies e: (channels,) at a float,
        (channels, len(e)) at an array."""
        matrix = equilibrated_matrix(params, e)[0]
        if coupled:
            return np.linalg.det(matrix)[None]
        return np.stack((_channel_minor(matrix, 0, 1), _channel_minor(matrix, 2, 3)))

    n = scan.grid_points
    grid = a + np.arange(n) * ((b - a) / (n - 1))
    grid[-1] = b
    scanned = np.concatenate(
        [values_at(grid[i : i + SCAN_CHUNK]) for i in range(0, n, SCAN_CHUNK)], axis=1
    )

    roots: list[float] = []
    for channel, values in enumerate(scanned):
        at_node, brackets = _scan_roots(grid, values)
        if channel == binding and not (at_node or brackets):
            raise _lost_binding_level(params)
        roots.extend(at_node)

        # channel bound as a default: a wrapper of refine_root may keep f
        def channel_value(e: float, channel: int = channel) -> float:
            return float(values_at(e)[channel])

        roots.extend(refine_root(channel_value, bracket, scan.refine_tol) for bracket in brackets)

    levels = _dedupe(sorted(roots), max(10.0 * scan.refine_tol, 1e-11))
    return EnergySpectrum(params=params, levels=tuple(levels), window=window)
