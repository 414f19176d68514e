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

Root scanning uses a scale-free variant of the determinant: the
exterior columns are multiplied by exp(+decay_rate) (removing the
overall e^{-k} smallness of the K functions, which otherwise underflows
for deep wells) and the determinant is divided by the product of row
norms.  Both operations rescale by strictly positive factors, so the
zero set is untouched.

At beta = 0 the system is block diagonal in the two spin channels and
the determinant factorizes into the two diagonal 2x2 minors of the same
scaled rows; each channel minor is then scanned separately so that
degenerate channel roots are found rather than lost to an even-order
touch of the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidInput, WindowViolation
from .numerics import Bracket, refine_root
from .radial_basis import (
    WINDOW_MARGIN,
    DotParameters,
    RadialBasisEval,
    exterior_pair_scaled,
    interior_pair,
)

SPURIOUS_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class ScanSpec:
    """Grid density and refinement tolerances for the spectrum search.

    ``e_min``/``e_max`` optionally clamp the scan to a sub-range of the
    window (useful for very deep wells, where resolving the full window
    would need an enormous grid); they never widen it.
    """

    grid_points: int = 2000
    refine_tol: float = 1e-12
    suspect_threshold: float = 1e-6
    e_min: float | None = None
    e_max: float | None = None

    def __post_init__(self):
        if self.grid_points < 100:
            raise InvalidInput("grid_points must be >= 100")
        if not self.refine_tol > 0.0:
            raise InvalidInput("refine_tol must be positive")
        if not self.suspect_threshold > 0.0:
            raise InvalidInput("suspect_threshold must be positive")


@dataclass(frozen=True)
class MatchMatrix:
    """The 4x4 continuity system at the well edge, true scale."""

    entries: tuple[tuple[float, float, float, float], ...]
    params: DotParameters
    e: float


@dataclass(frozen=True)
class EnergySpectrum:
    """All bound-state energies of one (v, beta, m), sorted ascending.

    ``diagnostics`` lists grid energies where |det| dips below the
    suspect threshold without a sign change (possible even-multiplicity
    roots); an empty ``levels`` list is a valid result.
    """

    params: DotParameters
    levels: tuple[float, ...]
    window: tuple[float, float]
    diagnostics: tuple[float, ...] = field(default=())


def _check_window(params: DotParameters, e: float) -> None:
    lo, hi = params.window
    if not (lo < e < hi):
        raise WindowViolation(f"e = {e} outside open window ({lo}, {hi})")


def _rows_from_basis(
    b1m: RadialBasisEval,
    b1m1: RadialBasisEval,
    b2m: RadialBasisEval,
    b2m1: RadialBasisEval,
) -> list[list[float]]:
    return [
        [b1m.f, -b2m.f, b1m.g, -b2m.g],
        [b1m.df, -b2m.df, b1m.dg, -b2m.dg],
        [b1m1.g, -b2m1.g, b1m1.f, b2m1.f],
        [b1m1.dg, -b2m1.dg, b1m1.df, b2m1.df],
    ]


def _match_rows_scaled(params: DotParameters, e: float) -> tuple[list[list[float]], float]:
    """Matrix rows with the exterior columns scaled by exp(+exponent)."""
    b1m, b1m1 = interior_pair(params.m, e, params.beta, 1.0)
    b2m, b2m1, exponent = exterior_pair_scaled(params.m, e, params.v, params.beta, 1.0)
    return _rows_from_basis(b1m, b1m1, b2m, b2m1), exponent


def match_matrix(params: DotParameters, e: float, scaled: bool = False) -> MatchMatrix:
    """Continuity matrix at energy e, strictly inside the window.

    With ``scaled`` the exterior columns (c2, d2) are multiplied by
    exp(+decay_rate), which keeps them representable in deep wells where
    the true-scale K columns underflow; this is the form the scan and the
    kernel solve work on.
    """
    _check_window(params, e)
    rows, exponent = _match_rows_scaled(params, e)
    if not scaled:
        damp = math.exp(-exponent)
        for row in rows:
            row[1] *= damp
            row[3] *= damp
    return MatchMatrix(entries=tuple(tuple(row) for row in rows), params=params, e=e)


def _det4(rows: list[list[float]]) -> float:
    """Determinant of a 4x4 by elimination with partial pivoting."""
    m = [list(row) for row in rows]
    det = 1.0
    for k in range(4):
        pivot_row = max(range(k, 4), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0.0:
            return 0.0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, 4):
            factor = m[i][k] / pivot
            if factor != 0.0:
                row_i = m[i]
                row_k = m[k]
                for j in range(k + 1, 4):
                    row_i[j] -= factor * row_k[j]
    return det


def spectral_determinant(params: DotParameters, e: float) -> float:
    """det M(m, e, v, beta) at true scale."""
    return _det4([list(row) for row in match_matrix(params, e).entries])


def _normalized_det(rows: list[list[float]]) -> float:
    det = _det4(rows)
    norm = 1.0
    for row in rows:
        norm *= math.sqrt(row[0] ** 2 + row[1] ** 2 + row[2] ** 2 + row[3] ** 2)
    if norm == 0.0:
        return 0.0
    return det / norm


def _channel_minor(rows: list[list[float]], k: int) -> float:
    """Normalized diagonal 2x2 minor on rows and columns k, k+1: at
    beta = 0 the determinant of the (c1, c2) channel for k = 0 and of the
    (d1, d2) channel for k = 2."""
    (a, b), (c, d) = rows[k][k : k + 2], rows[k + 1][k : k + 2]
    det = a * d - b * c
    norm = math.hypot(a, b) * math.hypot(c, d)
    return det / norm if norm else 0.0


def _scan_values(rows: list[list[float]], coupled: bool) -> tuple[float, ...]:
    """Scale-free values of the scaled rows, safe for arbitrarily deep
    wells: the normalized determinant, or at beta = 0 (not ``coupled``)
    the two channel minors."""
    if coupled:
        return (_normalized_det(rows),)
    return _channel_minor(rows, 0), _channel_minor(rows, 2)


def _scan_roots(
    func: Callable[[float], float], grid: list[float], values: list[float], scan: ScanSpec
) -> tuple[list[float], list[float]]:
    """Roots and suspects of ``func`` from its ``values`` on ``grid``."""
    n = len(grid)
    max_abs = max(abs(v) for v in values)
    if max_abs == 0.0:
        # identically-zero scan carries no sign information
        return [], list(grid[:: max(1, n // 8)])

    roots = []
    for i in range(n - 1):
        lo, hi = values[i], values[i + 1]
        if lo == 0.0:
            roots.append(grid[i])
            continue
        if hi == 0.0:
            continue  # owned by the next interval's left endpoint
        if lo * hi < 0.0:
            roots.append(
                refine_root(func, Bracket(grid[i], grid[i + 1], lo, hi), scan.refine_tol)
            )
    if values[-1] == 0.0:
        roots.append(grid[-1])

    threshold = scan.suspect_threshold * max_abs
    suspects = []
    for i in range(1, n - 1):
        v_prev, v_here, v_next = values[i - 1], values[i], values[i + 1]
        if abs(v_here) <= abs(v_prev) and abs(v_here) <= abs(v_next):
            if v_prev * v_here > 0.0 and v_here * v_next > 0.0 and abs(v_here) < threshold:
                suspects.append(grid[i])
    return roots, suspects


def _dedupe(sorted_values: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for value in sorted_values:
        if not out or value - out[-1] > tol:
            out.append(value)
    return out


def find_spectrum(params: DotParameters, scan: ScanSpec | None = None) -> EnergySpectrum:
    """Enumerate all bound-state energies inside the window.

    Sign-change brackets of the scale-free determinant on a uniform grid
    are refined to ``scan.refine_tol``; |det| dips below the suspect
    threshold with no sign change are reported in ``diagnostics``.  An
    empty spectrum is a valid result.
    """
    if scan is None:
        scan = ScanSpec()
    window = params.window
    a = window[0] + WINDOW_MARGIN
    b = window[1] - WINDOW_MARGIN
    if scan.e_min is not None:
        a = max(a, scan.e_min)
    if scan.e_max is not None:
        b = min(b, scan.e_max)
    if not a < b:
        return EnergySpectrum(params=params, levels=(), window=window)

    coupled = params.beta != 0.0

    def values_at(e: float) -> tuple[float, ...]:
        return _scan_values(_match_rows_scaled(params, e)[0], coupled)

    n = scan.grid_points
    step = (b - a) / (n - 1)
    grid = [a + i * step for i in range(n)]
    grid[-1] = b
    scanned = [values_at(e) for e in grid]

    roots: list[float] = []
    suspects: list[float] = []
    for channel in range(len(scanned[0])):
        got_roots, got_suspects = _scan_roots(
            lambda e: values_at(e)[channel],
            grid,
            [point[channel] for point in scanned],
            scan,
        )
        roots.extend(got_roots)
        suspects.extend(got_suspects)

    if coupled and params.m not in (0, -1):
        # at e = 0 the lower interior wave number vanishes and the (c1, d1)
        # columns become proportional: det has a structural zero of order
        # q = min(|m|, |m+1|) there whose kernel is the identically-zero
        # function, not a bound state.  Within |e| <~ beta * eps^(1/q) the
        # degeneracy sits below rounding and the determinant is noise, so
        # any crossing there is unverifiable; surface it as a diagnostic.
        order = abs(params.m) if params.m > 0 else abs(params.m) - 1
        cut = max(SPURIOUS_ZERO_TOL, abs(params.beta) * 1e-12 ** (1.0 / order))
        genuine = []
        for root in roots:
            if abs(root) <= cut:
                suspects.append(root)
            else:
                genuine.append(root)
        roots = genuine

    tol = max(10.0 * scan.refine_tol, 1e-11)
    levels = _dedupe(sorted(roots), tol)
    diagnostics = _dedupe(sorted(suspects), tol)
    return EnergySpectrum(
        params=params,
        levels=tuple(levels),
        window=window,
        diagnostics=tuple(diagnostics),
    )
