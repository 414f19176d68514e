"""Independent reference for the benchmark's output checks.

Nothing here comes from ``rashbadot``: the special functions are
scipy's ``jv``, ``jvp`` and ``kve``, and the matching problem is set up
in its own basis.  Inside the well the radial pair is written on the
two Bessel waves ``J(k_- r)`` and ``J(k_+ r)``; outside on the real and
imaginary parts of ``K(k r)``, ``k = sqrt(v - e - beta^2/4) + i beta/2``.

The matching determinant is equilibrated before its sign is read:

* the column of the wave number that vanishes at ``e = 0`` (``k_-`` for
  ``beta > 0``, ``k_+`` for ``beta < 0``) is divided by its signed power
  ``k^q``, ``q = min(|m|, |m+1|)``, which removes the structural zero of
  order ``q`` at ``e = 0`` exactly;
* every column is then scaled to unit norm, so no column is lost to
  rounding however far the orders push ``J`` and ``K`` apart.

At ``beta = 0`` the two spin channels decouple and each 2x2 channel is
scanned on its own, so levels shared by both channels are not lost to
an even-order touch of the product.

Roots are bracketed on a grid uniform in ``sqrt(e - e_bottom)`` (level
spacing grows towards the window top) and refined with ``brentq``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, jvp, kv, kve

GRID_POINTS = 4000


def _unit_columns(*columns: np.ndarray) -> np.ndarray:
    return np.stack([c / np.linalg.norm(c, axis=-1, keepdims=True) for c in columns], -1)


def _scaled_k(n: int, z: np.ndarray) -> np.ndarray:
    """K_n(z) times exp(Re z): keeps deep wells representable."""
    return kve(n, z) * np.exp(-1j * z.imag)


def matching_det(m: int, v: float, beta: float, e: np.ndarray) -> np.ndarray:
    """Equilibrated matching determinant at the energies ``e``."""
    e = np.asarray(e, dtype=float)
    root = np.sqrt(e + 0.25 * beta * beta)
    k_minus, k_plus = root - 0.5 * beta, root + 0.5 * beta
    z = np.sqrt(v - e - 0.25 * beta * beta) + 0.5j * beta
    k = {n: _scaled_k(n, z) for n in (m - 1, m, m + 1, m + 2)}
    dk_m = -0.5 * z * (k[m - 1] + k[m + 1])
    dk_m1 = -0.5 * z * (k[m] + k[m + 2])

    def j_column(kk: np.ndarray, sign: float) -> np.ndarray:
        # rows: u, u', w, w' at r = 1; the k_+ wave enters w with a minus sign
        return np.stack(
            [jv(m, kk), kk * jvp(m, kk), sign * jv(m + 1, kk), sign * kk * jvp(m + 1, kk)], -1
        )

    col_minus = j_column(k_minus, 1.0)
    col_plus = j_column(k_plus, -1.0)
    q = min(abs(m), abs(m + 1))
    if beta > 0.0:
        col_minus = col_minus / (k_minus**q)[:, None]
    elif beta < 0.0:
        col_plus = col_plus / (k_plus**q)[:, None]
    col_c2 = -np.stack([k[m].real, dk_m.real, k[m + 1].imag, dk_m1.imag], -1)
    col_d2 = np.stack([-k[m].imag, -dk_m.imag, k[m + 1].real, dk_m1.real], -1)
    return np.linalg.det(_unit_columns(col_minus, col_plus, col_c2, col_d2))


def channel_det(order: int, v: float, e: np.ndarray) -> np.ndarray:
    """Equilibrated 2x2 determinant of one spin channel at beta = 0."""
    e = np.asarray(e, dtype=float)
    k = np.sqrt(e)
    kappa = np.sqrt(v - e)
    inner = np.stack([jv(order, k), k * jvp(order, k)], -1)
    outer = np.stack(
        [kve(order, kappa), -0.5 * kappa * (kve(order - 1, kappa) + kve(order + 1, kappa))], -1
    )
    inner = inner / np.linalg.norm(inner, axis=-1, keepdims=True)
    outer = outer / np.linalg.norm(outer, axis=-1, keepdims=True)
    return inner[:, 0] * outer[:, 1] - inner[:, 1] * outer[:, 0]


def levels(v: float, beta: float, m: int, grid_points: int = GRID_POINTS) -> list[float]:
    """All bound-state energies in the open window, ascending."""
    bottom, top = -0.25 * beta * beta, v - 0.25 * beta * beta
    span = top - bottom
    t = np.linspace(0.0, 1.0, grid_points)[1:-1]
    # plus points closing in on both window edges, where a weakly bound
    # level can sit closer to the edge than the first grid step
    edges = span * np.logspace(-12.0, -3.0, 19)
    grid = np.unique(np.concatenate([bottom + span * t * t, bottom + edges, top - edges]))
    if beta == 0.0:
        functions = [lambda e, n=n: channel_det(n, v, e) for n in (m, m + 1)]
    else:
        functions = [lambda e: matching_det(m, v, beta, e)]
        grid = grid[grid != 0.0]  # the k^q division is 0/0 exactly at e = 0
    found = []
    for func in functions:
        values = func(grid)
        for i in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)[0]:
            found.append(
                brentq(
                    lambda e: float(func(np.array([e]))[0]),
                    grid[i],
                    grid[i + 1],
                    xtol=1e-13,
                    rtol=1e-15,
                )
            )
    return sorted(found)


def radial_pair(
    v: float, beta: float, m: int, e: float, coefficients, r: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(u, w, u', w') of a state with coefficients (c1, c2, d1, d2) at radii r.

    Interior (r < 1): u = c1 f1(m) + d1 g1(m), w = c1 g1(m+1) + d1 f1(m+1)
    with f1 = (J(k_- r) + J(k_+ r)) / 2 and g1 = (J(k_- r) - J(k_+ r)) / 2.
    Exterior (r >= 1): u = c2 Re K_m + d2 Im K_m, w = c2 Im K_{m+1} - d2 Re K_{m+1}
    at K(k r), k = sqrt(v - e - beta^2/4) + i beta/2.
    """
    c1, c2, d1, d2 = coefficients
    r = np.asarray(r, dtype=float)
    root = np.sqrt(e + 0.25 * beta * beta)
    k_minus, k_plus = root - 0.5 * beta, root + 0.5 * beta
    k_out = np.sqrt(v - e - 0.25 * beta * beta) + 0.5j * beta
    inside = r < 1.0

    def interior(n: int):
        a, b = jv(n, k_minus * r), jv(n, k_plus * r)
        da, db = k_minus * jvp(n, k_minus * r), k_plus * jvp(n, k_plus * r)
        return 0.5 * (a + b), 0.5 * (a - b), 0.5 * (da + db), 0.5 * (da - db)

    def exterior(n: int):
        z = k_out * np.where(inside, 1.0, r)
        value = kv(n, z)
        deriv = -0.5 * k_out * (kv(n - 1, z) + kv(n + 1, z))
        return value.real, value.imag, deriv.real, deriv.imag

    f, g, df, dg = interior(m)
    f1, g1, df1, dg1 = interior(m + 1)
    u_in, du_in = c1 * f + d1 * g, c1 * df + d1 * dg
    w_in, dw_in = c1 * g1 + d1 * f1, c1 * dg1 + d1 * df1
    f, g, df, dg = exterior(m)
    f1, g1, df1, dg1 = exterior(m + 1)
    u_out, du_out = c2 * f + d2 * g, c2 * df + d2 * dg
    w_out, dw_out = c2 * g1 - d2 * f1, c2 * dg1 - d2 * df1
    return (
        np.where(inside, u_in, u_out),
        np.where(inside, w_in, w_out),
        np.where(inside, du_in, du_out),
        np.where(inside, dw_in, dw_out),
    )


def edge_mismatch(v: float, beta: float, m: int, e: float, coefficients) -> float:
    """Largest continuity mismatch of (u, u', w, w') at r = 1, each scaled
    by max(|inside|, |outside|, 1)."""
    inner = radial_pair(v, beta, m, e, coefficients, np.array([np.nextafter(1.0, 0.0)]))
    outer = radial_pair(v, beta, m, e, coefficients, np.array([1.0]))
    return max(
        float(abs(a[0] - b[0]) / max(abs(a[0]), abs(b[0]), 1.0)) for a, b in zip(inner, outer)
    )
