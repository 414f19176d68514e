"""Seeded inputs for the three workloads.

Every value handed to ``rashbadot`` is a plain Python ``float`` or
``int``, the types argparse gives the command line.  numpy scalars are
kept out on purpose: with numpy 2, ``(n < 0) + negative_x`` inside
``bessel_j_many`` is a logical OR of two numpy bools, so
``bessel_j(np.int64(-3), -2.5)`` returns -0.2166 instead of +0.2166 and
a ``np.float64`` beta gives wrong spectra.
"""

from __future__ import annotations

import math
import random

from rashbadot.reference_levels import REFERENCE_ROWS

DEEP_SPECTRA = 32  # a power of two keeps the Sobol' points balanced
DEEP_V_RANGE = (2.5e3, 1.0e4)
DEEP_BETA_FACTOR_MAX = 2.0  # beta / sqrt(v)
DEEP_M_RANGE = (-12, 11)  # inclusive
PROFILE_RMAX = 3.0  # the CLI ``wavefunction`` defaults
PROFILE_SAMPLES = 300
RESIDUAL_RADII_INSIDE = 3
RESIDUAL_RADII_OUTSIDE = 2


def table_items(seed: int) -> list[dict]:
    """The 36 reference rows, in a seeded order."""
    items = [
        {"v": float(row.v), "beta": float(row.beta), "m": int(row.m), "row": index}
        for index, row in enumerate(REFERENCE_ROWS)
    ]
    random.Random(seed).shuffle(items)
    return items


def deep_sweep_items(seed: int, n: int = DEEP_SPECTRA) -> list[dict]:
    """Deep wells: v log-uniform, beta / sqrt(v) uniform, m a uniform integer.

    The points are a scrambled Sobol' sequence rather than independent
    draws: every seed then covers the whole parameter box evenly, so the
    cost of a pass varies little between seeds while the spectra differ.
    """
    from scipy.stats import qmc

    log_lo, log_hi = math.log(DEEP_V_RANGE[0]), math.log(DEEP_V_RANGE[1])
    m_lo, m_hi = DEEP_M_RANGE
    items = []
    for a, b, c in qmc.Sobol(d=3, scramble=True, seed=seed).random(n).tolist():
        v = math.exp(log_lo + a * (log_hi - log_lo))
        items.append(
            {
                "v": v,
                "beta": b * DEEP_BETA_FACTOR_MAX * math.sqrt(v),
                "m": m_lo + int(c * (m_hi - m_lo + 1)),
            }
        )
    return items


def states_items(seed: int, oracle_levels: dict[int, list[float]]) -> list[dict]:
    """Every level of every reference row (energies from the oracle), with
    seeded ODE-residual radii, in a seeded order."""
    rng = random.Random(seed)
    items = []
    for index, row in enumerate(REFERENCE_ROWS):
        for level, e in enumerate(oracle_levels[index]):
            radii = [rng.uniform(0.05, 0.95) for _ in range(RESIDUAL_RADII_INSIDE)]
            radii += [rng.uniform(1.05, PROFILE_RMAX) for _ in range(RESIDUAL_RADII_OUTSIDE)]
            items.append(
                {
                    "v": float(row.v),
                    "beta": float(row.beta),
                    "m": int(row.m),
                    "e": float(e),
                    "row": index,
                    "level": level,
                    "radii": radii,
                }
            )
    rng.shuffle(items)
    return items


def profile_radii() -> list[float]:
    """The radii of ``rashbadot wavefunction --rmax 3 --samples 300``."""
    step = PROFILE_RMAX / (PROFILE_SAMPLES - 1)
    return [PROFILE_RMAX if i == PROFILE_SAMPLES - 1 else i * step for i in range(PROFILE_SAMPLES)]
