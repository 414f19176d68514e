"""Embedded reference energy levels for the standard parameter grid.

The grid covers well depths v in {25, 49, 100} with Rashba strengths
beta = factor * sqrt(v) for factor in {0, 0.2, 1, 2} (computed as exact
multiples, e.g. 0.2 * sqrt(49) = 1.4) and angular numbers m in
{0, 1, 2}.  Reference values are given to two decimals; rows are
ordered m-major, then v, then beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ReferenceRow:
    m: int
    v: float
    beta_factor: float
    levels: tuple[float, ...]

    @property
    def beta(self) -> float:
        return self.beta_factor * math.sqrt(self.v)


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    # m = 0
    ReferenceRow(0, 25.0, 0.0, (3.98, 9.94, 19.61)),
    ReferenceRow(0, 25.0, 0.2, (3.49, 9.81, 19.15)),
    ReferenceRow(0, 25.0, 1.0, (-4.40, 2.83, 13.40)),
    ReferenceRow(0, 25.0, 2.0, (-23.25, -18.31, -9.67)),
    ReferenceRow(0, 49.0, 0.0, (4.41, 11.13, 22.75, 35.91)),
    ReferenceRow(0, 49.0, 0.2, (3.49, 11.03, 21.87, 35.79)),
    ReferenceRow(0, 49.0, 1.0, (-10.40, -3.71, 9.55, 24.22)),
    ReferenceRow(0, 49.0, 2.0, (-47.11, -41.45, -32.19, -19.60, -2.25)),
    ReferenceRow(0, 100.0, 0.0, (4.77, 12.09, 24.97, 40.08, 60.28, 81.84)),
    ReferenceRow(0, 100.0, 0.2, (2.97, 11.75, 23.30, 39.73, 58.65, 81.42)),
    ReferenceRow(0, 100.0, 1.0, (-21.91, -16.95, -4.88, 14.82, 35.04, 56.69)),
    ReferenceRow(0, 100.0, 2.0, (-97.96, -91.83, -81.75, -67.58, -49.91, -28.53, -1.66)),
    # m = 1
    ReferenceRow(1, 25.0, 0.0, (9.94, 17.46)),
    ReferenceRow(1, 25.0, 0.2, (9.02, 17.85)),
    ReferenceRow(1, 25.0, 1.0, (-2.52, 9.26)),
    ReferenceRow(1, 25.0, 2.0, (-23.22, -17.29, -4.85)),
    ReferenceRow(1, 49.0, 0.0, (11.13, 19.85, 35.91)),
    ReferenceRow(1, 49.0, 0.2, (9.41, 20.50, 34.28)),
    ReferenceRow(1, 49.0, 1.0, (-9.62, 1.84, 20.95, 36.73)),
    ReferenceRow(1, 49.0, 2.0, (-47.04, -41.12, -31.51, -13.33)),
    ReferenceRow(1, 100.0, 0.0, (12.09, 21.66, 40.08, 57.25, 81.84)),
    ReferenceRow(1, 100.0, 0.2, (8.85, 22.59, 37.08, 58.13, 79.02)),
    ReferenceRow(1, 100.0, 1.0, (-22.91, -14.79, 4.24, 31.61, 55.83, 74.93)),
    ReferenceRow(1, 100.0, 2.0, (-97.91, -91.72, -81.26, -66.83, -48.24, -17.86)),
    # m = 2
    ReferenceRow(2, 25.0, 0.0, (17.46,)),
    ReferenceRow(2, 25.0, 0.2, (16.13,)),
    ReferenceRow(2, 25.0, 1.0, (1.30, 16.08)),
    ReferenceRow(2, 25.0, 2.0, (-22.86, -13.35, -0.20)),
    ReferenceRow(2, 49.0, 0.0, (19.85, 30.35)),
    ReferenceRow(2, 49.0, 0.2, (17.37, 31.72)),
    ReferenceRow(2, 49.0, 1.0, (-6.88, 10.11, 32.20)),
    ReferenceRow(2, 49.0, 2.0, (-44.83, -40.77, -26.05, -4.15)),
    ReferenceRow(2, 100.0, 0.0, (21.66, 33.34, 57.25, 76.20)),
    ReferenceRow(2, 100.0, 0.2, (17.08, 35.51, 52.95, 78.21)),
    ReferenceRow(2, 100.0, 1.0, (-22.12, -8.70, 16.99, 49.86, 74.91)),
    ReferenceRow(2, 100.0, 2.0, (-97.84, -91.39, -80.29, -65.52, -37.69, -3.45)),
)

# Cells where the embedded reference disagrees with the solved spectrum.
# The reference is kept verbatim; ``corrected_levels`` applies these
# errata, and ``rashbadot table`` compares with its result.
# tests/test_reference_errata.py certifies every entry below against the
# finite-difference eigensolver of the coupled radial system in
# tests/oracle_fd.py: its levels lie within 0.01 of the values below,
# 0.05 or more from each printed typo, and each missing level lies below
# the window top v - beta^2/4.  bench/oracle.py, a scipy build of the
# matching determinant, agrees as well.  The missing levels sit just
# below the window top, where new states emerge as beta grows (the
# next-larger beta rows list them).
KNOWN_VALUE_DEFECTS: dict[tuple[int, float, float, int], float] = {
    # (m, v, beta_factor, level_index): solver value (2 decimals)
    (0, 25.0, 0.2, 1): 9.91,
    (0, 100.0, 1.0, 0): -22.91,
    (2, 49.0, 2.0, 0): -46.83,
}
KNOWN_MISSING_LEVELS: dict[tuple[int, float, float], tuple[float, ...]] = {
    # (m, v, beta_factor): near-threshold levels absent from the reference row
    (1, 49.0, 0.2): (48.50,),
    (2, 49.0, 0.2): (47.02,),
    (2, 100.0, 0.2): (98.74,),
}


def corrected_levels(row: ReferenceRow) -> tuple[float, ...]:
    """The printed levels of a reference row with its certified errata:
    ``KNOWN_VALUE_DEFECTS`` substituted, ``KNOWN_MISSING_LEVELS`` merged in
    ascending order."""
    key = (row.m, row.v, row.beta_factor)
    levels = [
        KNOWN_VALUE_DEFECTS.get(key + (index,), printed)
        for index, printed in enumerate(row.levels)
    ]
    return tuple(sorted(levels + list(KNOWN_MISSING_LEVELS.get(key, ()))))
