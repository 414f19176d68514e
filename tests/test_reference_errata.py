"""Certificate for the six errata of the embedded reference table.

``KNOWN_VALUE_DEFECTS`` (three digit typos) and ``KNOWN_MISSING_LEVELS``
(three weakly bound levels just below the continuum edge, omitted from
their rows) are checked against the finite-difference eigensolver in
``oracle_fd``, which discretizes the radial Hamiltonian and shares no
code with the matching-determinant solver.  Control rows that the table
prints correctly show that the oracle follows the paper's conventions.
"""

import pytest

pytest.importorskip("scipy")

from oracle_fd import bound_levels
from rashbadot.reference_levels import (
    KNOWN_MISSING_LEVELS,
    KNOWN_VALUE_DEFECTS,
    REFERENCE_ROWS,
    corrected_levels,
)

TOLERANCE = 0.01
# a printed typo must be this far from the oracle, several times the tolerance
TYPO_SEPARATION = 0.05
ROWS = {(row.m, row.v, row.beta_factor): row for row in REFERENCE_ROWS}
# (1, 100, 0.2) holds the 37.08 level of the paper's Fig. 1
CONTROL_ROWS = ((0, 25.0, 0.0), (0, 25.0, 1.0), (1, 100.0, 0.2))


def oracle_levels(key):
    row = ROWS[key]
    return bound_levels(row.m, row.v, row.beta)


@pytest.mark.parametrize("cell", sorted(KNOWN_VALUE_DEFECTS), ids=str)
def test_value_defect_is_a_typo(cell):
    m, v, factor, index = cell
    row = ROWS[(m, v, factor)]
    levels = oracle_levels((m, v, factor))
    assert len(levels) == len(row.levels)
    assert abs(levels[index] - KNOWN_VALUE_DEFECTS[cell]) <= TOLERANCE
    assert abs(levels[index] - row.levels[index]) >= TYPO_SEPARATION
    for other, printed in enumerate(row.levels):
        if other != index:
            assert abs(levels[other] - printed) <= TOLERANCE, other


@pytest.mark.parametrize("key", sorted(KNOWN_MISSING_LEVELS), ids=str)
def test_missing_level_is_bound(key):
    row = ROWS[key]
    levels = oracle_levels(key)
    expected = corrected_levels(row)
    assert len(levels) == len(row.levels) + 1 == len(expected)
    for got, want in zip(levels, expected):
        assert abs(got - want) <= TOLERANCE, (got, want)
    # a box level below the continuum edge bounds a level of the open dot
    edge = row.v - 0.25 * row.beta**2
    for missing in KNOWN_MISSING_LEVELS[key]:
        extra = min(levels, key=lambda e: abs(e - missing))
        assert extra < edge


@pytest.mark.parametrize("key", CONTROL_ROWS, ids=str)
def test_control_row_matches_printed(key):
    row = ROWS[key]
    levels = oracle_levels(key)
    assert len(levels) == len(row.levels)
    for got, printed in zip(levels, row.levels):
        assert abs(got - printed) <= TOLERANCE, (got, printed)
