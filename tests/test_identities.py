"""Exact identities of the system as oracles of the solver.

At beta = 0 the level count follows from the zeros of J alone
(``conftest.uncoupled_level_count``): a spectrum that drops a level, or
reports one twice, fails it at any depth, without a second solver.
"""

import pytest

from conftest import uncoupled_level_count
from rashbadot.radial_basis import DotParameters
from rashbadot.spectral_solver import find_spectrum

pytest.importorskip("scipy")


def count_mismatches(wells) -> list[tuple]:
    """(v, m, levels found, levels the identity counts) of every well
    whose spectrum disagrees with the identity."""
    out = []
    for v, m in wells:
        found = len(find_spectrum(DotParameters(v=v, beta=0.0, m=m)).levels)
        expected = uncoupled_level_count(v, m)
        if found != expected:
            out.append((v, m, found, expected))
    return out


def test_fixed_depths():
    wells = [(v, m) for v in (0.5, 3.0, 25.0, 100.0, 400.0, 2500.0) for m in range(-6, 6)]
    assert count_mismatches(wells) == []


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_wells_either_side_of_a_threshold(n):
    # a level of order n enters at the window top where sqrt(v) crosses a
    # zero of J_{n-1}; order n is the u channel of m = n and the w channel
    # of m = -n - 1
    from scipy.special import jn_zeros

    for zero in jn_zeros(n - 1, 10)[[0, 2, 9]]:
        for m in (n, -n - 1):
            wells = [(zero**2 - 1e-4, m), (zero**2 + 1e-4, m)]
            assert count_mismatches(wells) == []
            # the identity counts the level that entered at the zero
            assert uncoupled_level_count(*wells[1]) == uncoupled_level_count(*wells[0]) + 1


@pytest.mark.parametrize("m", [0, 3, -7, 40])
@pytest.mark.parametrize("v", [1e5, 3e5, 1e6])
def test_deep_whole_windows(v, m):
    # the whole window, 201 to 637 levels, with no clamp on the scan
    assert count_mismatches([(v, m)]) == []
