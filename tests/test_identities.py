"""Exact identities of the system as oracles of the solver.

At beta = 0 the level count follows from the zeros of J alone
(``conftest.uncoupled_level_count``): a spectrum that drops a level, or
reports one twice, fails it at any depth, without a second solver.

At any beta the well depth v enters the Hamiltonian only as the step
v * theta(r - 1), so by Hellmann-Feynman de/dv of a level is the weight
of its density outside the well: the slope of the spectrum in v checks
the closed-form region integrals of ``wavefunction``.
"""

import pytest

from conftest import DEEP_WELLS, uncoupled_level_count
from rashbadot.radial_basis import DotParameters
from rashbadot.reference_levels import REFERENCE_ROWS
from rashbadot.spectral_solver import find_spectrum
from rashbadot.wavefunction import region_density_integrals, solve_coefficients

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


@pytest.mark.parametrize("v", [100.0, 2500.0, 1e4, 4e4])
def test_large_angular_numbers(v):
    # channel orders up to 49 (m = 48 and its partner m = -49), below the
    # K overflow at the window top that makes m >= 49 raise: 0 to 108
    # levels a well, none at v = 100
    assert count_mismatches([(v, m) for m in (20, 30, 40, 45, 48, -41, -49)]) == []


def hellmann_feynman_gaps(wells, h: float) -> list[float]:
    """|de/dv - weight outside| of every level of ``wells``: de/dv from the
    4-point central difference of the spectra at v - 2h .. v + 2h, the
    weight from ``region_density_integrals`` of the level's state."""
    gaps = []
    for v, beta, m in wells:
        params = DotParameters(v=v, beta=beta, m=m)
        levels = find_spectrum(params).levels
        shifted = [find_spectrum(DotParameters(v + k * h, beta, m)).levels for k in (-2, -1, 1, 2)]
        assert all(len(near) == len(levels) for near in shifted), (v, beta, m)
        for e, (e_2, e_1, e1, e2) in zip(levels, zip(*shifted)):
            slope = (e_2 - 8.0 * e_1 + 8.0 * e1 - e2) / (12.0 * h)
            inside, outside = region_density_integrals(solve_coefficients(params, e))
            gaps.append(abs(slope - outside / (inside + outside)))
    return gaps


@pytest.mark.parametrize(
    "wells,h,tol",
    [
        # 139 levels: the step balances the stencil's h^4 error against the
        # levels' 1e-12 refinement, 1.41e-9 measured at h = 0.01
        ([(row.v, row.beta, row.m) for row in REFERENCE_ROWS], 0.01, 2e-9),
        # 330 levels of v = 2500 to 1e4, 2.35e-11 measured at h = 0.1
        (DEEP_WELLS, 0.1, 5e-11),
    ],
    ids=["reference_rows", "deep_wells"],
)
def test_level_slope_in_depth_is_the_weight_outside(wells, h, tol):
    assert max(hellmann_feynman_gaps(wells, h)) < tol
