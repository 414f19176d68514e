"""Exact identities of the system as oracles of the solver.

At beta = 0 the level count follows from the zeros of J alone
(``conftest.uncoupled_level_count``): a spectrum that drops a level, or
reports one twice, fails it at any depth, without a second solver.

At any beta the well depth v enters the Hamiltonian only as the step
v * theta(r - 1), so by Hellmann-Feynman de/dv of a level is the weight
of its density outside the well: the slope of the spectrum in v checks
the closed-form region integrals of ``wavefunction``.  It checks only
their ratio.

The absolute norm is checked by scaling.  Moving the well edge from
r = 1 to R scales the kinetic term as R^-2 and the Rashba term as R^-1,
and moves a level by -v (u(1)^2 + w(1)^2) per unit R, the density at the
edge of the normalized state (Hellmann-Feynman in the position of the
step).  At R = 1 this is the virial identity of a step potential
(V. Fock, Z. Phys. 63, 855 (1930)):

    2 e - 2 v de/dv - beta de/dbeta = v (u(1)^2 + w(1)^2).
"""

from dataclasses import replace
from functools import cache

import pytest

from conftest import DEEP_WELLS, uncoupled_level_count
from rashbadot.radial_basis import DotParameters
from rashbadot.reference_levels import REFERENCE_ROWS
from rashbadot.spectral_solver import find_spectrum
from rashbadot.wavefunction import (
    evaluate_radial,
    normalize,
    region_density_integrals,
    solve_coefficients,
)

# the shifts of a 4-point central difference, in steps h
STENCIL = (-2, -1, 1, 2)

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


@cache
def spectrum_levels(v: float, beta: float, m: int) -> list[float]:
    """The levels of (v, beta, m), solved once for all the tests that
    difference spectra."""
    return find_spectrum(DotParameters(v, beta, m)).levels


def level_slopes(levels, shifted, h: float) -> list[float]:
    """de/dx of every level by the 4-point central difference, from the
    spectra ``shifted`` at x - 2h, x - h, x + h and x + 2h."""
    assert all(len(near) == len(levels) for near in shifted)
    return [(e_2 - 8.0 * e_1 + 8.0 * e1 - e2) / (12.0 * h) for e_2, e_1, e1, e2 in zip(*shifted)]


def hellmann_feynman_gaps(wells, h: float) -> list[float]:
    """|de/dv - weight outside| of every level of ``wells``: de/dv from the
    spectra at v - 2h .. v + 2h, the weight from
    ``region_density_integrals`` of the level's state."""
    gaps = []
    for v, beta, m in wells:
        params = DotParameters(v=v, beta=beta, m=m)
        levels = spectrum_levels(v, beta, m)
        shifted = [spectrum_levels(v + k * h, beta, m) for k in STENCIL]
        for e, slope in zip(levels, level_slopes(levels, shifted, h)):
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


def scaling_gaps(wells, h_v: float, h_beta: float, scale: float = 1.0) -> list[float]:
    """|2e - 2v de/dv - beta de/dbeta - v rho(1)| / (v rho(1)) of every
    level of ``wells``: the slopes from the spectra at steps ``h_v`` in v
    and ``h_beta`` in beta, rho(1) = u(1)^2 + w(1)^2 from the level's
    normalized state with its coefficients times ``scale``."""
    gaps = []
    for v, beta, m in wells:
        params = DotParameters(v=v, beta=beta, m=m)
        levels = spectrum_levels(v, beta, m)
        in_depth = [spectrum_levels(v + k * h_v, beta, m) for k in STENCIL]
        in_strength = [spectrum_levels(v, beta + k * h_beta, m) for k in STENCIL]
        slopes = zip(level_slopes(levels, in_depth, h_v), level_slopes(levels, in_strength, h_beta))
        for e, (de_dv, de_dbeta) in zip(levels, slopes):
            state = normalize(solve_coefficients(params, e))
            scaled = {name: scale * getattr(state, name) for name in ("a", "c2", "b", "d2")}
            edge = evaluate_radial(replace(state, **scaled), 1.0)
            density = v * (edge.u**2 + edge.w**2)
            gaps.append(abs(2.0 * e - 2.0 * v * de_dv - beta * de_dbeta - density) / density)
    return gaps


@pytest.mark.parametrize(
    "wells,h_v,h_beta,tol",
    [
        # 139 levels, 3.66e-9 measured (median 1.1e-10); the steps of the
        # Hellmann-Feynman test in v
        ([(row.v, row.beta, row.m) for row in REFERENCE_ROWS], 0.01, 0.001, 6e-9),
        # 330 levels, 6.39e-9 measured (median 1.8e-11); at h_v = 0.1 the
        # levels' 1e-12 refinement makes it 2.3e-8
        (DEEP_WELLS, 0.3, 0.015, 1e-8),
    ],
    ids=["reference_rows", "deep_wells"],
)
def test_scaling_identity_checks_the_absolute_norm(wells, h_v, h_beta, tol):
    assert max(scaling_gaps(wells, h_v, h_beta)) < tol
    # a norm 1e-6 too large makes the edge density 2e-6 too large, which
    # the identity sees at every level
    assert min(scaling_gaps(wells, h_v, h_beta, scale=1.0 + 1e-6)) > 100.0 * tol
