"""Bound states of a finite-depth circular quantum dot with Rashba
spin-orbit coupling.

The solver matches interior Bessel-function solutions to exterior
modified-Bessel solutions at the well edge; the zeros of the resulting
4x4 determinant inside the energy window are the bound-state levels.

Quick start::

    from rashbadot import DotParameters, find_spectrum
    from rashbadot import solve_coefficients, normalize

    params = DotParameters(v=100.0, beta=2.0, m=1)
    spectrum = find_spectrum(params)
    state = normalize(solve_coefficients(params, spectrum.levels[2]))
"""

from . import errors
from .radial_basis import DotParameters
from .spectral_solver import EnergySpectrum, find_spectrum
from .wavefunction import (
    BoundState,
    SpinorSample,
    evaluate_radial,
    evaluate_spinor,
    normalize,
    ode_residual,
    solve_coefficients,
)

__all__ = [
    "BoundState",
    "DotParameters",
    "EnergySpectrum",
    "SpinorSample",
    "errors",
    "evaluate_radial",
    "evaluate_spinor",
    "find_spectrum",
    "normalize",
    "ode_residual",
    "solve_coefficients",
]
__version__ = "0.1.0"
