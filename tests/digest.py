"""sha256 digests of the solver's outputs, to check that a change keeps
every bit.

Run from the repository root, on two commits, and compare the output:

    python tests/digest.py

It prints one line per group of wells: the 36 reference rows,
``conftest.DEEP_WELLS`` and the 32 wells of each of the ``deep_sweep``
seeds 1-3 of ``bench/workloads.py``.  Each line holds the digest of the
wells' levels and of the ``equilibrated_matrix`` stacks and scales on
their scan grids, once through the lane kernels (in ``SCAN_CHUNK``
chunks, as the scan calls them) and once point by point through the
scalar kernels.  A last line digests the 139 reference states: their
coefficients, their 300-point profiles (the CLI ``wavefunction``
defaults) and their ODE residuals at the ``states`` workload's radii of
seed 1.  The header names the numpy version, the BLAS and the AVX-512
groups numpy runs, since the bits may differ between them; setting
``NPY_DISABLE_CPU_FEATURES`` to those groups reruns the check under
numpy's AVX2 loops.  The file is not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from conftest import DEEP_WELLS  # noqa: E402
from workloads import deep_sweep_items, profile_radii, states_items  # noqa: E402

from rashbadot.radial_basis import WINDOW_MARGIN, DotParameters  # noqa: E402
from rashbadot.reference_levels import REFERENCE_ROWS  # noqa: E402
from rashbadot.spectral_solver import (  # noqa: E402
    SCAN_CHUNK,
    equilibrated_matrix,
    find_spectrum,
    scan_grid,
)
from rashbadot.wavefunction import (  # noqa: E402
    evaluate_radial,
    normalize,
    ode_residual,
    solve_coefficients,
)


def _sha(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return digest.hexdigest()[:16]


def _grid(params: DotParameters) -> np.ndarray:
    lo, hi = params.window
    return scan_grid(lo + WINDOW_MARGIN, hi - WINDOW_MARGIN, params.beta)


def _lane_stacks(params: DotParameters):
    grid = _grid(params)
    for i in range(0, len(grid), SCAN_CHUNK):
        yield from equilibrated_matrix(params, grid[i : i + SCAN_CHUNK])


def _scalar_stacks(params: DotParameters):
    for e in _grid(params).tolist():
        yield from equilibrated_matrix(params, e)


def _environment() -> list[str]:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    avx512 = [
        f for f in __cpu_dispatch__ if __cpu_features__.get(f) and ("512" in f or f == "X86_V4")
    ]
    return [
        f"python {sys.version.split()[0]}, numpy {np.__version__}",
        f"blas {blas.get('name')} {blas.get('version')}",
        f"avx512 groups enabled: {' '.join(avx512) or 'none'}",
    ]


def main() -> None:
    rows = [DotParameters(row.v, row.beta, row.m) for row in REFERENCE_ROWS]
    groups = {
        "reference rows": rows,
        "DEEP_WELLS": [DotParameters(*well) for well in DEEP_WELLS],
    }
    for seed in (1, 2, 3):
        items = deep_sweep_items(seed)
        groups[f"deep_sweep {seed}"] = [DotParameters(i["v"], i["beta"], i["m"]) for i in items]
    for line in _environment():
        print("#", line)
    print(f"{'group':<16} {'levels':>5}  {'levels sha':<16}  {'lane stacks':<16}  scalar stacks")
    for name, wells in groups.items():
        levels = [find_spectrum(params).levels for params in wells]
        lane = _sha(stack for params in wells for stack in _lane_stacks(params))
        scalar = _sha(stack for params in wells for stack in _scalar_stacks(params))
        count = sum(map(len, levels))
        print(f"{name:<16} {count:>5}  {_sha(levels)}  {lane}  {scalar}")

    reference = {i: list(find_spectrum(params).levels) for i, params in enumerate(rows)}
    profile = profile_radii()
    coefficients, samples, residuals = [], [], []
    for item in states_items(1, reference):
        params = rows[item["row"]]
        state = normalize(solve_coefficients(params, item["e"]))
        coefficients.append(state.coefficients)
        samples.extend(evaluate_radial(state, r) for r in profile)
        residuals.extend(ode_residual(state, r) for r in item["radii"])
    print(
        f"{'states':<16} {len(coefficients):>5}  coefficients {_sha(coefficients)}  "
        f"profiles {_sha(samples)}  residuals {_sha(residuals)}"
    )


if __name__ == "__main__":
    main()
