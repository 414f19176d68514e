"""The commands whose output ``tests/golden`` pins, and the comparison of
an output with its golden file.

Every golden is pinned byte for byte except the ``levels`` of
``spectrum_deep.json``.  Those are a deep well's levels in full
precision, and their last digits move with numpy's SIMD loops and the
OpenBLAS kernel under ``np.linalg.det``: each is compared within
``REFINE_TOL``, the width to which the solver closes its brackets.  Every
other byte of that file, its other fields and its layout, is compared
exactly.  ``tests/test_cli.py`` runs the registry in process; run from
the repository root with the package installed,

    python tests/golden_check.py

runs every registered command through the installed ``rashbadot``
console script, names each output that differs from its golden and
exits nonzero if any does.  The file is not a test module: pytest does
not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from rashbadot.spectral_solver import REFINE_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"
# the goldens whose "levels" are pinned by value, within REFINE_TOL
LEVELS_BY_VALUE = {"spectrum_deep.json"}

# the commands whose stdout tests/golden pins, and the file of each
GOLDEN_COMMANDS = [
    (["table"], "table.csv"),
    (["sweep", "--v", "25", "--beta-range", "0:10:2.5", "--m-list", "0,1,2"], "sweep.csv"),
    (["spectrum", "--v", "25", "--beta", "5", "--m", "0"], "spectrum.csv"),
    (
        ["spectrum", "--physical", "--m", "0", "--effective-mass", "0.067"]
        + ["--dot-radius", "12.5", "--well-depth", "180", "--rashba-coefficient", "32"],
        "spectrum_physical.csv",
    ),
    (
        # a deep well: its scan takes J in all three regimes, at k_- from
        # -50 to 42, K on the 6-node rung (|z| >= 50), and its brackets
        # two probe rounds
        ["spectrum", "--v", "6000", "--beta", "100", "--m", "8"],
        "spectrum_deep.csv",
    ),
    (
        # the same levels in full precision, within REFINE_TOL
        ["spectrum", "--v", "6000", "--beta", "100", "--m", "8", "--format", "json"],
        "spectrum_deep.json",
    ),
    (
        ["wavefunction", "--v", "100", "--beta", "2", "--m", "1", "--level", "2"]
        + ["--rmax", "3", "--samples", "300"],
        "wavefunction.csv",
    ),
    (
        # the symmetry partner of the one above: negative odd orders
        ["wavefunction", "--v", "100", "--beta", "-2", "--m", "-2", "--level", "2"]
        + ["--rmax", "3", "--samples", "300"],
        "wavefunction_partner.csv",
    ),
    (
        # a deep level whose exterior samples cross the K lane cuts 14.5
        # and 25 and the point cuts 13 and 25 (|z| from 11.0 to 33.1)
        ["wavefunction", "--v", "400", "--beta", "6", "--m", "2", "--level", "8"]
        + ["--rmax", "3", "--samples", "300"],
        "wavefunction_deep.csv",
    ),
    (
        # the top level of its window, |kappa| = 2.79: its exterior samples
        # cross the K point cuts 3, 7.5 and 13 (|z| from 2.79 to 13.93)
        ["wavefunction", "--v", "50", "--beta", "5", "--m", "-3", "--level", "2"]
        + ["--rmax", "5", "--samples", "300"],
        "wavefunction_window_top.csv",
    ),
    (
        # a level below e = 0 (e = -97.84): k_- = -8.53, so its interior
        # samples take J at negative arguments, in the series and Miller
        # regimes
        ["wavefunction", "--v", "100", "--beta", "20", "--m", "2", "--level", "0"]
        + ["--rmax", "3", "--samples", "300"],
        "wavefunction_negative_k.csv",
    ),
]


def matches_golden(name: str, text: str) -> bool:
    """Whether ``text`` matches the golden file ``name``."""
    golden = (GOLDEN / name).read_bytes().decode()
    if name not in LEVELS_BY_VALUE:
        return text == golden
    pinned = json.loads(golden)
    levels = json.loads(text)["levels"]
    close = len(levels) == len(pinned["levels"]) and all(
        abs(got - want) <= REFINE_TOL for got, want in zip(levels, pinned["levels"])
    )
    # every other byte: the golden as the CLI writes it, with these levels
    return close and text == json.dumps({**pinned, "levels": levels}, indent=2) + "\n"


def main() -> int:
    """Run each registered command through the installed console script;
    1 if any output differs from its golden, else 0."""
    failed = False
    for argv, name in GOLDEN_COMMANDS:
        result = subprocess.run(["rashbadot", *argv], stdout=subprocess.PIPE)
        if result.returncode:
            problem = f"exit status {result.returncode}"
        elif not matches_golden(name, result.stdout.decode()):
            problem = f"output differs from tests/golden/{name}"
        else:
            continue
        failed = True
        print(f"rashbadot {' '.join(argv)}: {problem}", file=sys.stderr)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
