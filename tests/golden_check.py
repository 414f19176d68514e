"""Compare a command's output with its golden file in ``tests/golden``.

Every golden is pinned byte for byte except the ``levels`` of
``spectrum_deep.json``.  Those are a deep well's levels in full
precision, and their last digits move with numpy's SIMD loops and the
OpenBLAS kernel under ``np.linalg.det``: each is compared within
``REFINE_TOL``, the width to which the solver closes its brackets.  Every
other byte of that file, its other fields and its layout, is compared
exactly.  Run from the repository root with the package importable:

    rashbadot spectrum --v 6000 --beta 100 --m 8 --format json \\
        | python tests/golden_check.py spectrum_deep.json

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from rashbadot.spectral_solver import REFINE_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"
# the goldens whose "levels" are pinned by value, within REFINE_TOL
LEVELS_BY_VALUE = {"spectrum_deep.json"}


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


if __name__ == "__main__":
    (name,) = sys.argv[1:]
    if not matches_golden(name, sys.stdin.buffer.read().decode()):
        sys.exit(f"output differs from tests/golden/{name}")
