"""Output checks.  Each adds to a ``Verdict``: the number of wrong output
values, the items that failed, and the failures that no documented
defect explains (any of those makes the run incorrect)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle

LEVEL_RTOL = 1e-6  # the CLI prints 6 significant digits
SHIFT_RTOL = 1e-2  # a missing and an extra level this close are one shifted level
TABLE_TOLERANCE = 0.01
STATE_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-6
FIG1 = {"m": 1, "v": 100.0, "beta": 2.0, "e": 37.0825}
FIG1_COEFFICIENTS = (4.22035, -4067.87, -0.7139284, 880.843)  # (c1, c2, d1, d2)
FIG1_RATIO_TOL = 1e-3


@dataclass
class Verdict:
    wrong_outputs: int = 0
    failed_items: set = field(default_factory=set)
    unexpected: list = field(default_factory=list)

    def fail(self, item: int, count: int, message: str, expected: bool = False) -> None:
        self.wrong_outputs += count
        self.failed_items.add(item)
        if not expected:
            self.unexpected.append(message)


def compare_levels(got: list[float], want: list[float]) -> list[tuple[float | None, float | None]]:
    """Disagreements as (solver, oracle) pairs: (x, None) extra, (None, y)
    missing, (x, y) shifted beyond LEVEL_RTOL."""
    extra = list(got)
    missing = []
    for y in want:
        tol = LEVEL_RTOL * max(1.0, abs(y))
        best = min(extra, key=lambda x: abs(x - y), default=None)
        if best is not None and abs(best - y) <= tol:
            extra.remove(best)
        else:
            missing.append(y)
    out = []
    for y in missing:
        best = min(extra, key=lambda x: abs(x - y), default=None)
        if best is not None and abs(best - y) <= SHIFT_RTOL * max(1.0, abs(y)):
            extra.remove(best)
            out.append((best, y))
        else:
            out.append((None, y))
    return out + [(x, None) for x in extra]


def is_documented_defect(item: dict, solver: float | None, reference: float | None) -> bool:
    """The two defects of the row-scaled determinant that the ROADMAP
    (open item 1) documents: levels lost, added or shifted in the
    structural-zero region |e| < |beta| around e = 0 when
    q = min(|m|, |m+1|) >= 1, and a pseudo-level at the last scan grid
    point, just below the window top."""
    m, v, beta = item["m"], item["v"], item["beta"]
    top = v - 0.25 * beta * beta
    values = [x for x in (solver, reference) if x is not None]
    near_zero = beta != 0.0 and min(abs(m), abs(m + 1)) >= 1 and all(abs(x) < abs(beta) for x in values)
    at_top = reference is None and top - solver <= LEVEL_RTOL * max(1.0, abs(top))
    return near_zero or at_top


def check_spectra(items, outputs, oracle_levels, verdict: Verdict, documented=None) -> None:
    """Every level against the oracle.  ``documented`` decides which
    disagreements are the known baseline defects (still counted)."""
    for index, (item, output) in enumerate(zip(items, outputs)):
        if output is None:
            continue
        for solver, reference in compare_levels(output["levels"], oracle_levels[index]):
            expected = documented is not None and documented(item, solver, reference)
            verdict.fail(
                index,
                1,
                f"(v={item['v']!r}, beta={item['beta']!r}, m={item['m']}): solver {solver}, oracle {reference}",
                expected,
            )


def check_table(items, outputs, rows, known_values, known_missing, verdict: Verdict) -> None:
    """Reference cells to 0.01, except the documented defect cells, which
    must sit at their documented solver values."""
    for index, (item, output) in enumerate(zip(items, outputs)):
        if output is None:
            continue
        row = rows[item["row"]]
        key = (row.m, row.v, row.beta_factor)
        expected = list(row.levels) + list(known_missing.get(key, ()))
        levels = output["levels"]
        if len(levels) != len(expected):
            verdict.fail(index, abs(len(levels) - len(expected)), f"row {key}: {len(levels)} levels, expected {len(expected)}")
        for cell, (got, want) in enumerate(zip(levels, expected)):
            want = known_values.get(key + (cell,), want)
            if abs(got - want) > TABLE_TOLERANCE:
                verdict.fail(index, 1, f"row {key} level {cell}: {got} vs reference {want}")


# -- states ------------------------------------------------------------------

GAUSS_ORDER = 16
INTERIOR_PANELS = 8
DECAY_LENGTHS = 20.0  # density e^{-2 kappa (r - 1)} ends below e^{-40}


def check_grid(v: float, beta: float, levels: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Fixed composite Gauss-Legendre nodes and weights for the radial
    integrals of one row's states: equal panels on [0, 1], then panels
    doubling from 0.05 up to the slowest decay's scale and the beta
    oscillation period, out to DECAY_LENGTHS of the slowest decay."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    kappa = min(math.sqrt(v - e - 0.25 * beta * beta) for e in levels)
    cap = 2.0 / kappa
    if beta != 0.0:
        cap = min(cap, 4.0 * math.pi / abs(beta))
    edges = list(np.linspace(0.0, 1.0, INTERIOR_PANELS + 1))
    width = 0.05
    while edges[-1] < 1.0 + DECAY_LENGTHS / kappa:
        width = min(2.0 * width, cap)
        edges.append(edges[-1] + width)
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    weights = 0.5 * (hi - lo) * w
    return nodes.ravel(), weights.ravel()


def check_states(items, outputs, samples, grids, profile, verdict: Verdict) -> None:
    by_row: dict[int, list[int]] = {}
    for index, (item, output) in enumerate(zip(items, outputs)):
        if output is None:
            continue
        by_row.setdefault(item["row"], []).append(index)
        where = f"state (v={item['v']}, beta={item['beta']}, m={item['m']}, e={item['e']})"
        args = (item["v"], item["beta"], item["m"], item["e"], output["coefficients"])
        if oracle.edge_mismatch(*args) > STATE_TOL:
            verdict.fail(index, 1, f"{where}: edge continuity {oracle.edge_mismatch(*args):.1e}")
        u, w, _, _ = oracle.radial_pair(*args, np.array(profile))
        scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(w))))
        gap = max(np.max(np.abs(u - output["u"])), np.max(np.abs(w - output["w"]))) / scale
        if gap > STATE_TOL:
            verdict.fail(index, 1, f"{where}: profile differs from the oracle by {gap:.1e}")
        worst = max(abs(x) for pair in output["residuals"] for x in pair)
        if worst > STATE_TOL:
            verdict.fail(index, 1, f"{where}: ODE residual {worst:.1e}")
        nodes, weights = grids[item["row"]]
        su, sw = (np.array(x) for x in samples[index])
        norm = float(np.sum(weights * nodes * (su * su + sw * sw)))
        if abs(norm - 1.0) > STATE_TOL:
            verdict.fail(index, 1, f"{where}: norm {norm!r}")
        if (item["m"], item["v"], item["beta"]) == (FIG1["m"], FIG1["v"], FIG1["beta"]) and abs(
            item["e"] - FIG1["e"]
        ) < 1e-3:
            c = output["coefficients"]
            ratio = max(
                abs((got / c[0]) / (want / FIG1_COEFFICIENTS[0]) - 1.0)
                for got, want in zip(c, FIG1_COEFFICIENTS)
            )
            if ratio > FIG1_RATIO_TOL:
                verdict.fail(index, 1, f"{where}: Fig. 1 coefficient ratios off by {ratio:.1e}")
    for row, members in by_row.items():
        nodes, weights = grids[row]
        arrays = {i: [np.array(x) for x in samples[i]] for i in members}
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                (ua, wa), (ub, wb) = arrays[a], arrays[b]
                overlap = float(np.sum(weights * nodes * (ua * ub + wa * wb)))
                if abs(overlap) > ORTHOGONALITY_TOL:
                    verdict.fail(a, 1, f"row {row}: overlap {overlap:.1e} between items {a} and {b}")
                    verdict.failed_items.add(b)
