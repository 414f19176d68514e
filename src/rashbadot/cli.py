"""Command line interface: spectra, wave-function samples, the reference
table comparison, and beta sweeps, as CSV or JSON.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 bad level
index, 5 reference-table mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .errors import InvalidInput, RashbaDotError
from .radial_basis import DotParameters
from .reference_levels import REFERENCE_ROWS, corrected_levels
from .spectral_solver import GRID_POINTS_CAP, GRID_POINTS_FLOOR, find_spectrum
from .wavefunction import evaluate_radial, normalize, solve_coefficients

# hbar^2 / (2 m_e) for the free-electron mass, in meV nm^2
HBAR2_OVER_2ME = 38.0998

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_LEVEL_INDEX = 4
EXIT_TABLE_MISMATCH = 5

# the largest counts the command line turns into work, checked before
# any of it is allocated (--grid by the bounds of find_spectrum)
BETA_COUNT_CAP = 10_000
SAMPLES_CAP = 100_000


@dataclass(frozen=True)
class PhysicalInputs:
    """Material parameters: effective mass (units of the free-electron
    mass), dot radius (nm), well depth (meV), Rashba coefficient (meV nm)."""

    effective_mass: float
    dot_radius: float
    well_depth: float
    rashba_coefficient: float

    def __post_init__(self):
        for name in ("effective_mass", "dot_radius", "well_depth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInput(f"{name} must be positive and finite")
        if not math.isfinite(self.rashba_coefficient):
            raise InvalidInput("rashba_coefficient must be finite")


def to_dimensionless(p: PhysicalInputs) -> tuple[float, float, float]:
    """(v, beta, energy_scale): dimensionless well depth and Rashba
    strength, plus the factor (meV) converting dimensionless e back to E.
    Inputs whose conversion leaves double range raise ``InvalidInput``."""
    try:
        energy_scale = HBAR2_OVER_2ME / (p.effective_mass * p.dot_radius**2)
        v = p.well_depth / energy_scale
    except (OverflowError, ZeroDivisionError):
        raise InvalidInput("effective_mass * dot_radius**2 leaves double range") from None
    beta = p.rashba_coefficient * p.dot_radius * p.effective_mass / HBAR2_OVER_2ME
    if not (0.0 < energy_scale < math.inf and 0.0 < v < math.inf and math.isfinite(beta)):
        raise InvalidInput(f"out of range: scale {energy_scale!r} meV, v {v!r}, beta {beta!r}")
    return v, beta, energy_scale


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _cell(value) -> str:
    """One CSV cell: empty for None, 6 significant digits for a float."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _write(args, payload: dict, header: str, rows) -> None:
    """Write ``payload`` as JSON or ``rows`` as CSV under ``header``, to
    ``args.out`` or stdout, as ``args.format`` asks."""
    if args.format == "json":
        lines = [json.dumps(payload, indent=2)]
    else:
        lines = [header] + [",".join(map(_cell, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {args.out}: {exc.strerror}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument(
        "--grid",
        type=int,
        default=None,
        help="scan grid points, uniform in the interior wave number "
        "(default: sized from the window)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rashbadot",
        description="Bound states of a finite circular quantum dot with Rashba coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="bound-state energies for one (v, beta, m)")
    _add_common(sp)
    sp.add_argument("--v", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--physical", action="store_true", help="take material parameters instead of dimensionless v, beta")
    sp.add_argument("--effective-mass", type=float, help="in units of the free-electron mass")
    sp.add_argument("--dot-radius", type=float, help="nm")
    sp.add_argument("--well-depth", type=float, help="meV")
    sp.add_argument("--rashba-coefficient", type=float, help="meV nm")

    wf = sub.add_parser("wavefunction", help="normalized radial samples r,u,w for one level")
    _add_common(wf)
    wf.add_argument("--v", type=float, required=True)
    wf.add_argument("--beta", type=float, required=True)
    wf.add_argument("--m", type=int, required=True)
    wf.add_argument("--level", type=int, help="0-based level index")
    wf.add_argument("--energy", type=float, help="pick the level nearest this energy")
    wf.add_argument("--energy-tol", type=float, default=0.01)
    wf.add_argument("--rmax", type=float, default=3.0)
    wf.add_argument("--samples", type=int, default=300)

    tb = sub.add_parser(
        "table",
        help="recompute the reference grid and compare cell by cell with the "
        "printed table plus its certified errata",
    )
    _add_common(tb)
    tb.add_argument("--compare-tol", type=float, default=0.01, help="|e - reference| pass threshold")

    sw = sub.add_parser("sweep", help="spectra over a range of beta values")
    _add_common(sw)
    sw.add_argument("--v", type=float, required=True)
    sw.add_argument("--beta-range", required=True, help="LO:HI:STEP inclusive")
    sw.add_argument("--m-list", required=True, help="comma-separated angular numbers")
    return parser


def _run_spectrum(args, parser) -> int:
    energy_scale = None
    if args.physical:
        missing = [
            flag
            for flag, value in (
                ("--effective-mass", args.effective_mass),
                ("--dot-radius", args.dot_radius),
                ("--well-depth", args.well_depth),
                ("--rashba-coefficient", args.rashba_coefficient),
            )
            if value is None
        ]
        if missing:
            parser.error(f"--physical requires {', '.join(missing)}")
        v, beta, energy_scale = to_dimensionless(
            PhysicalInputs(
                effective_mass=args.effective_mass,
                dot_radius=args.dot_radius,
                well_depth=args.well_depth,
                rashba_coefficient=args.rashba_coefficient,
            )
        )
    else:
        if args.v is None or args.beta is None:
            parser.error("need --v and --beta (or --physical)")
        v, beta = args.v, args.beta

    spectrum = find_spectrum(DotParameters(v=v, beta=beta, m=args.m), args.grid)
    payload = {
        "params": {"v": v, "beta": beta, "m": args.m},
        "window": list(spectrum.window),
        "levels": list(spectrum.levels),
    }
    header, rows = "index,e", list(enumerate(spectrum.levels))
    if energy_scale is not None:
        payload["energy_scale_mev"] = energy_scale
        payload["levels_mev"] = [e * energy_scale for e in spectrum.levels]
        header, rows = "index,e,E_meV", [(i, e, e * energy_scale) for i, e in rows]
    _write(args, payload, header, rows)
    return EXIT_OK


def _run_wavefunction(args, parser) -> int:
    if (args.level is None) == (args.energy is None):
        parser.error("need exactly one of --level or --energy")
    if not 2 <= args.samples <= SAMPLES_CAP:
        parser.error(f"--samples must lie in 2 .. {SAMPLES_CAP}")
    if not 0.0 < args.rmax < math.inf:
        parser.error("--rmax must be positive and finite")
    if args.energy is not None and not math.isfinite(args.energy):
        parser.error("--energy must be finite")
    if not args.energy_tol >= 0.0:
        parser.error("--energy-tol must be a number >= 0")

    params = DotParameters(v=args.v, beta=args.beta, m=args.m)
    spectrum = find_spectrum(params, args.grid)
    if args.level is not None:
        if not 0 <= args.level < len(spectrum.levels):
            sys.stderr.write(
                f"level index {args.level} out of range: {len(spectrum.levels)} levels\n"
            )
            return EXIT_LEVEL_INDEX
        e = spectrum.levels[args.level]
    else:
        candidates = [x for x in spectrum.levels if abs(x - args.energy) <= args.energy_tol]
        if not candidates:
            sys.stderr.write(
                f"no level within {args.energy_tol} of e = {args.energy}\n"
            )
            return EXIT_LEVEL_INDEX
        e = min(candidates, key=lambda x: abs(x - args.energy))

    state = normalize(solve_coefficients(params, e))
    coefficients = dict(zip(("c1", "c2", "d1", "d2"), state.coefficients))
    sys.stderr.write(
        "# e = {}\n# c1 = {c1}, c2 = {c2}, d1 = {d1}, d2 = {d2}\n# v = {}, beta = {}, m = {}\n".format(
            state.e, args.v, args.beta, args.m, **coefficients
        )
    )
    step = args.rmax / (args.samples - 1)
    samples = []
    for i in range(args.samples):
        r = args.rmax if i == args.samples - 1 else i * step
        samples.append(evaluate_radial(state, r))
    rows = [(s.r, s.u, s.w) for s in samples]
    payload = {
        "params": {"v": args.v, "beta": args.beta, "m": args.m},
        "e": state.e,
        # RFC 8259 has no Infinity: null for a coefficient that overflows
        "coefficients": {k: c if math.isfinite(c) else None for k, c in coefficients.items()},
        "samples": rows,
    }
    _write(args, payload, "r,u,w", rows)
    return EXIT_OK


def _run_table(args, parser) -> int:
    if not args.compare_tol >= 0.0:
        parser.error("--compare-tol must be a number >= 0")
    rows_out = []
    all_pass = True
    for row in REFERENCE_ROWS:
        levels = find_spectrum(DotParameters(v=row.v, beta=row.beta, m=row.m), args.grid).levels
        expected = corrected_levels(row)
        count = max(len(levels), len(expected))
        for index in range(count):
            computed = levels[index] if index < len(levels) else None
            reference = expected[index] if index < len(expected) else None
            if computed is None or reference is None:
                status = "fail"  # level-count mismatch
                delta = None
            else:
                delta = abs(computed - reference)
                status = "pass" if delta <= args.compare_tol else "fail"
            if status == "fail":
                all_pass = False
            rows_out.append((row.m, row.v, row.beta, index, computed, reference, delta, status))

    header = "m,v,beta,level_index,e,e_ref,delta,status"
    payload = {
        "compare_tol": args.compare_tol,
        "passed": all_pass,
        "cells": [dict(zip(header.split(","), row)) for row in rows_out],
    }
    _write(args, payload, header, rows_out)
    return EXIT_OK if all_pass else EXIT_TABLE_MISMATCH


def _parse_beta_range(text: str, parser) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        parser.error("--beta-range must be LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        parser.error("--beta-range values must be numeric")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        parser.error("--beta-range LO and HI must be finite")
    if not (step > 0.0 and hi >= lo):
        parser.error("--beta-range requires STEP > 0 and HI >= LO")
    span = (hi - lo) / step + 1e-9
    if not span < BETA_COUNT_CAP:
        parser.error(f"--beta-range gives more than {BETA_COUNT_CAP} betas")
    count = int(math.floor(span)) + 1
    betas = [lo + i * step for i in range(count)]
    # a STEP below the float spacing near LO repeats betas
    if any(b <= a for a, b in zip(betas, betas[1:])):
        parser.error("--beta-range betas must strictly increase: STEP is below the spacing of LO")
    return betas


def _run_sweep(args, parser) -> int:
    betas = _parse_beta_range(args.beta_range, parser)
    try:
        m_values = [int(p) for p in args.m_list.split(",") if p.strip() != ""]
    except ValueError:
        parser.error("--m-list must be comma-separated integers")
    if not m_values:
        parser.error("--m-list is empty")

    records = []
    for beta in betas:
        for m in sorted(set(m_values)):
            levels = find_spectrum(DotParameters(v=args.v, beta=beta, m=m), args.grid).levels
            for index, e in enumerate(levels):
                records.append((beta, m, index, e))

    _write(args, {"v": args.v, "rows": records}, "beta,m,level_index,e", records)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "spectrum": _run_spectrum,
        "wavefunction": _run_wavefunction,
        "table": _run_table,
        "sweep": _run_sweep,
    }
    try:
        if args.grid is not None and not GRID_POINTS_FLOOR <= args.grid <= GRID_POINTS_CAP:
            raise InvalidInput(f"--grid must lie in {GRID_POINTS_FLOOR} .. {GRID_POINTS_CAP}")
        return runners[args.command](args, parser)
    except InvalidInput as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except RashbaDotError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
