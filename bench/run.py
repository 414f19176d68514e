"""The rashbadot benchmark.

    python3 bench/run.py --workload {table,deep_sweep,states} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository: the program is imported from
``src/``.  Inputs come from the seed; reference levels from an
independent scipy oracle (``bench/oracle.py``), computed outside every
timed region and cached under ``.bench_cache/``.  Set-up is timed on
fresh interpreters; the passes run in one fresh worker process
(``bench/worker.py``), single-threaded, calling the public API.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(item calls), ``failed`` (calls that raised) and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and
unit.  See ``bench/NOTES.md`` for definitions and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CACHE = ROOT / ".bench_cache"
TRACE_DIR = ROOT / ".bench_out"
WORKLOADS = ("table", "deep_sweep", "states")
SETUP_PROBES = 9
# table's tail item is the top of a cluster of like-cost rows, so one slow
# pass moves it: its items are timed as medians of at least three passes
MIN_PASSES = {"table": 3}
TAIL_BEYOND = 10  # the tail percentile leaves this many items above it
WORKER_TIMEOUT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def oracle_levels(spectra: list[tuple[float, float, int]]) -> list[list[float]]:
    """Oracle levels per (v, beta, m), cached by the exact inputs."""
    import oracle

    key = hashlib.sha256(json.dumps([spectra, oracle.GRID_POINTS]).encode()).hexdigest()[:16]
    path = CACHE / f"oracle-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    levels = [oracle.levels(v, beta, m) for v, beta, m in spectra]
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(levels))
    tmp.replace(path)
    return levels


def time_setup() -> float:
    """Median time from starting a fresh interpreter until rashbadot is
    imported and ready, at the reference speed.  Each probe times the
    calibration loop itself, after ready: the probe may run on the other
    CPU, whose speed the parent's loop does not show."""
    from calibration import REFERENCE_S

    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--probe"], stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            loop = probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError("set-up probe did not get ready")
        samples.append(elapsed * REFERENCE_S / float(loop))
    return statistics.median(samples)


def run_worker(job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def build(workload: str, seed: int):
    """Items, the oracle's levels per item, and for ``states`` the check
    quadrature grid of each reference row."""
    import checks
    import workloads
    from rashbadot.reference_levels import REFERENCE_ROWS

    if workload == "deep_sweep":
        items = workloads.deep_sweep_items(seed)
        return items, oracle_levels([(i["v"], i["beta"], i["m"]) for i in items]), None
    rows = [(float(r.v), float(r.beta), int(r.m)) for r in REFERENCE_ROWS]
    row_levels = oracle_levels(rows)
    if workload == "table":
        items = workloads.table_items(seed)
        return items, [row_levels[i["row"]] for i in items], None
    items = workloads.states_items(seed, dict(enumerate(row_levels)))
    grids = {i: checks.check_grid(v, beta, row_levels[i]) for i, (v, beta, _) in enumerate(rows)}
    return items, None, grids


def check(workload: str, items, levels, grids, result):
    import checks
    import workloads
    from rashbadot.reference_levels import (
        KNOWN_MISSING_LEVELS,
        KNOWN_VALUE_DEFECTS,
        REFERENCE_ROWS,
    )

    verdict = checks.Verdict()
    outputs = result["outputs"]
    if workload == "table":
        checks.check_table(
            items, outputs, REFERENCE_ROWS, KNOWN_VALUE_DEFECTS, KNOWN_MISSING_LEVELS, verdict
        )
        checks.check_spectra(items, outputs, levels, verdict)
    elif workload == "deep_sweep":
        checks.check_spectra(items, outputs, levels, verdict, checks.is_documented_defect)
    else:
        checks.check_states(
            items, outputs, result["check_samples"], grids, workloads.profile_radii(), verdict
        )
    for index, message in result["errors"]:
        verdict.failed_items.add(index)
        verdict.unexpected.append(f"item {index} raised {message}")
    for index in result["nondeterministic"]:
        verdict.fail(index, 1, f"item {index}: output differs between passes")
    return verdict


def end_to_end(result: dict, setup_s: float) -> dict:
    per_item = [statistics.median(times) for times in zip(*result["item_s"])]
    ranked = sorted(per_item)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(result["pass_s"]), "s"),
        "item_p50_ms": (1e3 * statistics.median(per_item), "ms"),
        "item_tail_ms": (1e3 * ranked[len(ranked) - TAIL_BEYOND - 1], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rashbadot" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'rashbadot'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    items, levels, grids = build(args.workload, args.seed)
    setup_s = None if args.trace else time_setup()
    job = {
        "workload": args.workload,
        "items": items,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_passes": MIN_PASSES.get(args.workload, 1),
        "trace_file": str(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.npz"),
    }
    if grids is not None:
        job["check_radii"] = {str(row): nodes.tolist() for row, (nodes, _) in grids.items()}
    result = run_worker(job)
    verdict = check(args.workload, items, levels, grids, result)

    n = len(items)
    correctness = {
        "fail_frac": (len(verdict.failed_items) / n, "frac"),
        "wrong_outputs": (verdict.wrong_outputs, "count"),
    }
    if args.trace:
        metrics = {**{k: tuple(v) for k, v in result["layers"].items()}, **correctness}
    else:
        metrics = end_to_end(result, setup_s)
        for name, value in correctness.items():
            print(f"{name} {value[0]:.6g} {value[1]}")
        print(
            f"# items {n}, passes {len(result['pass_s'])}, tail = p{100.0 * (n - TAIL_BEYOND) / n:.1f}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for message in verdict.unexpected[:20]:
        print(f"# check failed: {message}")
    print(
        json.dumps(
            {
                "correct": not verdict.unexpected,
                "attempted": result["attempted"],
                "failed": len(result["errors"]),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
