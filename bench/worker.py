"""Timed passes over one workload, in a fresh interpreter.

``python3 bench/worker.py --probe`` imports ``rashbadot``, prints
``ready`` (the parent times that as set-up), then the time of the
calibration loop on this process.  Without ``--probe`` the
worker reads a job (JSON) on stdin, runs whole passes over its items
until the requested seconds have elapsed (and, untraced, the job's
``min_passes``), and prints one JSON result
line: per-pass and per-item times, the first pass's outputs, errors,
peak resident memory and, when tracing, per-layer metrics.

Only calls into the public API are timed.  They go through module
attributes (``spectral_solver.find_spectrum``) so that the tracer's
wrappers, when installed, see them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def import_program():
    sys.path.insert(0, str(SOURCE))
    import rashbadot

    if Path(rashbadot.__file__).resolve().parent != SOURCE / "rashbadot":
        raise ImportError(f"rashbadot imported from {rashbadot.__file__}, not from {SOURCE}")
    return rashbadot


def _run_item(workload: str, item: dict, api, profile: list[float]):
    params = api.DotParameters(item["v"], item["beta"], item["m"])
    if workload != "states":
        return api.spectral_solver.find_spectrum(params)
    wavefunction = api.wavefunction
    state = wavefunction.normalize(wavefunction.solve_coefficients(params, item["e"]))
    samples = [wavefunction.evaluate_radial(state, r) for r in profile]
    residuals = [wavefunction.ode_residual(state, r) for r in item["radii"]]
    return state, samples, residuals


def _plain(workload: str, raw) -> dict:
    if workload != "states":
        return {"levels": list(raw.levels)}
    state, samples, residuals = raw
    return {
        "coefficients": list(state.coefficients),
        "u": [s.u for s in samples],
        "w": [s.w for s in samples],
        "residuals": [list(pair) for pair in residuals],
    }


def _one_pass(job: dict, api, profile, clock, tracer=None):
    """One pass over the items: per-item (start, end), raw outputs, errors.
    Calibration runs between items, never inside one."""
    workload, items = job["workload"], job["items"]
    errors_type = api.errors.RashbaDotError
    spans, raws, errors = [], [], []
    for index, item in enumerate(items):
        clock.maybe_calibrate()
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = _run_item(workload, item, api, profile)
            else:
                raw = tracer.span("item", _run_item, workload, item, api, profile)
        except errors_type as exc:
            raw = None
            errors.append((index, f"{type(exc).__name__}: {exc}"))
        spans.append((start, time.perf_counter()))
        raws.append(raw)
    clock.calibrate()
    return spans, raws, errors


def run_job(job: dict) -> dict:
    api = import_program()
    from calibration import Clock
    from workloads import profile_radii

    workload = job["workload"]
    profile = profile_radii()
    tracer = None
    if job["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()

    clock = Clock()
    untraced, traced, item_times = [], [], []
    errors, nondeterministic, layer_runs = [], set(), []
    first = None
    started = time.perf_counter()
    while True:
        for with_trace in ((False, True) if tracer else (False,)):
            if with_trace:
                tracer.reset()
                tracer.install()
            try:
                spans, raws, errs = _one_pass(
                    job, api, profile, clock, tracer if with_trace else None
                )
            finally:
                if with_trace:
                    tracer.uninstall()
            times = [clock.scale(start, end) for start, end in spans]
            outputs = [None if raw is None else _plain(workload, raw) for raw in raws]
            if first is None:
                first = (raws, outputs)
                # after one pass, so that run length does not change it
                peak_rss_mb = _peak_rss_mb()
            else:
                nondeterministic.update(
                    i for i, (a, b) in enumerate(zip(first[1], outputs)) if a != b
                )
            errors.extend(errs)
            if with_trace:
                traced.append(sum(times))
                speed = sum(times) / sum(end - start for start, end in spans)
                levels = sum(len(o["levels"]) for o in outputs if o and "levels" in o)
                states = sum(1 for o in outputs if o and "coefficients" in o)
                layer_runs.append(layer_metrics(tracer.summary(), levels, states, speed))
            else:
                untraced.append(sum(times))
                item_times.append(times)
        enough = tracer is not None or len(untraced) >= job.get("min_passes", 1)
        if enough and time.perf_counter() - started >= job["seconds"]:
            break

    result = {
        "pass_s": untraced,
        "item_s": item_times,
        "outputs": first[1],
        "errors": [[index, message] for index, message in errors],
        "attempted": len(job["items"]) * (len(untraced) + len(traced)),
        "nondeterministic": sorted(nondeterministic),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = _merge_layer_runs(layer_runs)
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "frac",
        )
        if job.get("trace_file"):
            _write_spans(tracer, job["trace_file"])
    if workload == "states":
        result["check_samples"] = _check_samples(job, api, first[0])
    return result


def _peak_rss_mb() -> float:
    """Peak resident set of this process.  VmHWM, not ru_maxrss: the
    latter keeps the high-water mark of the parent's memory from before
    exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _merge_layer_runs(runs: list[dict]) -> dict:
    """Counts must repeat exactly between traced passes; times are medians."""
    merged = {}
    for name, (value, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if unit == "count" and len(set(values)) != 1:
            raise RuntimeError(f"layer count {name} differs between traced passes: {values}")
        merged[name] = (statistics.median(values), unit)
    return merged


def _write_spans(tracer, path: str) -> None:
    import numpy as np

    spans = tracer.spans()
    # request id: the outermost ancestor of each span (one per item)
    root = np.where(spans["parent"] >= 0, spans["parent"], np.arange(len(spans["parent"])))
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.array(tracer.names), request=root, **spans)


def _check_samples(job: dict, api, states) -> list:
    """(u, w) of each first-pass state at its row's check radii (untimed)."""
    out = []
    for item, raw in zip(job["items"], states):
        if raw is None:
            out.append(None)
            continue
        radii = job["check_radii"][str(item["row"])]
        samples = [api.wavefunction.evaluate_radial(raw[0], r) for r in radii]
        out.append([[s.u for s in samples], [s.w for s in samples]])
    return out


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if sys.argv[1:] == ["--probe"]:
        import_program()
        print("ready", flush=True)
        # this process's own CPU speed, timed after ready (see run.time_setup)
        from calibration import loop_time

        print(statistics.median(loop_time() for _ in range(3)), flush=True)
        return 0
    job = json.loads(sys.stdin.read())
    print(json.dumps(run_job(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
