"""Outside-in layer tracing.

``Tracer.install`` replaces, for the life of the tracer, the names
through which the ``rashbadot`` modules call one another (for example
``spectral_solver.interior_pair``) with wrappers that record one span
per call: name, start, end and the enclosing span.  The program itself
is not edited.  Spans are kept in flat arrays in memory; self time is a
span's duration minus the part covered by its child spans.

Special-function spans are split into argument bands that the benchmark
defines (``|x| <= 2`` for J; ``|z| <= 2``, between, ``>= 12.5`` for K),
independent of the regimes the implementation picks.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

J_SMALL = 2.0
K_SMALL = 2.0
K_LARGE = 12.5

# span names
FIND_SPECTRUM = "spectral_solver.find_spectrum"
REFINE = "numerics.refine"
REFINE_EVAL = "spectral_solver.refine_eval"
INTERIOR = "radial_basis.interior"
EXTERIOR = "radial_basis.exterior"
J_SMALL_SPAN, J_LARGE_SPAN = "special_functions.j.small", "special_functions.j.large"
K_SPANS = ("special_functions.k.small", "special_functions.k.mid", "special_functions.k.large")
SOLVE = "wavefunction.solve"
NORMALIZE = "wavefunction.normalize"
EVALUATE = "wavefunction.evaluate"
RESIDUAL = "wavefunction.residual"
NULLSPACE = "numerics.nullspace"
PANEL = "numerics.quad.panel"
TAIL = "numerics.quad.tail"
TAIL_PANEL = "numerics.quad.tail_panel"
QUAD_EVAL = "numerics.quad.eval"  # counted, no span


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, span_id: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span."""
        index = len(self.start)
        self.name.append(span_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        return self.call(self._id(name), fn, *args, **kwargs)

    def wrap(self, fn, name: str):
        span_id = self._id(name)

        def traced(*args, **kwargs):
            return self.call(span_id, fn, *args, **kwargs)

        return traced

    def _counted(self, fn, name: str):
        def counted(*args):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        from rashbadot import numerics, radial_basis, spectral_solver, wavefunction

        j_ids = (self._id(J_SMALL_SPAN), self._id(J_LARGE_SPAN))
        k_ids = tuple(self._id(name) for name in K_SPANS)

        def j_banded(fn):
            def traced(orders, x):
                return self.call(j_ids[0] if abs(x) <= J_SMALL else j_ids[1], fn, orders, x)

            return traced

        def k_banded(fn):
            def traced(orders, z):
                size = abs(z)
                band = 0 if size <= K_SMALL else (2 if size >= K_LARGE else 1)
                return self.call(k_ids[band], fn, orders, z)

            return traced

        refine_eval = self._id(REFINE_EVAL)
        refine_root = spectral_solver.refine_root

        def traced_refine(f, bracket, tol, *args, **kwargs):
            def evaluated(e):
                return self.call(refine_eval, f, e)

            return self.span(REFINE, refine_root, evaluated, bracket, tol, *args, **kwargs)

        def quad_panel(fn, name):
            def traced(f, *args, **kwargs):
                return self.span(name, fn, self._counted(f, QUAD_EVAL), *args, **kwargs)

            return traced

        self._patch(radial_basis, "bessel_j_many", j_banded(radial_basis.bessel_j_many))
        self._patch(radial_basis, "bessel_k_scaled_many", k_banded(radial_basis.bessel_k_scaled_many))
        self._patch(wavefunction, "bessel_j_many", j_banded(wavefunction.bessel_j_many))
        self._patch(wavefunction, "bessel_k_many", k_banded(wavefunction.bessel_k_many))
        for module, attr, name in (
            (spectral_solver, "find_spectrum", FIND_SPECTRUM),
            (spectral_solver, "interior_pair", INTERIOR),
            (spectral_solver, "exterior_pair_scaled", EXTERIOR),
            (wavefunction, "interior_pair", INTERIOR),
            (wavefunction, "exterior_pair", EXTERIOR),
            (wavefunction, "solve_coefficients", SOLVE),
            (wavefunction, "normalize", NORMALIZE),
            (wavefunction, "evaluate_radial", EVALUATE),
            (wavefunction, "ode_residual", RESIDUAL),
            (wavefunction, "nullspace_4x4", NULLSPACE),
            (wavefunction, "integrate_tail", TAIL),
        ):
            self._patch(module, attr, self.wrap(getattr(module, attr), name))
        self._patch(spectral_solver, "refine_root", traced_refine)
        self._patch(wavefunction, "integrate_panel", quad_panel(wavefunction.integrate_panel, PANEL))
        self._patch(numerics, "integrate_panel", quad_panel(numerics.integrate_panel, TAIL_PANEL))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: count, inclusive and self seconds, plus the
        count of spans that ran inside find_spectrum."""
        s = self.spans()
        n_names = len(self.names)
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child_time = np.bincount(
            s["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        # mark every span that has find_spectrum among its ancestors
        in_spectrum = s["name"] == self._id(FIND_SPECTRUM)
        parent = np.where(has_parent, s["parent"], 0)
        for _ in range(64):
            grown = in_spectrum | (has_parent & in_spectrum[parent])
            if np.array_equal(grown, in_spectrum):
                break
            in_spectrum = grown
        count = np.bincount(s["name"], minlength=n_names)
        in_spec = np.bincount(s["name"][in_spectrum], minlength=n_names)
        inclusive = np.bincount(s["name"], weights=duration, minlength=n_names)
        own = np.bincount(s["name"], weights=self_time, minlength=n_names)
        out = {
            name: {
                "count": int(count[i]),
                "in_spectrum": int(in_spec[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }
        for name, value in self.counts.items():
            out[name] = {"count": value, "in_spectrum": 0, "inclusive_s": 0.0, "self_s": 0.0}
        return out


def layer_metrics(
    summary: dict, levels: int, states: int, speed: float = 1.0
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit).
    Times are multiplied by ``speed``, the pass's calibration factor."""

    def get(name: str, key: str = "count"):
        value = summary.get(name, {}).get(key, 0)
        return value if key == "count" or key == "in_spectrum" else value * speed

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    j_calls = get(J_SMALL_SPAN) + get(J_LARGE_SPAN)
    j_self = get(J_SMALL_SPAN, "self_s") + get(J_LARGE_SPAN, "self_s")
    k_small, k_mid, k_large = (get(name) for name in K_SPANS)
    k_self = sum(get(name, "self_s") for name in K_SPANS)
    det_evals = get(INTERIOR, "in_spectrum")
    refine_evals = get(REFINE_EVAL)
    roots = get(REFINE)
    quad_evals = get(QUAD_EVAL)
    return {
        "special_functions.j.calls": (j_calls, "count"),
        "special_functions.j.small_arg_share": (ratio(get(J_SMALL_SPAN), j_calls), "frac"),
        "special_functions.j.self_s": (j_self, "s"),
        "special_functions.j.us_per_call": (1e6 * ratio(j_self, j_calls), "us"),
        "special_functions.k.calls_small": (k_small, "count"),
        "special_functions.k.calls_mid": (k_mid, "count"),
        "special_functions.k.calls_large": (k_large, "count"),
        "special_functions.k.self_s": (k_self, "s"),
        "special_functions.k.us_per_call_mid": (1e6 * ratio(get(K_SPANS[1], "self_s"), k_mid), "us"),
        "special_functions.k.us_per_call_large": (
            1e6 * ratio(get(K_SPANS[2], "self_s"), k_large),
            "us",
        ),
        "radial_basis.interior.calls": (get(INTERIOR), "count"),
        "radial_basis.interior.self_s": (get(INTERIOR, "self_s"), "s"),
        "radial_basis.exterior.calls": (get(EXTERIOR), "count"),
        "radial_basis.exterior.self_s": (get(EXTERIOR, "self_s"), "s"),
        "spectral_solver.spectra": (get(FIND_SPECTRUM), "count"),
        "spectral_solver.det_evals": (det_evals, "count"),
        "spectral_solver.scan_evals": (det_evals - refine_evals, "count"),
        "spectral_solver.scan_self_s": (get(FIND_SPECTRUM, "self_s"), "s"),
        "spectral_solver.det_us": (1e6 * ratio(get(FIND_SPECTRUM, "inclusive_s"), det_evals), "us"),
        "spectral_solver.evals_per_level": (ratio(det_evals, levels), "evals/level"),
        "numerics.refine.roots": (roots, "count"),
        "numerics.refine.evals": (refine_evals, "count"),
        "numerics.refine.evals_per_root": (ratio(refine_evals, roots), "evals/root"),
        "numerics.refine.self_s": (get(REFINE, "self_s"), "s"),
        "numerics.nullspace.calls": (get(NULLSPACE), "count"),
        "numerics.nullspace.self_s": (get(NULLSPACE, "self_s"), "s"),
        "numerics.quad.panels": (get(PANEL) + get(TAIL_PANEL), "count"),
        "numerics.quad.tail_panels": (get(TAIL_PANEL), "count"),
        "numerics.quad.evals": (quad_evals, "count"),
        "numerics.quad.evals_per_state": (ratio(quad_evals, states), "evals/state"),
        "numerics.quad.self_s": (
            sum(get(name, "self_s") for name in (PANEL, TAIL, TAIL_PANEL)),
            "s",
        ),
        "wavefunction.solve.self_s": (get(SOLVE, "self_s"), "s"),
        "wavefunction.normalize.self_s": (get(NORMALIZE, "self_s"), "s"),
        "wavefunction.evaluate.self_s": (get(EVALUATE, "self_s"), "s"),
        "wavefunction.residual.self_s": (get(RESIDUAL, "self_s"), "s"),
    }
