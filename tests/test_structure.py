"""Structural rules of the package: the benchmark tracer finds every name
it wraps, no module reaches into another module's private names, each
Bessel regime is written once, one function picks the J regime, and
importing the package leaves ``numpy.polynomial`` unloaded."""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import rashbadot
from rashbadot import numerics, radial_basis, spectral_solver, wavefunction

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rashbadot"


def load_tracer():
    """``bench/tracer.py`` as a module, without putting ``bench`` on the path."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    # the tracer wraps module-level names of the package; a name it
    # expects that is gone makes install fail, and uninstall must put
    # back every original object
    modules = (numerics, radial_basis, spectral_solver, wavefunction)
    before = [dict(vars(module)) for module in modules]
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert module in modules
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        after = vars(module)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items())


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("rashbadot")
            if not internal:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def test_special_functions_writes_each_regime_once():
    # a regime body takes one argument or an array of lanes; the only lane
    # functions are the two public entry points that validate and assemble
    tree = ast.parse((PACKAGE / "special_functions.py").read_text())
    lane_functions = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_lanes")
    }
    assert lane_functions == {"bessel_j_over_power_lanes", "bessel_k_scaled_lanes"}


def test_j_regime_split_is_read_in_one_function():
    # the scalar and the lane entry points take their J regime from one
    # place, so a lane and the scalar cannot disagree on it
    tree = ast.parse((PACKAGE / "special_functions.py").read_text())
    for constant in ("_J_SERIES_RADIUS", "_J_HANKEL_RADIUS"):
        readers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id == constant
        }
        assert readers == {"_j_split"}, constant


def test_import_leaves_numpy_polynomial_unloaded():
    # the K quadrature nodes are literal constants: building them with
    # numpy.polynomial at import would load it and raise peak memory
    source = str(Path(rashbadot.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {source!r}); import rashbadot; "
        "sys.exit(int('numpy.polynomial' in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
