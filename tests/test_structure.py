"""Structural rules of the package: the benchmark tracer finds every name
it wraps, no module reaches into another module's private names, each
Bessel regime is written once, a point runs its lane's arithmetic (no
series stops early, one column norm for both forms of the matching
matrix), one function picks the J regime and one the K regime, every
Bessel value of the basis comes through the pair
functions of ``radial_basis``, root refinement reads no guess,
``narrow_bracket`` alone reads a bracket's slope, importing the package
leaves ``numpy.polynomial`` unloaded, the spectrum search takes a well
alone, every function of the package serves the program
or its public API, every error class is raised, no source quotes a
measured time, and the README's library example runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import rashbadot
from conftest import counted_lane_calls
from rashbadot import numerics, radial_basis, special_functions, spectral_solver, wavefunction
from rashbadot.radial_basis import DotParameters

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
    # a regime body takes one argument or an array of lanes, and so does
    # the one J entry point; the only lane function is K's public entry
    # point, which validates and assembles
    tree = ast.parse((PACKAGE / "special_functions.py").read_text())
    lane_functions = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_lanes")
    }
    assert lane_functions == {"bessel_k_scaled_lanes"}


def function_nodes(module: str, name: str) -> list[ast.AST]:
    """Every AST node of the module-level function ``name`` of ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (function,) = (node for node in tree.body if getattr(node, "name", None) == name)
    return list(ast.walk(function))


def test_a_point_runs_the_arithmetic_of_its_lane():
    # one argument sums the fixed count of terms a lane sums, with no
    # stopping rule to leave the loop early, and the matching matrix takes
    # one column norm for an energy and for lanes, with no branch on the form
    for name in ("_j_series", "_j_hankel", "_k01_series"):
        nodes = function_nodes("special_functions", name)
        assert not any(isinstance(node, ast.Break) for node in nodes), name
    assert not any(
        isinstance(node, ast.Name) and node.id == "isinstance"
        for node in function_nodes("spectral_solver", "equilibrated_matrix")
    )


# the Bessel entry points and regime bodies of special_functions
BESSEL_NAMES = (
    "bessel_j_over_power",
    "bessel_k_scaled_many",
    "bessel_k_scaled_lanes",
    "_j_series",
    "_j_miller",
    "_j_hankel",
    "_k01_series",
    "_k01_quadrature",
)


def test_every_bessel_call_goes_through_the_pair_functions(monkeypatch):
    # the samples, the residual, the normalization and the matching
    # matrix (for one energy and on lanes) take every Bessel value from
    # radial_basis.interior_pair / exterior_pair: a Bessel function called
    # outside them would be a second place that assembles the basis.
    # Every module-level name of the package bound to one of these
    # functions is wrapped, whatever it is called there
    depth = [0]
    inside, outside = [], []
    bessel = [getattr(special_functions, name) for name in BESSEL_NAMES]
    pairs = (radial_basis.interior_pair, radial_basis.exterior_pair)

    def through_pair(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    def counted(fn):
        def wrapped(*args, **kwargs):
            (inside if depth[0] else outside).append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    for path in sorted(PACKAGE.glob("*.py")):
        name = "rashbadot" if path.stem == "__init__" else f"rashbadot.{path.stem}"
        module = importlib.import_module(name)
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in pairs):
                monkeypatch.setattr(module, attr, through_pair(value))
            elif any(value is fn for fn in bessel):
                monkeypatch.setattr(module, attr, counted(value))

    def checked(function, *args):
        inside.clear()
        result = function(*args)
        assert inside and outside == [], (function.__name__, args, outside)
        return result

    for params in (DotParameters(100.0, 2.0, 1), DotParameters(25.0, 0.0, -2)):
        e = checked(spectral_solver.find_spectrum, params).levels[0]
        checked(spectral_solver.equilibrated_matrix, params, e)
        checked(spectral_solver.equilibrated_matrix, params, np.array([e, 0.5 * e, 0.9 * e]))
        state = checked(wavefunction.solve_coefficients, params, e)
        checked(wavefunction.region_density_integrals, state)
        state = checked(wavefunction.normalize, state)
        for r in (0.3, 0.9, 1.0, 2.5):
            checked(wavefunction.evaluate_radial, state, r)
        for r in (0.3, 2.5):
            checked(wavefunction.ode_residual, state, r)


def test_refine_root_starts_from_the_bracket_alone():
    # the guess is read in narrow_bracket alone: refine_root takes only
    # the ends and their values
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    (refine,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "refine_root"
    )
    reads = [
        node.lineno
        for node in ast.walk(refine)
        if isinstance(node, ast.Attribute) and node.attr == "guess"
    ]
    assert reads == []


def test_narrow_bracket_alone_reads_a_bracket_slope(monkeypatch):
    # the interpolant's slope at the guess serves the Newton step of
    # narrow_bracket and nothing else; a deep well that takes both probe
    # rounds (three lane calls: the grid and two rounds of probes) reads
    # it nowhere else
    readers = set()

    class Recorded(numerics.Bracket):
        def __getattribute__(self, name):
            if name == "slope":
                readers.add(sys._getframe(1).f_code.co_name)
            return super().__getattribute__(name)

    monkeypatch.setattr(numerics, "Bracket", Recorded)
    monkeypatch.setattr(spectral_solver, "Bracket", Recorded)
    lane_calls = counted_lane_calls(monkeypatch)
    assert spectral_solver.find_spectrum(DotParameters(10000.0, 20.0, 3)).levels
    assert lane_calls[0] == 3
    assert readers == {"narrow_bracket"}


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


def test_k_regime_cuts_are_read_in_one_function():
    # the scalar and the lane K entry points take their seed regime, the
    # log series, a point's quadrature rule or a lane's rung, from one
    # function, the only reader of the point cuts and of the lane cuts
    tree = ast.parse((PACKAGE / "special_functions.py").read_text())
    for constant in ("_K_CUTS", "_K_POINT_CUTS"):
        readers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id == constant
        }
        assert readers == {"_k_regime"}, constant


def test_import_leaves_numpy_polynomial_unloaded():
    # the K quadrature nodes are literal constants: building them with
    # numpy.polynomial at import would load it and raise peak memory.  Nor
    # does the package load scipy, mpmath or the CLI's argparse and json,
    # whose import time every run of the library would pay
    source = str(Path(rashbadot.__file__).resolve().parents[1])
    unwanted = ("numpy.polynomial", "scipy", "mpmath", "argparse", "json")
    code = (
        f"import sys; sys.path.insert(0, {source!r}); import rashbadot; "
        f"print(*[name for name in {unwanted!r} if name in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_find_spectrum_takes_a_well():
    # the scan always covers the whole margin-shrunk window on the grid
    # scan_grid sizes from it, refined to the constant REFINE_TOL: no
    # scan-settings object, no window clamps, no grid size
    assert list(inspect.signature(spectral_solver.find_spectrum).parameters) == ["params"]
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rashbadot" if path.stem == "__init__" else f"rashbadot.{path.stem}"
        assert not hasattr(importlib.import_module(name), "ScanSpec"), name


def tracer_patched_names() -> set[str]:
    """The module-level names of the package that the benchmark tracer
    patches, read by installing it and uninstalling it."""
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        return {attr for _, attr, _ in tracer._patched}
    finally:
        tracer.uninstall()


def test_every_function_is_used_public_or_the_entry_point():
    # a top-level function or assigned name that nothing in src/ refers
    # to outside its own statement, that the package does not export and
    # that is not the console script runs only for tests: it belongs in
    # tests/, or nowhere.  Dunder names and the names the benchmark
    # tracer patches are exempt
    scripts = (ROOT / "pyproject.toml").read_text()
    (entry,) = re.findall(r'^rashbadot = "rashbadot\.\w+:(\w+)"$', scripts, re.M)
    statements = [
        statement
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    # the top-level statements that refer to each name
    referrers = {}
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                referrers.setdefault(name, set()).add(id(statement))
    defined = [
        (statement.name, statement)
        for statement in statements
        if isinstance(statement, ast.FunctionDef)
    ] + [
        (name.id, statement)
        for statement in statements
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for target in (
            statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        )
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]
    exempt = set(rashbadot.__all__) | tracer_patched_names() | {entry}
    unused = [
        name
        for name, statement in defined
        if not referrers.get(name, set()) - {id(statement)}
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_every_error_class_is_raised():
    # one class per outcome a caller acts on, under one root: each is
    # raised somewhere in src/, and the message carries the detail
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    root, *outcomes = (node.name for node in classes)
    assert root == "RashbaDotError"
    assert all([base.id for base in node.bases] == [root] for node in classes[1:])
    raised = {
        node.exc.func.id
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }
    assert sorted(outcomes) == ["ArgumentOutOfRange", "InvalidInput", "NumericalFailure"]
    assert set(outcomes) <= raised


# a number with a unit of time below the second, or a "best of N" run
# count, also where a line break splits them
MEASURED_TIME = re.compile(r"\d\s*(?:us|µs|ms)\b|best\s+of", re.I)


def test_no_source_quotes_a_measured_time():
    # docstrings and comments state the method, its accuracy and the
    # reason for each constant; measured costs depend on the machine and
    # live in the BENCH_*.json records
    quoted = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}: {match.group()!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        for text in [path.read_text()]
        for match in MEASURED_TIME.finditer(text)
    ]
    assert quoted == []


def test_readme_library_example_runs():
    # the python block under "## Library" uses only the public API
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0], re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
