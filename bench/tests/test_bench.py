"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rashbadot.reference_levels import (  # noqa: E402
    KNOWN_MISSING_LEVELS,
    KNOWN_VALUE_DEFECTS,
    REFERENCE_ROWS,
)
from tracer import layer_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in every]
    assert len(set(all_names)) == len(all_names)
    for m in every:
        assert NAME.match(m["name"]), m["name"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_match_what_the_run_prints(spec):
    fake = {"item_s": [[0.1] * 12], "pass_s": [1.2], "peak_rss_mb": 30.0}
    printed = run.end_to_end(fake, 0.2)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in printed.items()
    }
    layers = {k: unit for k, (_, unit) in layer_metrics({}, 0, 0).items()}
    layers.update({"trace.overhead_frac": "frac", "fail_frac": "frac", "wrong_outputs": "count"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


@pytest.mark.parametrize("make", [workloads.table_items, workloads.deep_sweep_items])
def test_a_seed_gives_identical_plain_inputs(make):
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert first != other
    for item in first:
        assert type(item["v"]) is float and type(item["beta"]) is float
        assert type(item["m"]) is int


def test_states_inputs_repeat_for_a_seed():
    levels = {i: [1.0, 2.0] for i in range(len(REFERENCE_ROWS))}
    assert workloads.states_items(3, levels) == workloads.states_items(3, levels)
    assert all(type(r) is float for item in workloads.states_items(3, levels) for r in item["radii"])


def test_deep_sweep_stays_in_its_box():
    for item in workloads.deep_sweep_items(1):
        assert 2.5e3 <= item["v"] <= 1e4
        assert 0.0 <= item["beta"] <= 2.0 * item["v"] ** 0.5
        assert -12 <= item["m"] <= 11


def test_oracle_agrees_with_the_reference_grid():
    for row in REFERENCE_ROWS:
        key = (row.m, row.v, row.beta_factor)
        got = oracle.levels(row.v, row.beta, row.m)
        want = list(row.levels) + list(KNOWN_MISSING_LEVELS.get(key, ()))
        assert len(got) == len(want), key
        for cell, (e, reference) in enumerate(zip(got, want)):
            reference = KNOWN_VALUE_DEFECTS.get(key + (cell,), reference)
            assert abs(e - reference) <= checks.TABLE_TOLERANCE, (key, cell)


def test_documented_defects_are_only_the_two_roadmap_classes():
    item = {"v": 4000.0, "beta": 100.0, "m": 9}
    top = item["v"] - 0.25 * item["beta"] ** 2
    assert checks.is_documented_defect(item, 12.0, None)  # structural-zero region
    assert checks.is_documented_defect(item, None, -40.0)
    assert checks.is_documented_defect(item, top - 1e-9, None)  # last grid point
    assert not checks.is_documented_defect(item, 500.0, None)
    assert not checks.is_documented_defect(item, None, top - 1e-9)  # a lost level at the top
    assert not checks.is_documented_defect({**item, "m": 0}, 12.0, None)  # q = 0


def test_level_comparison_counts_missing_extra_and_shifted():
    diff = checks.compare_levels([1.0, 2.0000001, 5.0, 9.0], [1.0, 2.0, 5.01, 7.0])
    assert sorted(diff, key=str) == sorted(
        [(5.0, 5.01), (None, 7.0), (9.0, None)], key=str
    )


def _traced_job(workload, items, **extra):
    return {"workload": workload, "items": items, "seconds": 0, "trace": 1, **extra}


def test_two_traced_runs_give_the_same_counts():
    spectra = [{"v": 25.0, "beta": 5.0, "m": 0}, {"v": 25.0, "beta": 0.0, "m": 1}]
    state = {"v": 25.0, "beta": 5.0, "m": 0, "e": oracle.levels(25.0, 5.0, 0)[0], "row": 0}
    states = [{**state, "level": 0, "radii": [0.5, 2.0]}]
    jobs = [
        _traced_job("table", spectra),
        _traced_job("states", states, check_radii={"0": [0.5]}),
    ]
    for job in jobs:
        first, second = worker.run_job(job), worker.run_job(job)
        counts = {k: v for k, (v, unit) in first["layers"].items() if unit == "count"}
        assert counts == {k: v for k, (v, unit) in second["layers"].items() if unit == "count"}
        assert first["outputs"] == second["outputs"]
        assert not first["nondeterministic"] and not first["errors"]
    assert counts["numerics.quad.evals"] > 0 and counts["spectral_solver.scan_evals"] == 0
