"""Self-tests for the benchmark: ``python3 -m pytest -q bench/selftest.py``.

They run every workload at a tiny size, so they take seconds, not minutes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_qthermo()

import qthermo  # noqa: E402
import workloads  # noqa: E402
from loop import Loop  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_four_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    record, lines, facts, summary = run.run_benchmark(name, seed=5, seconds=0.01,
                                                      trace=trace, tiny=True)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], float)
    for key in ("failure_ratio", "worst_margin",
                "cases_per_s" if name == "verify" else "grid_points_per_s"):
        assert key in summary
    assert {"nproc", "blas", "blas_version", "blas_threads", "python", "numpy",
            "git_sha", "seed"} <= set(facts)
    assert facts["blas_threads"] <= facts["nproc"]
    json.loads(json.dumps(record))


@pytest.mark.parametrize("name", NAMES)
def test_inputs_come_from_the_seed_alone(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert pickle.dumps(make(7, True)) == pickle.dumps(make(7, True))
    assert pickle.dumps(make(7, True)) != pickle.dumps(make(8, True))


def test_invalid_input_is_counted_not_fatal(monkeypatch):
    sweep = workloads.WORKLOADS["sweep"]
    good = sweep.make_inputs(3, True)
    bad = copy.deepcopy(good[1])
    bad["h_env"] = {"dim": bad["h_env"]["dim"],
                    "re": [[0.0] * bad["h_env"]["dim"]] * bad["h_env"]["dim"]}
    monkeypatch.setitem(workloads.WORKLOADS, "sweep", dataclasses.replace(
        sweep, make_inputs=lambda seed, tiny: [good[0], bad, good[2]]))
    record, lines, _, summary = run.run_benchmark("sweep", seed=3, seconds=0.01,
                                                  trace=False, tiny=True)
    assert not record["correct"]
    assert 0 < record["failed"] < record["attempted"]
    assert summary["failure_ratio"][0] == record["failed"] / record["attempted"]
    assert any("FAILED input 1" in line and "ScenarioError" in line for line in lines)


def test_failed_output_check_is_counted():
    sweep = workloads.WORKLOADS["sweep"]
    doc = sweep.make_inputs(3, True)[0]
    out, _ = sweep.call(doc)
    broken = copy.deepcopy(out)
    broken["report"]["residual_matched_split"] = 1.0
    broken["report"]["entropy_production"] = float("nan")
    fake = dataclasses.replace(sweep, call=lambda d: (broken, json.dumps(broken)))
    loop = Loop(fake, [doc])
    loop.passes(0.0, min_passes=2)
    assert (loop.attempted, loop.failed) == (2, 2)
    reason = loop.failures[0][1]
    assert "residual_matched_split" in reason and "entropy_production" in reason


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name):
    wl = workloads.WORKLOADS[name]
    pool = wl.make_inputs(4, True)
    plain = [wl.inspect(inp, wl.call(inp)).text for inp in pool]
    original = qthermo.run_scenario
    tracer = Tracer()
    with tracer.installed():
        traced = [wl.inspect(inp, wl.call(inp)).text for inp in pool]
    assert traced == plain
    assert tracer.spans and all(rec[4] >= rec[3] for rec in tracer.spans)
    assert qthermo.run_scenario is original
    assert qthermo.scenario.evolve is qthermo.dynamics.evolve


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
