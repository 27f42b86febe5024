"""Tests of the benchmark itself: verification, seeding, tracing, contract.

Run with ``python -m pytest perfbench -q`` from the repository root.
Every workload runs here at a tiny geometry, so the tests take seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

import calibrate
import layers
import run
import workloads
from repro.scenarios.workload import DeptstoreSpec
from repro.service import app
from repro.xml import serialize

TINY = DeptstoreSpec(departments=4, projects_per_dept=4, employees_per_dept=6)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name: str):
    workload = workloads.WORKLOADS[name](TINY)
    workload.setups = 1
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_run_verifies_every_unit(name):
    workload = tiny(name)
    workload.generate(3)
    tally = run.Tally()
    window = run.run_protocol(workload, 0.05, tally, _Fixed())
    assert window["docs"] >= 1
    assert tally.attempted > window["docs"]
    assert tally.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_is_a_failure(name, monkeypatch):
    """Negative control: one changed output byte fails the unit."""
    workload = tiny(name)
    workload.generate(3)
    state, ok = workload.setup()
    assert ok
    original = serialize.to_xml

    def corrupted(root, **kwargs):
        return original(root, **kwargs).replace("<", " <", 1)

    monkeypatch.setattr(serialize, "to_xml", corrupted)
    monkeypatch.setattr(app, "to_xml", corrupted)
    units = workload.step(state)
    assert units and not any(ok for _, ok in units)
    tally = run.Tally()
    tally.add(units)
    assert tally.failed == tally.attempted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    def inputs(seed):
        workload = tiny(name)
        workload.generate(seed)
        return [getattr(workload, attr, None)
                for attr in ("bodies", "texts", "cycle", "references")]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_edit_cycle_returns_to_its_base_through_distinct_documents():
    workload = tiny("delta-edit")
    workload.generate(9)
    assert len(set(workload.cycle)) == len(workload.cycle) == 2 * workload.edits
    assert workload.cycle[-1] == workload.base_text


def test_tracer_restores_the_program_and_reports_every_layer():
    from repro.executor.engine import TgdPlan
    from repro.xml import parser

    before = (parser.parse_xml, app.parse_xml, TgdPlan.run)
    workload = tiny("service-join")
    workload.generate(1)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert app.parse_xml is not before[1]
        window = run.run_protocol(workload, 0.05, run.Tally(), _Fixed(),
                                  tracer)
    finally:
        tracer.uninstall()
    assert (parser.parse_xml, app.parse_xml, TgdPlan.run) == before
    assert not tracer.missing
    metrics = layers.summarize(tracer, window["docs"], window["window_s"],
                               window["setup_phases"], 1.0)
    assert [name for name, _ in layers.METRICS] == list(metrics)
    assert metrics["xml.parse.calls_per_doc"]["value"] >= 1
    assert metrics["runtime.cache.hit_ratio"]["value"] == 1.0
    # A parse inside the deadline thread nests under the thread's span.
    names = {span_id: span[0] for span_id, span in enumerate(tracer.spans)}
    parents = {names.get(span[3]) for span in tracer.spans
               if span[0] == "xml.parse"}
    assert "runtime.retry.call" in parents


class _Fixed:
    """A calibrator whose host always runs at ``1 / factor`` of the
    reference speed."""

    def __init__(self, factor: float = 1.0):
        self.factor = factor
        self.times = []

    def measure(self) -> float:
        self.times.append(calibrate.REFERENCE_S / self.factor)
        return self.factor


def test_every_timed_span_is_scaled_by_the_calibrator(monkeypatch):
    workload = tiny("service-join")
    workload.generate(3)
    workload.setups = 3
    ticks = iter(range(10 ** 6))
    # The benchmark's clock advances one second per reading: each
    # set-up and each step takes exactly one second as measured.
    monkeypatch.setattr(run, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks)),
        process_time=time.process_time,
    ))
    calibrator = _Fixed(0.5)
    window = run.run_protocol(workload, 5.0, run.Tally(), calibrator)
    assert window["raw_setup_times"] == [1.0, 1.0, 1.0]
    assert window["setup_times"] == [0.5, 0.5, 0.5]
    assert window["scaled_step_s"] == 0.5 * window["step_s"]
    assert window["scaled_cpu_s"] == pytest.approx(0.5 * window["cpu_s"])
    assert len(calibrator.times) == workload.setups + window["docs"]


def test_calibrator_scales_by_the_trailing_median_and_stops_its_child():
    with calibrate.Calibrator() as calibrator:
        children = calibrator._children
        assert len(calibrator.times) == calibrate.WARM_CALLS
        factor = calibrator.measure()
        recent = calibrator.times[-calibrate.WINDOW:]
        assert factor == calibrate.REFERENCE_S / statistics.median(recent)
        assert all(seconds > 0 for seconds in calibrator.times)
    assert [child.returncode for child in children] == [0, 0]


def test_self_time_excludes_children_and_gc():
    spans = [
        ["service.dispatch", 0.0, 10.0, None, 0, "window", None],
        ["xml.parse", 1.0, 5.0, 0, 0, "window", None],
        ["gc", 2.0, 3.0, 1, 0, "window", {"generation": 2}],
        ["gc", 6.0, 8.0, 0, 0, "window", {"generation": 0}],
    ]
    rows = layers.layer_times(spans)
    assert rows[0]["self"] == 10.0 - 4.0 - 2.0
    assert rows[0]["gc"] == 3.0
    assert rows[1]["self"] == 3.0
    assert rows[1]["dur"] - rows[1]["gc"] == 3.0


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
