"""Bytes-in/bytes-out benchmark of the Clip mapping runtime.

Run from the repository root::

    python3 perfbench/run.py --workload service-join --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs per process.  The inputs are generated from
``--seed``, references are computed, then the workload is set up
several times (``setup_s`` is the median), warmed up to its steady
state, and driven in a closed loop for ``--seconds``.  A calibration
yardstick timed after every set-up and step scales every reported time to
a reference host speed (``calibrate.py``).  With
``--trace 1`` the same protocol runs a second time with the layer
wrappers of ``layers.py`` installed, and the per-layer metrics of that
second window are printed instead.  ``--workload all`` runs each
workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their spans.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (
    ("setup_s", "s"),
    ("docs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_doc", "ms"),
    ("peak_rss_mb", "MB"),
)
WORKLOAD_NAMES = ("service-join", "fanout-exec", "batch-pool", "delta-edit")


class Tally:
    """Units attempted and failed across set-up, warm-up and windows."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, units) -> None:
        self.attempted += len(units)
        self.failed += sum(not ok for _, ok in units)


def percentile(samples, pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for
    children (the pool workers), at microsecond resolution."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_kib() -> int:
    """This process's peak RSS plus the peak of its largest finished
    child (a pool worker), in KiB (``ru_maxrss`` on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_protocol(workload, seconds: float, tally: Tally, calibrator,
                 tracer=None) -> dict:
    """Set-ups, warm-up and one closed-loop window of ``seconds``.

    The calibration yardstick is measured after every timed span, and the
    span is scaled by the factor that returns (see ``calibrate.py``);
    the times as measured are kept beside the scaled ones.
    """
    setup_times = []
    raw_setup_times = []
    state = None
    began = time.perf_counter()
    for number in range(workload.setups):
        if tracer is not None:
            tracer.phase = f"setup{number}"
        started = time.perf_counter()
        state, ok = workload.setup()
        took = time.perf_counter() - started
        scale = calibrator.measure()
        raw_setup_times.append(took)
        setup_times.append(took * scale)
        tally.attempted += 1
        tally.failed += not ok
    if tracer is not None:
        tracer.phase = "warm"
    setup_done = time.perf_counter()
    tally.add(workload.warm(state))
    warm_s = time.perf_counter() - setup_done
    latencies = []
    steps = 0
    step_s = scaled_step_s = cpu_s = scaled_cpu_s = 0.0
    started = time.perf_counter()
    elapsed = 0.0
    if tracer is not None:
        tracer.phase = "window"
    while elapsed < seconds:
        if tracer is not None:
            tracer.request = steps
        cpu_started = _cpu_seconds()
        step_started = time.perf_counter()
        try:
            units = workload.step(state)
        except Exception:  # noqa: BLE001 — a raised error is a failed unit
            traceback.print_exc()
            units = [(0.0, False)]
        took = time.perf_counter() - step_started
        cpu = _cpu_seconds() - cpu_started
        if tracer is not None:
            tracer.phase = "calibrate"
        scale = calibrator.measure()
        if tracer is not None:
            tracer.phase = "window"
        step_s += took
        scaled_step_s += took * scale
        cpu_s += cpu
        scaled_cpu_s += cpu * scale
        elapsed = time.perf_counter() - started
        steps += 1
        tally.add(units)
        latencies.extend(seconds_ * scale for seconds_, ok in units if ok)
    peak_rss_kib = _peak_rss_kib()
    if tracer is not None:
        tracer.phase = "done"
        tracer.request = None
    docs = len(latencies)
    return {
        "setup_times": setup_times,
        "raw_setup_times": raw_setup_times,
        "docs": docs,
        "window_s": elapsed,
        "step_s": step_s,
        "scaled_step_s": scaled_step_s,
        "latencies": latencies,
        "cpu_s": cpu_s,
        "scaled_cpu_s": scaled_cpu_s,
        "peak_rss_kib": peak_rss_kib,
        "setup_phases": [f"setup{n}" for n in range(workload.setups)],
        "setups_s": setup_done - began,
        "warm_s": warm_s,
    }


def end_to_end(window: dict, workload) -> dict:
    """The end-to-end metrics; times are scaled to the reference host."""
    docs = max(window["docs"], 1)
    latencies = window["latencies"] or [0.0]
    values = {
        "setup_s": statistics.median(window["setup_times"]),
        "docs_per_s": window["docs"] / window["scaled_step_s"],
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * percentile(latencies, workload.tail_pct),
        "cpu_ms_per_doc": 1000.0 * window["scaled_cpu_s"] / docs,
        "peak_rss_mb": window["peak_rss_kib"] / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]()
    tally = Tally()
    started = time.perf_counter()
    workload.generate(seed)
    generate_s = time.perf_counter() - started
    with calibrate.Calibrator() as calibrator:
        window = run_protocol(workload, seconds, tally, calibrator)
        metrics = end_to_end(window, workload)
        yardstick_ms = 1000.0 * statistics.median(calibrator.times)
        samples = len(window["latencies"])
        beyond = samples - int(samples * workload.tail_pct / 100)
        print(f"# {name}: doc = {workload.unit}")
        print(f"# seed {seed}, {window['docs']} docs in {window['window_s']:.2f} s "
              f"({window['step_s']:.2f} s in steps), latency_tail_ms is "
              f"p{workload.tail_pct} of {samples} samples (about {beyond} beyond)")
        print(f"# inputs and references {generate_s:.2f} s, {workload.setups} "
              f"set-ups {window['setups_s']:.2f} s, warm-up {window['warm_s']:.2f} s")
        print("# set-up times as measured (s): "
              + " ".join(f"{t:.3f}" for t in window["raw_setup_times"]))
        print(f"# calibration yardstick: median {yardstick_ms:.3f} ms over "
              f"{len(calibrator.times)} measurements, reference "
              f"{1000.0 * calibrate.REFERENCE_S:.3f} ms; times below are "
              f"scaled to the reference (as measured: "
              f"{window['docs'] / window['step_s']:.3f} docs/s, "
              f"{1000.0 * window['cpu_s'] / max(window['docs'], 1):.1f} "
              f"cpu ms/doc)")
        for metric, entry in metrics.items():
            print(f"#   {metric:<16} {entry['value']:12.4f} {entry['unit']}")
        if trace:
            metrics = run_traced(name, seed, seconds, workload, tally,
                                 calibrator, metrics)
    error_rate = tally.failed / tally.attempted
    print(f"#   error_rate {error_rate:.4f} ({tally.failed} of "
          f"{tally.attempted} units)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_traced(name, seed, seconds, workload, tally, calibrator,
               untraced) -> dict:
    """The protocol again with the layer wrappers installed; returns
    the per-layer metrics."""
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = run_protocol(workload, seconds, tally, calibrator, tracer)
    finally:
        tracer.uninstall()
    metrics = layers.summarize(
        tracer, traced["docs"], traced["step_s"], traced["setup_phases"],
        untraced["docs_per_s"]["value"],
        traced_docs_per_s=traced["docs"] / traced["scaled_step_s"],
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    tracer.dump(path)
    print(f"# traced: {traced['docs']} docs in {traced['window_s']:.2f} s, "
          f"{len(tracer.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    if tracer.missing:
        print(f"# not found, layer reads 0: {', '.join(tracer.missing)}")
    if name == "batch-pool":
        print("# pool workers are separate processes: their parse, run "
              "and GC are not traced; layers shown are the parent's")
    for metric, entry in metrics.items():
        print(f"#   {metric:<34} {entry['value']:12.4f} {entry['unit']}")
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with "
                             f"{completed.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
