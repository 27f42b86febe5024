"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions of each layer with timing
wrappers and restores them on :meth:`Tracer.uninstall`.  Every wrapped
call records a span (name, start, end, parent span, request id, phase);
garbage-collector pauses arrive through ``gc.callbacks`` and are spans
too, children of whatever span was open in the collecting thread.
Spans stay in memory until :meth:`Tracer.dump`.

A module-level function is patched at every import site: each loaded
``repro`` module whose attribute *is* the original function gets the
wrapper, so ``from ..xml.parser import parse_xml`` copies are covered.
A target that no longer exists is skipped and its layer reads 0.

``call_with_timeout`` runs its callable in a new thread; the wrapper
hands the new thread the calling thread's open span, so spans inside
(parse, plan run) nest under it and its self time is the thread start
and join.

Pool workers are separate processes: their spans are never seen here,
so on ``batch-pool`` the parent-side layers are all the trace shows.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: (dotted owner, attribute, span name).  Owners are modules (patched
#: at every import site) or classes (patched once).
FUNCTIONS = (
    ("repro.xml.parser", "parse_xml", "xml.parse"),
    ("repro.xml.serialize", "to_xml", "xml.serialize"),
    ("repro.xml.diff", "compute_delta", "xml.diff"),
    ("repro.core.validity", "check", "core.check"),
    ("repro.core.compile", "compile_clip", "core.compile_clip"),
    ("repro.executor.engine", "prepare", "executor.prepare"),
    ("repro.runtime.retry", "call_with_timeout", "runtime.retry.call"),
    ("repro.runtime.incremental", "transform_delta", "runtime.incremental"),
)
METHODS = (
    ("repro.xml.model.XmlElement", "size", "xml.model.size"),
    ("repro.executor.engine.TgdPlan", "run", "executor.run"),
    ("repro.runtime.cache.PlanCache", "lookup", "runtime.cache.lookup"),
    ("repro.runtime.batch.BatchRunner", "run", "runtime.batch"),
    ("repro.runtime.retry.Deadline", "run", "runtime.retry.deadline"),
    ("repro.service.app.ClipService", "dispatch", "service.dispatch"),
)
#: Modules imported before installing, so their import sites exist.
MODULES = ("repro", "repro.xml", "repro.executor", "repro.runtime",
           "repro.runtime.batch", "repro.runtime.plan", "repro.service.app")

#: Per-layer metric names and units, in report order.
METRICS = (
    ("xml.parse.ms_per_doc", "ms"),
    ("xml.parse.calls_per_doc", "count"),
    ("xml.parse.mb_per_s", "MB/s"),
    ("xml.serialize.ms_per_doc", "ms"),
    ("xml.serialize.calls_per_doc", "count"),
    ("xml.model.size_calls_per_doc", "count"),
    ("xml.diff.ms_per_doc", "ms"),
    ("core.compile.ms", "ms"),
    ("executor.prepare.ms", "ms"),
    ("executor.run.ms_per_doc", "ms"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.batch.self_ms_per_doc", "ms"),
    ("runtime.retry.self_ms_per_doc", "ms"),
    ("runtime.retry.threads_per_doc", "count"),
    ("runtime.incremental.ms_per_doc", "ms"),
    ("runtime.incremental.scoped_ratio", "ratio"),
    ("service.self_ms_per_doc", "ms"),
    ("gc.pause_ms_per_doc", "ms"),
    ("gc.gen2_per_doc", "count"),
    ("gc.share_pct", "%"),
    ("trace.overhead_pct", "%"),
)


def _resolve(dotted: str):
    """The module or class a dotted name points at, or ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return owner
    return None


class Tracer:
    """Records spans from wrappers it installs into the program."""

    def __init__(self):
        #: [name, t0, t1, parent, request, phase, attrs]
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self.phase = ""
        #: phase -> [plan-cache hits, misses]
        self.lookups: Dict[str, List[int]] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._gc_started: Dict[int, float] = {}
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span_id = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else None,
                           self.request, self.phase, None])
        stack.append(span_id)
        return span_id

    def end(self, span_id: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[span_id]
        span[2] = time.perf_counter()
        span[6] = attrs
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        thread = threading.get_ident()
        if phase == "start":
            self._gc_started[thread] = time.perf_counter()
            return
        started = self._gc_started.pop(thread, None)
        if started is None:
            return
        stack = self._stack()
        self.spans.append(["gc", started, time.perf_counter(),
                           stack[-1] if stack else None, self.request,
                           self.phase, {"generation": info["generation"]}])

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self
        if name == "runtime.cache.lookup":
            def lookup(cache, fp):
                plan = original(cache, fp)
                counts = tracer.lookups.setdefault(tracer.phase, [0, 0])
                counts[plan is None] += 1
                return plan
            return functools.wraps(original)(lookup)
        if name == "xml.model.size":
            def size(node):
                if node.parent is not None:
                    return original(node)
                span = tracer.begin(name)
                try:
                    return original(node)
                finally:
                    tracer.end(span)
            return functools.wraps(original)(size)
        if name == "runtime.retry.call":
            def call_with_timeout(fn, timeout, *args, **kwargs):
                span = tracer.begin(name)

                def inside():
                    saved = getattr(tracer._local, "stack", None)
                    tracer._local.stack = [span]
                    try:
                        return fn()
                    finally:
                        tracer._local.stack = saved

                try:
                    return original(inside, timeout, *args, **kwargs)
                finally:
                    tracer.end(span, {"thread": timeout is not None})
            return functools.wraps(original)(call_with_timeout)

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(span, _attrs(name, args, result))
        return functools.wraps(original)(wrapper)

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(module)
        for dotted, attr, name in FUNCTIONS:
            owner = _resolve(dotted)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{dotted}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for dotted, attr, name in METHODS:
            owner = _resolve(dotted)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(f"{dotted}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write every span out, one JSON object per line."""
        keys = ("name", "t0", "t1", "parent", "request", "phase", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                record = dict(zip(keys, span), id=span_id)
                handle.write(json.dumps(record) + "\n")


def _attrs(name: str, args: tuple, result) -> Optional[dict]:
    if name == "xml.parse" and args and isinstance(args[0], str):
        return {"bytes": len(args[0].encode("utf-8"))}
    if name == "runtime.incremental" and isinstance(result, tuple):
        return {"mode": getattr(result[1], "mode", "")}
    return None


def layer_times(spans: List[list]) -> List[dict]:
    """Duration, self time (minus child spans) and GC time inside, per
    span.  Child spans include GC pauses, so self time excludes them."""
    rows = [{"dur": (s[2] or s[1]) - s[1], "child": 0.0, "gc": 0.0}
            for s in spans]
    # Children are recorded after their parents, so one reverse pass
    # carries every subtree's totals up.
    for span_id in range(len(spans) - 1, -1, -1):
        parent = spans[span_id][3]
        if parent is None:
            continue
        row = rows[span_id]
        rows[parent]["child"] += row["dur"]
        rows[parent]["gc"] += row["gc"] + (
            row["dur"] if spans[span_id][0] == "gc" else 0.0
        )
    for row in rows:
        row["self"] = row["dur"] - row["child"]
    return rows


def summarize(tracer: Tracer, docs: int, window_s: float,
              setup_phases: List[str], untraced_docs_per_s: float,
              traced_docs_per_s: Optional[float] = None) -> dict:
    """The per-layer metrics of the ``window`` phase (set-up metrics
    are the median over the ``setup_phases``).  ``window_s`` is the
    time spent in steps; ``traced_docs_per_s`` defaults to ``docs``
    over it, and is compared with ``untraced_docs_per_s`` for the
    tracing overhead."""
    spans = tracer.spans
    rows = layer_times(spans)
    docs = max(docs, 1)

    def select(phase: str, *names: str):
        return [(spans[i], rows[i]) for i in range(len(spans))
                if spans[i][5] == phase and spans[i][0] in names]

    def ms_per_doc(key: str, *names: str) -> float:
        picked = select("window", *names)
        if key == "call":  # the call's time, without GC pauses inside
            total = sum(row["dur"] - row["gc"] for _, row in picked)
        else:
            total = sum(row["self"] for _, row in picked)
        return 1000.0 * total / docs

    def per_doc(*names: str) -> float:
        return len(select("window", *names)) / docs

    def setup_ms(*names: str) -> float:
        totals = [sum(row["dur"] - row["gc"] for _, row in select(p, *names))
                  for p in setup_phases]
        return 1000.0 * statistics.median(totals) if totals else 0.0

    parses = select("window", "xml.parse")
    parse_s = sum(row["dur"] - row["gc"] for _, row in parses)
    parse_bytes = sum((span[6] or {}).get("bytes", 0) for span, _ in parses)
    deltas = select("window", "runtime.incremental")
    scoped = sum((span[6] or {}).get("mode") in ("scoped", "unchanged")
                 for span, _ in deltas)
    pauses = select("window", "gc")
    pause_s = sum(row["dur"] for _, row in pauses)
    hits, misses = tracer.lookups.get("window", (0, 0))
    threads = sum(bool((span[6] or {}).get("thread"))
                  for span, _ in select("window", "runtime.retry.call"))
    if traced_docs_per_s is None:
        traced_docs_per_s = docs / window_s if window_s > 0 else 0.0
    values = {
        "xml.parse.ms_per_doc": ms_per_doc("call", "xml.parse"),
        "xml.parse.calls_per_doc": per_doc("xml.parse"),
        "xml.parse.mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "xml.serialize.ms_per_doc": ms_per_doc("call", "xml.serialize"),
        "xml.serialize.calls_per_doc": per_doc("xml.serialize"),
        "xml.model.size_calls_per_doc": per_doc("xml.model.size"),
        "xml.diff.ms_per_doc": ms_per_doc("call", "xml.diff"),
        "core.compile.ms": setup_ms("core.check", "core.compile_clip"),
        "executor.prepare.ms": setup_ms("executor.prepare"),
        "executor.run.ms_per_doc": ms_per_doc("self", "executor.run"),
        "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.batch.self_ms_per_doc": ms_per_doc("self", "runtime.batch"),
        "runtime.retry.self_ms_per_doc": ms_per_doc(
            "self", "runtime.retry.deadline", "runtime.retry.call"),
        "runtime.retry.threads_per_doc": threads / docs,
        "runtime.incremental.ms_per_doc": ms_per_doc(
            "call", "runtime.incremental"),
        "runtime.incremental.scoped_ratio": scoped / len(deltas) if deltas else 0.0,
        "service.self_ms_per_doc": ms_per_doc("self", "service.dispatch"),
        "gc.pause_ms_per_doc": 1000.0 * pause_s / docs,
        "gc.gen2_per_doc": sum((span[6] or {}).get("generation") == 2
                               for span, _ in pauses) / docs,
        "gc.share_pct": 100.0 * pause_s / window_s if window_s > 0 else 0.0,
        "trace.overhead_pct": (
            100.0 * (1.0 - traced_docs_per_s / untraced_docs_per_s)
            if untraced_docs_per_s > 0 else 0.0
        ),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}
