"""Batch execution runtime: compile once, run everywhere, survive faults.

The paper compiles a Clip mapping into executable artifacts (nested
tgd, XQuery, XSLT) exactly once and then applies them to any number of
instance documents.  This package is the serving-side realization of
that split:

* :mod:`repro.runtime.plan` — :class:`ExecSpec` (the resolved
  engine / optimize / exec-mode triple), :class:`CompiledPlan` (the
  once-per-mapping work, reified) and the structural
  :func:`fingerprint` that identifies it;
* :mod:`repro.runtime.cache` — :class:`PlanCache`, an LRU keyed on
  fingerprints with hit/miss/compile-time accounting;
* :mod:`repro.runtime.batch` — :class:`BatchRunner`, order-preserving
  document fan-out across a process pool (deterministic in-process
  path for ``workers=1``) with per-document fault isolation and
  pool-crash recovery;
* :mod:`repro.runtime.faults` — :class:`ErrorPolicy`
  (``fail_fast``/``skip``/``collect``), :class:`DocumentFailure`
  records, dead-letter persistence, and the deterministic
  :class:`FaultInjector` test harness;
* :mod:`repro.runtime.retry` — :class:`RetryPolicy` (deterministic
  exponential backoff, per-document timeout) and transient-vs-
  permanent error triage;
* :mod:`repro.runtime.metrics` — :class:`BatchMetrics`, the machine-
  readable per-run report (``--metrics-json``), format version 2;
* :mod:`repro.runtime.incremental` — :func:`transform_delta`, delta-
  scoped re-execution of a compiled plan over an edited document: only
  the units a :class:`~repro.xml.diff.Delta` can reach are recomputed,
  the rest of the previous target is spliced back in, byte-identical
  to a full recompute either way;
* :mod:`repro.runtime.trace` — :class:`SpanTracer`, deterministic
  hierarchical execution traces (the ``clip-trace`` format) spanning
  compile → plan → execute → render across every layer, with worker-
  process span merging; :mod:`repro.runtime.traceview` renders them
  as Chrome ``trace_event`` JSON or indented text.

Quickstart::

    from repro.runtime import BatchRunner
    from repro.scenarios import deptstore

    runner = BatchRunner(
        deptstore.mapping_fig4(), workers=4,
        error_policy="collect", max_retries=2, timeout=5.0,
    )
    batch = runner.run(documents)          # list or iterator
    print(batch.metrics.to_json())         # hits, failures, timings…
    for result in batch:                   # input order preserved
        ...
    for letter in batch.dead_letters:      # failed inputs, for replay
        print(letter.failure)
"""

from __future__ import annotations

from .batch import BatchResult, BatchRunner
from .cache import CacheStats, PlanCache, default_cache, get_plan
from .faults import (
    DeadLetter,
    DocumentFailure,
    ErrorPolicy,
    Fault,
    FaultInjector,
    write_dead_letters,
)
from .incremental import (
    DEFAULT_THRESHOLD,
    IncrementalReport,
    IncrementalSession,
    transform_delta,
)
from .metrics import (
    METRICS_FORMAT,
    METRICS_VERSION,
    PARSEABLE_VERSIONS,
    BatchMetrics,
    StageMetrics,
)
from .plan import (
    ENGINES,
    CompiledPlan,
    Composition,
    ExecSpec,
    compile_plan,
    eligible_engines,
    fingerprint,
    plan_from_tgd,
    trace_seed,
)
from .retry import Deadline, RetryPolicy, call_with_timeout, is_transient
from .trace import (
    PARSEABLE_TRACE_VERSIONS,
    TRACE_FORMAT,
    TRACE_VERSION,
    NullTracer,
    Span,
    SpanTracer,
    Trace,
    combine_seeds,
    span_id,
)
from .traceview import render_tree, to_chrome_trace

__all__ = [
    "ENGINES",
    "BatchMetrics",
    "BatchResult",
    "BatchRunner",
    "CacheStats",
    "CompiledPlan",
    "Composition",
    "DEFAULT_THRESHOLD",
    "DeadLetter",
    "Deadline",
    "DocumentFailure",
    "ExecSpec",
    "ErrorPolicy",
    "Fault",
    "FaultInjector",
    "IncrementalReport",
    "IncrementalSession",
    "METRICS_FORMAT",
    "METRICS_VERSION",
    "NullTracer",
    "PARSEABLE_TRACE_VERSIONS",
    "PARSEABLE_VERSIONS",
    "PlanCache",
    "RetryPolicy",
    "Span",
    "SpanTracer",
    "StageMetrics",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "call_with_timeout",
    "combine_seeds",
    "compile_plan",
    "default_cache",
    "eligible_engines",
    "fingerprint",
    "get_plan",
    "is_transient",
    "plan_from_tgd",
    "render_tree",
    "span_id",
    "to_chrome_trace",
    "trace_seed",
    "transform_delta",
    "write_dead_letters",
]
