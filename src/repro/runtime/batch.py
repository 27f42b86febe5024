"""Batch execution: fan a stream of documents across worker processes.

The runtime's contract, in order of importance:

* **plan reuse** — the once-per-mapping work (validity, tgd
  compilation, engine-artifact emission) happens exactly once per
  ``(mapping, engine)`` via the plan cache, however many documents
  run; every document application is one cache retrieval plus one
  evaluation;
* **determinism** — results come back in input order, and
  ``workers=N`` produces byte-for-byte the instances ``workers=1``
  does (the engines are pure functions of plan × document);
* **fault isolation** — partial failure is the normal case: one
  malformed document, one engine error, one timed-out evaluation or
  one crashed worker affects only that document (under
  ``error_policy="skip"``/``"collect"``) or aborts with a full
  failure record (``"fail_fast"``).  Transient failures are retried
  on a deterministic backoff schedule; a crashed pool is rebuilt once
  and the in-flight documents replayed — successful results stay
  byte-identical to a fault-free run;
* **observability** — every run yields a :class:`BatchMetrics` report
  (documents, failures, retries, timeouts, dead-letter counts, cache
  hits/misses, compile/execute/wall seconds, violations) ready for
  ``--metrics-json``.

Documents are XML text or parsed trees.  Reading an instance is part
of applying the mapping, so text is parsed against the source schema
inside the document's attempt: a malformed or slow document fails like
any other, and is dead-lettered as its raw text.

``workers=1`` runs in-process (no pickling, no pool, streaming over
any iterator).  ``workers>1`` ships the *compiled tgd* and the source
schema to each worker once (pool initializer) — workers re-emit only
their engine artifact, and parse text documents themselves — and the
parent reassembles results in input order.  The ``fork`` start
method is preferred where available; when only ``spawn`` exists the
runner checks eagerly that a child interpreter could import ``repro``
(``PYTHONPATH=src`` or an installed package) and raises
:class:`repro.errors.WorkerSetupError` naming the fix instead of
letting the pool die with an opaque traceback.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Optional, Union

from ..core.mapping import ClipMapping
from ..errors import (
    DocumentFailureError,
    WorkerCrashError,
    WorkerSetupError,
)
from ..xml.model import XmlElement
from ..xml.parser import parse_xml
from ..xsd.validate import validate as validate_instance
from .cache import PlanCache, default_cache
from .faults import DeadLetter, DocumentFailure, ErrorPolicy, FaultInjector
from .metrics import BatchMetrics
from .plan import Composition, ExecSpec, plan_from_tgd
from .retry import RetryPolicy, call_with_timeout
from .trace import event_payload, shift_payload

#: An input document: XML text, or an already parsed instance tree.
Document = Union[str, XmlElement]

#: A worker task: (document index, attempt number, document).
Task = tuple

#: A worker record: ("ok", index, attempt, result, evaluation seconds,
#: source elements, payload) or ("err", index, attempt,
#: DocumentFailure, 0.0, 0, payload); ``payload`` is the attempt's
#: serialized span when the run is traced (see
#: :mod:`repro.runtime.trace`).
Record = tuple


def _attempt(
    plan,
    schema,
    doc: Document,
    index: int,
    attempt: int,
    injector: Optional[FaultInjector],
    timeout: Optional[float],
    traced: bool,
) -> tuple[Record, Optional[BaseException]]:
    """One attempt at one document, in-process or in a worker; never
    raises.

    Fires the injected faults, parses a text document against
    ``schema`` and runs the plan, all under ``timeout``.  Returns the
    :data:`Record` and, on failure, the exception itself:
    the record's :class:`DocumentFailure` is what crosses the pool, the
    exception stays in-process (fail_fast chains it as the cause).

    A ``traced`` attempt builds an ``attempt[k]`` span around the
    evaluation (an ``error`` span on failure, carrying the
    :class:`DocumentFailure` triage) and appends its serialized payload
    to the record — the parent grafts it under the right ``doc[i]``
    span, so worker counts never change the canonical tree.  When a
    per-document ``timeout`` is set the engine-internal spans are
    skipped: an abandoned timeout thread keeps running and could race
    the scratch tracer; the attempt span itself (status, timing,
    timed-out triage) is still recorded.
    """
    scratch = span = None
    if traced:
        from .trace import SpanTracer

        scratch = SpanTracer()
        span = scratch.begin(f"attempt[{attempt}]")
    engine_trace = scratch if timeout is None else None

    def call() -> tuple[XmlElement, float, int]:
        if injector is not None:
            injector.fire(index, attempt)
        source = parse_xml(doc, schema=schema) if isinstance(doc, str) else doc
        started = time.perf_counter()
        if engine_trace is None:
            result = plan(source)
        else:
            result = plan.run(source, trace=engine_trace)
        return result, time.perf_counter() - started, source.size()

    cause: Optional[BaseException] = None
    try:
        kind = "ok"
        value, seconds, source_elements = call_with_timeout(call, timeout)
    except Exception as exc:
        cause, seconds, source_elements = exc, 0.0, 0
        kind, value = "err", DocumentFailure.from_exception(
            index, exc, attempts=attempt + 1
        )
    payload = None
    if span is not None:
        if cause is None:
            scratch.end(span, status="ok")
        else:
            span.kind = "error"
            scratch.end(
                span, status="error", error=value.error,
                message=value.message, transient=value.transient,
                timed_out=value.timed_out,
            )
        payload = span.to_payload()
    return (kind, index, attempt, value, seconds, source_elements, payload), cause


# -- worker-process side ----------------------------------------------------

_WORKER_PLAN: Optional[Callable[[XmlElement], XmlElement]] = None
_WORKER_SCHEMA = None
_WORKER_INJECTOR: Optional[FaultInjector] = None
_WORKER_TIMEOUT: Optional[float] = None
_WORKER_TRACE: bool = False


def _init_worker(
    plan_bytes: bytes,
    spec: ExecSpec,
    injector_bytes: bytes,
    timeout: Optional[float],
    trace: bool,
    codegen_source: Optional[str],
) -> None:
    """Pool initializer: rebuild the engine plan once per worker.

    For codegen plans the parent ships the generated *source* (a plain
    string, which pickles; code objects don't) and each worker
    re-materializes its closures with one ``compile()``/``exec`` —
    the deterministic-emission contract lets the worker verify the
    cached source against its own plan.
    """
    global _WORKER_PLAN, _WORKER_SCHEMA, _WORKER_INJECTOR, _WORKER_TIMEOUT
    global _WORKER_TRACE
    tgd, _WORKER_SCHEMA = pickle.loads(plan_bytes)
    _WORKER_PLAN = plan_from_tgd(
        tgd, spec.engine, optimize=spec.optimize,
        exec_mode=spec.exec_mode, codegen_source=codegen_source,
    )
    _WORKER_INJECTOR = pickle.loads(injector_bytes) if injector_bytes else None
    _WORKER_TIMEOUT = timeout
    _WORKER_TRACE = trace


def _run_task(task: Task) -> Record:
    """Apply the worker's plan to one task; never raises.

    Failures come back as picklable :class:`DocumentFailure` records so
    the parent applies retry and error-policy decisions uniformly for
    the in-process and pool paths.  (A scripted ``exit`` fault bypasses
    this via ``os._exit``, which is the point: it simulates a crash.)
    """
    index, attempt, doc = task
    assert _WORKER_PLAN is not None, "worker initializer did not run"
    record, _cause = _attempt(
        _WORKER_PLAN, _WORKER_SCHEMA, doc, index, attempt, _WORKER_INJECTOR,
        _WORKER_TIMEOUT, _WORKER_TRACE,
    )
    return record


# -- parent side ------------------------------------------------------------


class BatchResult:
    """The ordered results of a batch run plus its metrics report.

    ``results`` holds the *successful* outputs in input order;
    ``success_indices`` maps each back to its input position.  Under
    ``error_policy="skip"``/``"collect"``, ``failures`` carries one
    :class:`DocumentFailure` per failed document, and — for
    ``"collect"`` only — ``dead_letters`` pairs each failure with the
    failed input document, ready for
    :func:`repro.runtime.faults.write_dead_letters`.
    """

    __slots__ = ("results", "metrics", "failures", "dead_letters",
                 "success_indices")

    def __init__(
        self,
        results: list[XmlElement],
        metrics: BatchMetrics,
        *,
        failures: Optional[list[DocumentFailure]] = None,
        dead_letters: Optional[list[DeadLetter]] = None,
        success_indices: Optional[list[int]] = None,
    ):
        self.results = results
        self.metrics = metrics
        self.failures = failures if failures is not None else []
        self.dead_letters = dead_letters if dead_letters is not None else []
        self.success_indices = (
            success_indices
            if success_indices is not None
            else list(range(len(results)))
        )

    def __iter__(self) -> Iterator[XmlElement]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self) -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        return (
            f"BatchResult({len(self.results)} documents{failed}, "
            f"engine={self.metrics.engine!r}, workers={self.metrics.workers})"
        )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _require_importable_for_spawn(ctx) -> None:
    """Fail fast, with the fix, when ``spawn`` children cannot import us.

    A ``spawn`` child is a fresh interpreter: it sees ``PYTHONPATH``
    and the standard site directories, not the parent's ``sys.path``
    mutations.  When :mod:`repro` lives outside both (the usual
    in-repo layout under ``src/``), the pool would die with an opaque
    ``ImportError`` traceback; raise a named error instead.
    """
    if ctx.get_start_method() != "spawn":
        return
    import sysconfig

    package_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    )
    candidates = {
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    }
    paths = sysconfig.get_paths()
    for key in ("purelib", "platlib"):
        if key in paths:
            candidates.add(os.path.abspath(paths[key]))
    if package_root not in candidates:
        raise WorkerSetupError(
            "workers>1 uses the 'spawn' start method on this platform, and "
            "spawn children re-import 'repro' in a fresh interpreter — but "
            f"{package_root} is on neither PYTHONPATH nor site-packages, so "
            "the pool would fail with an opaque ImportError. Fix: export "
            f"PYTHONPATH={package_root} (PYTHONPATH=src from the repository "
            "root) or install the package."
        )


def _attach_doc_spans(tracer, span_log: dict) -> None:
    """Build ``doc[i]`` spans from the collected attempt payloads.

    Documents are emitted in input order and attempts in attempt order,
    whatever order the pool completed them in — this, plus the
    payloads being built by the same :func:`_attempt` on both
    paths, is what makes the canonical trace worker-count-independent.
    Each doc span is widened to cover its (re-based) attempts so the
    Chrome rendering nests sensibly.
    """
    for index in sorted(span_log):
        attempts = span_log[index]
        span = tracer.begin(f"doc[{index}]", index=index)
        for attempt in sorted(attempts):
            tracer.attach(attempts[attempt])
        tracer.end(span)
        for child in span.children:
            span.expand(child.t0, child.t1)


class BatchRunner:
    """Apply one mapping to many documents, reusing the compiled plan.

    Parameters
    ----------
    mapping:
        The Clip mapping to apply — or a :class:`Composition` together
        with ``fingerprint`` (a composition has no drawing to
        fingerprint, nor a target schema to ``validate`` against; its
        traces are seeded by the fingerprint).
    engine:
        ``"tgd"`` (default), ``"xquery"`` or ``"xslt"``.
    workers:
        Degree of process fan-out; ``1`` (default) runs in-process.
    cache:
        The :class:`PlanCache` to retrieve plans from; defaults to the
        process-wide cache, so runners share compiled plans.
    validate:
        Validate every result against the mapping's target schema and
        count violations into the metrics.
    error_policy:
        ``"fail_fast"`` (default — first terminal failure raises
        :class:`DocumentFailureError`), ``"skip"`` (drop failed
        documents, count them) or ``"collect"`` (keep failure records
        and dead-letter the failed inputs on the result).
    max_retries / backoff / timeout:
        Shorthand for ``retry=RetryPolicy(max_retries=…, backoff=…,
        timeout=…)``: transient failures are re-attempted up to
        ``max_retries`` times on a deterministic exponential backoff;
        ``timeout`` bounds each document's evaluation wall-clock.
    retry:
        A full :class:`RetryPolicy`, overriding the shorthand knobs.
    injector:
        A :class:`FaultInjector` fired on every ``(document index,
        attempt)`` — the deterministic fault-injection harness used by
        the test suite.
    optimize:
        Evaluation strategy for the tgd engine: ``True`` uses the
        join-aware compiled plans of :mod:`repro.executor.planner`,
        ``False`` the naive reference path, ``None`` (default) the
        ``CLIP_OPTIMIZE`` environment default (on).  Both produce
        byte-identical results; the flag participates in the plan
        fingerprint, so both variants coexist in a shared cache.
    exec_mode:
        Execution mode for the optimized tgd plan: ``"interp"`` walks
        the compiled level plans through the interpreter,
        ``"codegen"`` runs the specialized generated-Python program of
        :mod:`repro.executor.codegen`, ``None`` (default) the
        ``CLIP_EXEC_MODE`` environment default (interp).  Byte-identical
        results; the effective mode participates in the plan
        fingerprint.  Pool workers rebuild codegen closures from the
        cached generated source (shipped once in the initializer).
    trace:
        A :class:`repro.runtime.trace.SpanTracer` to record the run
        into: a ``batch`` span containing one ``doc[i]`` span per
        input with ``attempt[k]`` children (error spans on failure,
        dead-letter events under ``collect``) and the engines' own
        execute/plan subtrees.  Pool workers serialize their spans
        across the process boundary and the parent merges them by
        (document, attempt), so the canonical trace is byte-identical
        for any worker count.  ``None`` (default) records nothing and
        costs nothing.
    fingerprint:
        The precomputed plan fingerprint of ``(mapping, engine,
        optimize, exec_mode)``, for callers (the HTTP service) that
        construct a runner per request against an already-registered
        mapping; ``None`` (default) computes it, as before.  Passing a
        fingerprint that does not match the other arguments corrupts
        cache keying — only pass values obtained from
        :func:`repro.runtime.plan.fingerprint` with identical inputs
        (or, for a composed mapping, its
        :func:`repro.algebra.compose_fingerprint`).
    """

    def __init__(
        self,
        mapping: Union[ClipMapping, Composition],
        *,
        engine: str = "tgd",
        workers: int = 1,
        cache: Optional[PlanCache] = None,
        validate: bool = False,
        error_policy: Union[ErrorPolicy, str] = ErrorPolicy.FAIL_FAST,
        max_retries: int = 0,
        backoff: float = 0.05,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        optimize: Optional[bool] = None,
        exec_mode: Optional[str] = None,
        trace=None,
        fingerprint: Optional[str] = None,
    ):
        self.spec = ExecSpec(engine, optimize, exec_mode)
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self.mapping = mapping
        #: The schema ``validate`` checks results against.
        self.target = None if isinstance(mapping, Composition) else mapping.target
        if validate and self.target is None:
            raise ValueError("validate needs a drawn mapping's target schema")
        self.workers = workers
        self.cache = cache if cache is not None else default_cache()
        self.validate = validate
        self.error_policy = ErrorPolicy.coerce(error_policy)
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=max_retries, backoff=backoff, timeout=timeout
        )
        self.injector = injector
        self.trace = trace
        # One fingerprint per runner: per-document retrievals are then
        # pure dictionary hits.  A long-lived caller (the HTTP service)
        # that already fingerprinted the mapping at registration passes
        # it in, keeping per-request runner construction free of the
        # serialize-and-hash cost.
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else self.spec.fingerprint(mapping)
        )

    # -- execution ---------------------------------------------------------

    def run(self, documents: Iterable[Document]) -> BatchResult:
        """Apply the mapping to every document (XML text or a parsed
        tree), in order.

        Returns the successes (input order preserved) plus failure
        records according to the error policy; see
        :class:`BatchResult`.
        """
        wall_started = time.perf_counter()
        stats_before = self.cache.stats
        metrics = BatchMetrics(
            engine=self.spec.engine,
            workers=self.workers,
            error_policy=self.error_policy.value,
        )
        results: dict[int, XmlElement] = {}
        failures: dict[int, DocumentFailure] = {}
        dead_letters: list[DeadLetter] = []
        tracer = self.trace
        batch_span = None
        span_log: Optional[dict] = None
        owns_trace = False
        if tracer:
            from .plan import trace_seed

            if not tracer.seed:
                # The optimize-independent base fingerprint: span ids
                # agree across evaluation strategies by construction.
                # A composition has no drawing to derive it from; its
                # compose fingerprint is as stable.
                tracer.seed = (
                    self.fingerprint if isinstance(self.mapping, Composition)
                    else trace_seed(self.mapping, self.spec.engine)
                )
            if not tracer.engine:
                tracer.engine = self.spec.engine
            tracer.meta.setdefault("workers", self.workers)
            owns_trace = not tracer.active
            batch_span = tracer.begin("batch", policy=self.error_policy.value)
            # (document index) → (attempt number) → span payload; built
            # identically by the inline and pool paths, so the merged
            # tree is worker-count-independent.
            span_log = {}
        if self.workers == 1:
            self._run_inline(
                documents, metrics, results, failures, dead_letters, span_log
            )
        else:
            self._run_pool(
                documents, metrics, results, failures, dead_letters, span_log
            )
        stats_after = self.cache.stats
        metrics.cache_hits = stats_after.hits - stats_before.hits
        metrics.cache_misses = stats_after.misses - stats_before.misses
        metrics.cache_evictions = stats_after.evictions - stats_before.evictions
        metrics.compile_seconds = (
            stats_after.compile_seconds - stats_before.compile_seconds
        )
        metrics.wall_seconds = time.perf_counter() - wall_started
        if batch_span is not None:
            _attach_doc_spans(tracer, span_log)
            batch_span.attrs["documents"] = metrics.documents + metrics.failures
            tracer.end(batch_span)
            for child in batch_span.children:
                batch_span.expand(child.t0, child.t1)
            if owns_trace:
                metrics.trace = tracer.to_trace().to_dict()
        success_indices = sorted(results)
        dead_letters.sort(key=lambda letter: letter.failure.index)
        return BatchResult(
            [results[index] for index in success_indices],
            metrics,
            failures=[failures[index] for index in sorted(failures)],
            dead_letters=dead_letters,
            success_indices=success_indices,
        )

    def __call__(self, documents: Iterable[Document]) -> BatchResult:
        return self.run(documents)

    def _retrieve_plan(self):
        return self.cache.get_or_compile(
            self.mapping, self.spec.engine, fp=self.fingerprint,
            optimize=self.spec.optimize, exec_mode=self.spec.exec_mode,
        )

    def _settle_failure(
        self,
        failure: DocumentFailure,
        doc: Document,
        metrics: BatchMetrics,
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        cause: Optional[BaseException] = None,
    ) -> None:
        """A document is out of attempts: apply the error policy."""
        metrics.failures += 1
        failures[failure.index] = failure
        if self.error_policy is ErrorPolicy.FAIL_FAST:
            error = DocumentFailureError(failure)
            if cause is not None:
                raise error from cause
            raise error
        if self.error_policy is ErrorPolicy.COLLECT:
            dead_letters.append(DeadLetter(failure, doc))
            metrics.dead_letter += 1

    def _run_inline(
        self,
        documents: Iterable[Document],
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        span_log: Optional[dict] = None,
    ) -> None:
        timeout = self.retry.timeout
        first_plan = None
        counters_before = None
        for index, doc in enumerate(documents):
            plan = self._retrieve_plan()
            if first_plan is None:
                first_plan = plan
                stats = plan.tgd_plan.stats if plan.tgd_plan else None
                # The cached plan accumulates counters across runs;
                # snapshot now so the report shows this run's deltas.
                counters_before = stats.snapshot() if stats else None
            to_submit: deque = deque([(index, 0)])
            while to_submit:
                _, attempt = to_submit.popleft()
                record, cause = _attempt(
                    plan, self.mapping.source, doc, index, attempt,
                    self.injector, timeout, span_log is not None,
                )
                self._handle_record(
                    record, doc, metrics, results, failures, dead_letters,
                    to_submit, span_log, cause,
                )
        if first_plan is not None:
            report = first_plan.plan_report()
            if report is not None:
                stats = (
                    first_plan.tgd_plan.stats if first_plan.tgd_plan else None
                )
                if stats is not None and counters_before is not None:
                    report["counters"] = [
                        c.to_dict() for c in stats.diff(counters_before)
                    ]
                metrics.plan = report

    def _run_pool(
        self,
        documents: Iterable[Document],
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        span_log: Optional[dict] = None,
    ) -> None:
        docs = list(documents)
        if not docs:
            return
        plan = self._retrieve_plan()  # the one compile, if any
        report = plan.plan_report()
        if report is not None:
            # Pool workers keep their runtime counters process-local;
            # the parent reports the static plan shape only.
            report.pop("counters", None)
            metrics.plan = report
        payload = pickle.dumps((plan.tgd, self.mapping.source))
        injector_bytes = (
            pickle.dumps(self.injector) if self.injector is not None else b""
        )
        # Codegen closures don't pickle (code objects); ship the
        # generated source string and let each worker re-exec it.
        codegen_source = None
        if plan.tgd_plan is not None and plan.tgd_plan.program is not None:
            codegen_source = plan.tgd_plan.program.source
        ctx = _pool_context()
        _require_importable_for_spawn(ctx)

        def make_executor() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(payload, self.spec, injector_bytes,
                          self.retry.timeout, span_log is not None,
                          codegen_source),
            )

        # Retrieval accounting matches the inline path: one cache
        # access per document (the retrieval above covers document 0).
        for _ in range(len(docs) - 1):
            self._retrieve_plan()

        to_submit: deque = deque((index, 0) for index in range(len(docs)))
        pending: dict = {}
        executor = make_executor()
        try:
            while to_submit or pending:
                crashed = False
                try:
                    while to_submit:
                        index, attempt = to_submit[0]
                        future = executor.submit(
                            _run_task, (index, attempt, docs[index])
                        )
                        to_submit.popleft()
                        pending[future] = (index, attempt)
                except BrokenProcessPool:
                    crashed = True
                if pending and not crashed:
                    done, _ = wait(
                        set(pending), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index, attempt = pending.pop(future)
                        error = future.exception()
                        if isinstance(error, BrokenProcessPool):
                            # This future was in flight when a worker
                            # died; schedule its replay.
                            crashed = True
                            to_submit.appendleft((index, attempt + 1))
                            continue
                        if error is not None:
                            raise error
                        self._handle_record(
                            future.result(), docs[index], metrics, results,
                            failures, dead_letters, to_submit, span_log,
                        )
                if crashed:
                    metrics.pool_rebuilds += 1
                    if metrics.pool_rebuilds > 1:
                        raise WorkerCrashError(
                            "worker pool crashed twice; giving up "
                            f"({len(results)} of {len(docs)} documents "
                            "completed)"
                        )
                    # Rebuild once and replay every in-flight document;
                    # completed results are untouched, so successful
                    # outputs stay identical to a crash-free run.
                    for future, (index, attempt) in pending.items():
                        to_submit.append((index, attempt + 1))
                    pending.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = make_executor()
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _handle_record(
        self,
        record: Record,
        doc: Document,
        metrics: BatchMetrics,
        results: dict[int, XmlElement],
        failures: dict[int, DocumentFailure],
        dead_letters: list[DeadLetter],
        to_submit: deque,
        span_log: Optional[dict] = None,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Settle one attempt's record, from either path: keep a
        success, schedule a retry onto ``to_submit``, or apply the
        error policy to a terminal failure (``cause`` is the in-process
        exception fail_fast chains, when there is one)."""
        kind, index, attempt, value, seconds, source_elements, payload = record
        if payload is not None and span_log is not None:
            # Re-base the attempt's clock (a worker's is its own) so
            # the subtree ends when the record arrived (durations
            # preserved; canonical output ignores timestamps either
            # way), then keep the *first* payload per (document,
            # attempt) — crash replays can duplicate one, and
            # first-wins matches the result dedup.
            shift_payload(payload, time.perf_counter() - payload["t1"])
            attempts = span_log.setdefault(index, {})
            if attempt in attempts:
                payload = attempts[attempt]
            else:
                attempts[attempt] = payload
        if kind == "ok":
            # A crash replay can duplicate a completed document (the
            # pure engines make re-evaluation idempotent); keep the
            # first result.
            if index not in results:
                results[index] = value
                metrics.documents += 1
                metrics.execute_seconds += seconds
                metrics.source_elements += source_elements
                metrics.target_elements += value.size()
                if self.validate:
                    metrics.validation_violations += len(
                        validate_instance(value, self.target)
                    )
            return
        failure = value
        failure.attempts = attempt + 1
        if failure.timed_out:
            metrics.timeouts += 1
        if self.retry.should_retry(attempt + 1, failure.transient):
            metrics.retries += 1
            if payload is not None:
                payload["attrs"]["retried"] = True
            delay = self.retry.delay(attempt + 1)
            if delay:
                time.sleep(delay)
            to_submit.append((index, attempt + 1))
            return
        if payload is not None:
            payload["attrs"]["terminal"] = True
            if self.error_policy is ErrorPolicy.COLLECT:
                payload["children"].append(
                    event_payload(
                        "dead-letter", at=payload["t1"],
                        error=failure.error,
                    )
                )
        self._settle_failure(
            failure, doc, metrics, failures, dead_letters, cause=cause
        )
