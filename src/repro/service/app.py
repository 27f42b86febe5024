"""The mapping service: HTTP-shaped request handling over the batch runtime.

:class:`ClipService` is transport-independent — :meth:`ClipService.dispatch`
takes ``(method, path, headers, body)`` and returns a
:class:`ServiceResponse`; :mod:`repro.service.server` adapts it onto
``http.server``.  That split keeps the entire request surface testable
without sockets and the HTTP layer a thin shim.

Endpoints
---------

* ``POST /mappings`` — register a ``clip-mapping`` JSON document
  (optionally ``?engine=``/``?optimize=``/``?exec_mode=``); compiles it
  once into the shared :class:`~repro.runtime.cache.PlanCache` and
  returns the fingerprint that transform requests address it by.
  Re-registering is idempotent and a visible plan-cache hit.
* ``POST /mappings/compose`` — fuse two registered mappings (JSON
  envelope ``{"first": FP_AB, "second": FP_BC}``) into one composed
  ``A→C`` plan via :func:`repro.algebra.compose_tgds`; the composed
  entry is addressable by its :func:`repro.algebra.compose_fingerprint`
  exactly like a registered mapping, and transforms through it are
  byte-identical to chaining the two originals.  Pairs outside the
  composable fragment answer 422 with the :class:`ComposeError` reason.
  A composition is one more :class:`RegisteredMapping` (with no Clip
  drawing behind it) and serves single, batch and delta transforms
  like a drawn mapping.
* ``POST /transform?mapping=FP`` — transform one document (raw XML
  body, or a JSON envelope ``{"mapping": …, "document": …}``); the
  response body is the output XML, byte-identical to what the CLI
  ``run -o`` writes for the same inputs.
* ``POST /transform/batch`` — transform many documents through
  :class:`~repro.runtime.batch.BatchRunner` (JSON envelope); each
  result's XML is byte-identical to the file CLI ``batch --output-dir``
  writes.
* ``POST /transform/delta`` — re-transform an *edited* document
  incrementally (JSON envelope ``{"request": "req-…", "document":
  …}``): the named past transform supplies the previous source/target
  pair, :func:`~repro.runtime.incremental.transform_delta` recomputes
  only what the edit can reach, and the response XML is byte-identical
  to a full ``POST /transform`` of the edited document.  Responses are
  themselves stored in history, so successive edits chain.
* ``GET /requests/{id}[/metrics|/trace|/explain]`` — the
  ``clip-batch-metrics`` / ``clip-trace`` / ``clip-plan-explain``
  payloads of a past transform request (bounded history).
* ``GET /mappings[/{fp}]`` — registry listing and per-mapping detail
  (compiled-plan report, served via :meth:`PlanCache.peek` so
  inspection never skews the hit/miss statistics).
* ``GET /health`` — liveness (open even when HMAC auth is on).
* ``GET /metrics`` — Prometheus text exposition
  (:mod:`repro.service.metrics`).

All three transform endpoints run one request pipeline
(:meth:`ClipService._transform`): request id and error envelope →
deadline → decode envelope → lookup → execute → count → store →
respond.  Only envelope decoding and the execute step differ per
endpoint, and drawn and composed mappings take the same path.  Each
execute step parses its documents inside its one timed call: the
:class:`~repro.runtime.batch.BatchRunner` takes the texts, and the
delta step parses inside its ``deadline.run``.

Production-safety contract (the heimdex worker idioms): every request
runs under a :class:`~repro.runtime.retry.Deadline` whose overrun is
the same transient :class:`~repro.errors.DocumentTimeout` the batch
timeout raises (returned as a structured 504); malformed documents and
per-document failures shed into the existing error-policy/dead-letter
machinery instead of crashing the server; the in-flight ceiling sheds
excess load with 503; errors map onto structured JSON envelopes from
the :mod:`repro.errors` hierarchy; optional HMAC auth guards every
parsing path.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from .. import errors as errors_module
from ..algebra import compose_fingerprint, compose_tgds
from ..core.mapping import ClipMapping
from ..core.tgd import NestedTgd
from ..errors import (
    AlgebraError,
    AuthError,
    DocumentFailureError,
    DocumentTimeout,
    ExecModeError,
    ExecutionError,
    GenerationError,
    InvalidMappingError,
    MappingError,
    OverloadError,
    PayloadTooLargeError,
    ReproError,
    SchemaError,
    ServiceError,
    TransientError,
    UnknownMappingError,
    XmlError,
    XQueryError,
)
from ..executor.stats import PlanExplain
from ..io import loads as load_mapping_text
from ..runtime import (
    BatchMetrics,
    BatchResult,
    BatchRunner,
    Composition,
    DeadLetter,
    Deadline,
    DocumentFailure,
    ErrorPolicy,
    ExecSpec,
    PlanCache,
    SpanTracer,
    is_transient,
    plan_from_tgd,
    transform_delta,
    write_dead_letters,
)
from ..xml.diff import compute_delta
from ..xml.model import XmlElement
from ..xml.parser import parse_xml
from ..xml.serialize import to_xml
from .auth import SIGNATURE_HEADER, verify_signature
from .config import ServiceConfig
from .metrics import ServiceMetrics

#: Schema identifiers of the JSON documents the service emits.
ERROR_FORMAT = "clip-service-error"
ERROR_VERSION = 1
BATCH_FORMAT = "clip-service-batch"
BATCH_VERSION = 1
MAPPING_FORMAT = "clip-service-mapping"
MAPPING_VERSION = 1

#: The repro.errors hierarchy mapped onto HTTP statuses, most specific
#: first — the first ``isinstance`` match wins.
_STATUS_BY_TYPE: Tuple[Tuple[type, int], ...] = (
    (AuthError, 401),
    (UnknownMappingError, 404),
    (PayloadTooLargeError, 413),
    (OverloadError, 503),
    (DocumentTimeout, 504),
    (TransientError, 503),
    (AlgebraError, 422),
    (InvalidMappingError, 422),
    (ExecModeError, 400),
    (XmlError, 400),
    (SchemaError, 400),
    (MappingError, 400),
    (GenerationError, 400),
    (XQueryError, 500),
    (ExecutionError, 500),
    (ServiceError, 400),
    (ReproError, 500),
    (ValueError, 400),
)


def error_status(error: BaseException) -> int:
    """The HTTP status for an exception, per the hierarchy table — or
    the ``http_status`` an exception was raised with (see
    :func:`_not_found`)."""
    pinned = getattr(error, "http_status", None)
    if pinned is not None:
        return pinned
    for cls, status in _STATUS_BY_TYPE:
        if isinstance(error, cls):
            return status
    return 500


def status_for_failure(failure: DocumentFailure) -> int:
    """The HTTP status for a :class:`DocumentFailure` record.

    Failure records cross the worker-pool boundary carrying the
    exception *class name*, not the object; resolve it against
    :mod:`repro.errors` and fall back on the transient triage.
    """
    if failure.timed_out:
        return 504
    cls = getattr(errors_module, failure.error, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        for klass, status in _STATUS_BY_TYPE:
            if issubclass(cls, klass):
                return status
    return 503 if failure.transient else 500


class ServiceResponse(NamedTuple):
    """One response: status, content type, body bytes, extra headers."""

    status: int
    content_type: str
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RegisteredMapping:
    """One registry entry: a compiled mapping pinned to its
    :class:`ExecSpec`.

    A drawn mapping carries its Clip ``mapping``.  A composition
    (``POST /mappings/compose``) has none — its fused nested tgd *is*
    the artifact — and names the two registered ``operands`` it was
    fused from.  Either way the entry holds what a transform needs: the
    schemas to parse against and the tgd to rebuild the plan from.
    """

    fingerprint: str
    spec: ExecSpec
    source: object  # the XSD schema documents are parsed against
    target: object
    tgd: NestedTgd
    mapping: Optional[ClipMapping] = None
    operands: Tuple[str, ...] = ()

    @property
    def artifact(self) -> Union[ClipMapping, Composition]:
        """What a plan is compiled from: the drawing, or for a
        composition its fused tgd with the schema to parse against."""
        if self.mapping is not None:
            return self.mapping
        return Composition(self.tgd, self.source)

    def describe(self) -> dict:
        doc = {"fingerprint": self.fingerprint, **self.spec.describe()}
        if self.operands:
            doc["composed"] = list(self.operands)
        return doc


@dataclass
class _Job:
    """One decoded transform request — the per-endpoint half of the
    request pipeline (:meth:`ClipService._transform`): the envelope's
    contents plus the endpoint's execute step, with the endpoint's
    knobs already bound into it."""

    endpoint: str
    fp: str
    texts: List[str]
    #: ``(entry, texts, deadline, tracer) → (BatchResult, extra
    #: response headers)``.
    execute: Callable
    policy: ErrorPolicy = ErrorPolicy.COLLECT
    #: Answer with a ``clip-service-batch`` document (partial results)
    #: rather than one document's XML.
    batch: bool = False


def _json_body(doc: dict, status: int = 200,
               headers: Tuple[Tuple[str, str], ...] = ()) -> ServiceResponse:
    payload = (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    return ServiceResponse(status, "application/json; charset=utf-8",
                           payload, headers)


def _text(body: bytes, what: str) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise ServiceError(f"{what} is not valid UTF-8") from None


def _json_object(body: bytes, what: str, keys: str) -> dict:
    """Decode a JSON request envelope, which must be an object.  Bytes
    that are not UTF-8 JSON raise the decoder's own error (a
    :class:`ValueError`, so a 400 named after it)."""
    envelope = json.loads(body.decode("utf-8"))
    if not isinstance(envelope, dict):
        raise ValueError(f"{what} envelope must be a JSON object with {keys}")
    return envelope


def _not_found(message: str) -> ServiceError:
    """A :class:`ServiceError` answered with 404: a past request (or
    one of its artifacts) the bounded history does not hold."""
    error = ServiceError(message)
    error.http_status = 404
    return error


def _runner_timeout(deadline: Deadline,
                    timeout: Optional[float] = None) -> Optional[float]:
    """A runner's per-document timeout: ``timeout`` capped by what is
    left of the request deadline.  A spent deadline raises
    :class:`DocumentTimeout` (504) here rather than handing the runner
    a zero budget."""
    remaining = deadline.remaining()
    if remaining is None:
        return timeout
    if remaining <= 0:
        raise DocumentTimeout(
            f"deadline exceeded before evaluation started "
            f"({deadline.budget:g}s budget)"
        )
    return remaining if timeout is None else min(timeout, remaining)


def _flag(value: Optional[str]) -> bool:
    """A boolean query parameter (``1``/``true``/``yes``/``on``)."""
    return value is not None and value.strip().lower() in (
        "1", "true", "yes", "on"
    )


def _tristate(value: Optional[str], name: str) -> Optional[bool]:
    """A tri-state boolean query parameter: absent → ``None``."""
    if value is None:
        return None
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean, got {value!r}")


class ClipService:
    """The long-lived mapping service: warm plans, bounded everything.

    Parameters
    ----------
    config:
        A resolved :class:`~repro.service.config.ServiceConfig`;
        ``None`` resolves one from the environment and defaults.
    cache:
        The :class:`PlanCache` to keep compiled plans warm in; defaults
        to a fresh cache owned by this service (so ``GET /metrics``
        describes exactly this service's traffic, not whatever the
        process compiled before).
    injector:
        A :class:`repro.runtime.faults.FaultInjector` threaded into
        every transform's :class:`BatchRunner` — the same deterministic
        fault harness the batch test suite uses, here so the service
        tests can script timeouts and errors without real slow inputs.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        cache: Optional[PlanCache] = None,
        injector=None,
    ):
        self.config = config if config is not None else ServiceConfig.resolve()
        self.cache = cache if cache is not None else PlanCache()
        self.injector = injector
        self.metrics = ServiceMetrics()
        self._lock = threading.Lock()
        self._registry: "OrderedDict[str, RegisteredMapping]" = OrderedDict()
        self._requests: "OrderedDict[str, dict]" = OrderedDict()
        self._request_counter = 0

    # -- dispatch ------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
    ) -> ServiceResponse:
        """Handle one request; never raises.

        ``path`` may carry a query string.  ``headers`` is any mapping
        with ``.get`` (the HTTP layer passes the request's header
        object).  Errors — the service's own and the full
        :mod:`repro.errors` hierarchy — come back as structured JSON
        envelopes with the status of :func:`error_status`.
        """
        headers = headers if headers is not None else {}
        started = time.perf_counter()
        split = urlsplit(path)
        route = split.path.rstrip("/") or "/"
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        endpoint = self._endpoint_label(route)
        depth = self.metrics.begin_request()
        status = 500
        try:
            response = self._route(
                method, route, params, headers, body, endpoint, depth
            )
            status = response.status
            return response
        except Exception as exc:  # noqa: BLE001 — every error becomes an envelope
            if isinstance(exc, AuthError):
                self.metrics.count_auth_failure()
            if isinstance(exc, OverloadError):
                self.metrics.count_shed()
            status = error_status(exc)
            return self._error_response(exc, status)
        finally:
            self.metrics.end_request(
                endpoint, status, time.perf_counter() - started
            )

    def _endpoint_label(self, route: str) -> str:
        if route == "/health":
            return "health"
        if route == "/metrics":
            return "metrics"
        if route == "/transform":
            return "transform"
        if route == "/transform/batch":
            return "transform_batch"
        if route == "/transform/delta":
            return "transform_delta"
        if route == "/mappings" or route.startswith("/mappings/"):
            return "mappings"
        if route == "/requests" or route.startswith("/requests/"):
            return "requests"
        return "other"

    def _route(
        self,
        method: str,
        route: str,
        params: dict,
        headers: Mapping[str, str],
        body: bytes,
        endpoint: str,
        depth: int,
    ) -> ServiceResponse:
        if endpoint != "health":
            # Observability endpoints are never shed — an overloaded
            # service must still answer the scrape that reports it.
            if endpoint not in ("metrics",) and depth > self.config.max_inflight:
                raise OverloadError(
                    f"{depth} requests in flight exceeds the ceiling of "
                    f"{self.config.max_inflight}; retry with backoff"
                )
            if len(body) > self.config.max_body:
                raise PayloadTooLargeError(
                    f"request body of {len(body)} bytes exceeds the "
                    f"{self.config.max_body}-byte ceiling"
                )
            verify_signature(
                self.config.secret, body, headers.get(SIGNATURE_HEADER)
            )
        if method == "GET" and route == "/health":
            return self._health()
        if method == "GET" and route == "/metrics":
            return self._prometheus()
        if method == "POST" and route == "/mappings/compose":
            return self._compose(params, body)
        if method == "POST" and route == "/mappings":
            return self._register(params, body)
        if method == "GET" and route == "/mappings":
            return self._list_mappings()
        if method == "GET" and route.startswith("/mappings/"):
            return self._mapping_detail(route)
        if method == "POST" and route == "/transform":
            return self._transform(params, headers, body, self._decode_transform)
        if method == "POST" and route == "/transform/batch":
            return self._transform(params, headers, body, self._decode_batch)
        if method == "POST" and route == "/transform/delta":
            return self._transform(params, headers, body, self._decode_delta)
        if method == "GET" and route.startswith("/requests/"):
            return self._request_artifact(route)
        return self._error_response(
            ServiceError(f"no such endpoint: {method} {route}"), 404
        )

    # -- error envelopes -------------------------------------------------

    def _error_response(
        self,
        error: BaseException,
        status: int,
        request_id: Optional[str] = None,
        **extra,
    ) -> ServiceResponse:
        doc = {
            "format": ERROR_FORMAT,
            "version": ERROR_VERSION,
            "error": type(error).__name__,
            "message": str(error),
            "status": status,
            "transient": is_transient(error),
        }
        if request_id is not None:
            doc["request"] = request_id
        doc.update(extra)
        headers = (("X-Clip-Request", request_id),) if request_id else ()
        return _json_body(doc, status, headers)

    def _failure_response(
        self,
        failure: DocumentFailure,
        request_id: str,
        dead_letter_paths: Sequence[str],
    ) -> ServiceResponse:
        status = status_for_failure(failure)
        doc = {
            "format": ERROR_FORMAT,
            "version": ERROR_VERSION,
            "error": failure.error,
            "message": failure.message,
            "status": status,
            "transient": failure.transient,
            "timed_out": failure.timed_out,
            "attempts": failure.attempts,
            "request": request_id,
        }
        if dead_letter_paths:
            doc["dead_letters"] = list(dead_letter_paths)
        return _json_body(doc, status, (("X-Clip-Request", request_id),))

    # -- observability endpoints -----------------------------------------

    def _health(self) -> ServiceResponse:
        with self._lock:
            registered = len(self._registry)
        return _json_body({
            "status": "ok",
            "mappings": registered,
            "plans": len(self.cache),
            "inflight": self.metrics.inflight,
        })

    def _prometheus(self) -> ServiceResponse:
        with self._lock:
            registered = len(self._registry)
        text = self.metrics.render_prometheus(
            self.cache.stats, len(self.cache), registered
        )
        return ServiceResponse(
            200, "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    # -- registration ------------------------------------------------------

    @staticmethod
    def _spec(params: dict) -> ExecSpec:
        return ExecSpec(
            params.get("engine", "tgd"),
            _tristate(params.get("optimize"), "optimize"),
            params.get("exec_mode"),
        )

    def _register(self, params: dict, body: bytes) -> ServiceResponse:
        clip = load_mapping_text(_text(body, "mapping document"))
        spec = self._spec(params)
        fp = spec.fingerprint(clip)
        was_cached = self.cache.peek(fp) is not None
        # The one compile (on a miss): the lookup inside get_or_compile
        # counts the hit or miss that GET /metrics then reports.
        plan = self.cache.get_or_compile(
            clip, spec.engine, fp=fp, optimize=spec.optimize,
            exec_mode=spec.exec_mode,
        )
        entry = RegisteredMapping(
            fp, spec, clip.source, clip.target, plan.tgd, mapping=clip
        )
        valid = plan.report.is_valid if plan.report is not None else True
        return self._registered(entry, was_cached, valid)

    def _compose(self, params: dict, body: bytes) -> ServiceResponse:
        """``POST /mappings/compose``: fuse two registered mappings into
        one composed plan, registered under the compose fingerprint.

        The envelope names the operands by their registration
        fingerprints (``{"first": FP_AB, "second": FP_BC}``); query
        parameters pin the composed plan's execution strategy exactly
        like ``POST /mappings``.  Operand pairs outside the composable
        fragment raise :class:`~repro.errors.ComposeError` (422, with
        the machine-readable reason in the message).
        """
        try:
            envelope = _json_object(
                body, "compose", "'first' and 'second' keys"
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"compose envelope is not valid JSON: {exc}"
            ) from None
        operands = []
        for key in ("first", "second"):
            fp = envelope.get(key)
            if not isinstance(fp, str) or not fp:
                raise ValueError(f"compose envelope is missing {key!r}")
            operands.append(self._lookup_mapping(fp))
        first, second = operands
        if first.operands or second.operands:
            raise ServiceError(
                "compose operands must be plain registered mappings, "
                "not compositions"
            )
        spec = self._spec(params)
        # Raises ComposeError (422) outside the composable fragment.
        composed = compose_tgds(first.tgd, second.tgd)
        fp = compose_fingerprint(first.fingerprint, second.fingerprint)
        with self._lock:
            existing = self._registry.get(fp)
        # A cache hit only counts when the existing entry pins the same
        # spec — re-composing with different parameters recompiles and
        # replaces the plan.
        was_cached = (
            self.cache.peek(fp) is not None
            and existing is not None
            and existing.spec == spec
        )
        if not was_cached:
            self.cache.put(plan_from_tgd(
                composed, spec.engine, fp=fp, optimize=spec.optimize,
                exec_mode=spec.exec_mode,
            ))
        entry = RegisteredMapping(
            fp, spec, first.source, second.target, composed,
            operands=(first.fingerprint, second.fingerprint),
        )
        return self._registered(entry, was_cached)

    def _registered(self, entry: RegisteredMapping, was_cached: bool,
                    valid: bool = True) -> ServiceResponse:
        with self._lock:
            known = entry.fingerprint in self._registry
            self._registry[entry.fingerprint] = entry
        doc = {
            "format": MAPPING_FORMAT,
            "version": MAPPING_VERSION,
            **entry.describe(),
            "cache": "hit" if was_cached else "miss",
            "valid": valid,
        }
        return _json_body(doc, 200 if known else 201)

    def _list_mappings(self) -> ServiceResponse:
        with self._lock:
            entries = [entry.describe() for entry in self._registry.values()]
        return _json_body({"mappings": entries})

    def _mapping_detail(self, route: str) -> ServiceResponse:
        fp = route.split("/", 2)[2]
        entry = self._lookup_mapping(fp)
        plan = self.cache.peek(entry.fingerprint)
        doc = entry.describe()
        doc["cached"] = plan is not None
        doc["plan"] = plan.plan_report() if plan is not None else None
        return _json_body(doc)

    def _lookup_mapping(self, fp: str) -> RegisteredMapping:
        with self._lock:
            entry = self._registry.get(fp)
        if entry is None:
            raise UnknownMappingError(
                f"no registered mapping with fingerprint {fp!r}; "
                "register it first with POST /mappings"
            )
        return entry

    def _lookup_request(self, request_id: str) -> dict:
        with self._lock:
            record = self._requests.get(request_id)
        if record is None:
            raise _not_found(
                f"no such request {request_id!r} (history keeps the "
                f"last {self.config.history})"
            )
        return record

    # -- the transform pipeline --------------------------------------------

    def _transform(self, params: dict, headers: Mapping[str, str],
                   body: bytes, decode: Callable) -> ServiceResponse:
        """The one request pipeline every transform endpoint runs.

        Request id and error envelope → deadline → decode envelope →
        lookup → execute (which parses) → count → store → respond.
        Only ``decode`` (which also picks the execute step)
        differs per endpoint; drawn and composed mappings take the same
        path, so both shed failures into the same envelopes, dead
        letters, counters and history.
        """
        request_id = self._next_request_id()
        try:
            deadline = self._deadline(params)
            job = decode(params, headers, body)
            entry = self._lookup_mapping(job.fp)
            tracer = SpanTracer() if _flag(params.get("trace")) else None
            batch, extra_headers = job.execute(
                entry, job.texts, deadline, tracer
            )
            failures, metrics_doc = batch.failures, batch.metrics.to_dict()
            self.metrics.count_documents(len(batch.results), len(failures))
            paths = self._dead_letter(batch.dead_letters, request_id)
            store = dict(
                endpoint=job.endpoint, entry=entry, metrics_doc=metrics_doc
            )
            if failures and (not job.batch or job.policy is ErrorPolicy.FAIL_FAST):
                # Nothing partial to answer with: a single document
                # failed, or fail_fast aborted the batch.
                failure = failures[0]
                self._store_request(
                    request_id, status=status_for_failure(failure), **store
                )
                return self._failure_response(failure, request_id, paths)
            response_headers = (
                ("X-Clip-Request", request_id),
                ("X-Clip-Mapping", entry.fingerprint),
            ) + extra_headers
            if job.batch:
                self._store_request(request_id, status=200, **store)
                doc = {
                    "format": BATCH_FORMAT,
                    "version": BATCH_VERSION,
                    "request": request_id,
                    "mapping": entry.fingerprint,
                    "engine": entry.spec.engine,
                    "documents": len(job.texts),
                    "succeeded": len(batch.results),
                    "results": [
                        {"index": index, "xml": to_xml(result)}
                        for index, result in zip(
                            batch.success_indices, batch.results
                        )
                    ],
                    "failures": [failure.to_dict() for failure in failures],
                    "metrics": metrics_doc,
                }
                if paths:
                    doc["dead_letters"] = paths
                return _json_body(doc, 200, response_headers)
            result = batch.results[0]
            text = to_xml(result)
            self._store_request(
                request_id, status=200, result=result,
                source_text=job.texts[0], result_text=text, **store,
            )
            return ServiceResponse(
                200, "application/xml; charset=utf-8", text.encode("utf-8"),
                response_headers,
            )
        except Exception as exc:  # noqa: BLE001 — envelope with the request id
            if isinstance(exc, (ReproError, ValueError)):
                return self._error_response(exc, error_status(exc), request_id)
            raise

    def _runner(self, entry: RegisteredMapping, tracer, **options) -> BatchRunner:
        return BatchRunner(
            entry.artifact,
            engine=entry.spec.engine,
            optimize=entry.spec.optimize,
            exec_mode=entry.spec.exec_mode,
            cache=self.cache,
            trace=tracer,
            fingerprint=entry.fingerprint,
            injector=self.injector,
            **options,
        )

    def _next_request_id(self) -> str:
        with self._lock:
            self._request_counter += 1
            return f"req-{self._request_counter:06d}"

    def _deadline(self, params: dict) -> Deadline:
        """The request's deadline: the configured budget, shortenable —
        never extendable — by a ``?deadline=SECONDS`` parameter."""
        budget = self.config.deadline
        raw = params.get("deadline")
        if raw is not None:
            requested = float(raw)
            if requested <= 0:
                raise ValueError(
                    f"deadline must be positive, got {requested!r}"
                )
            budget = requested if budget is None else min(requested, budget)
        return Deadline(budget)

    def _dead_letter(self, letters: Sequence[DeadLetter],
                     request_id: str) -> list:
        """Shed failed inputs into the dead-letter machinery: counted
        always, persisted under ``<dir>/<request id>/`` when a
        directory is configured."""
        if not letters:
            return []
        self.metrics.count_dead_letters(len(letters))
        if not self.config.dead_letter_dir:
            return []
        directory = os.path.join(self.config.dead_letter_dir, request_id)
        return write_dead_letters(list(letters), directory)

    def _store_request(
        self,
        request_id: str,
        *,
        endpoint: str,
        entry: RegisteredMapping,
        status: int,
        metrics_doc: dict,
        result: Optional[XmlElement] = None,
        source_text: Optional[str] = None,
        result_text: Optional[str] = None,
    ) -> None:
        explain = None
        plan = metrics_doc.get("plan")
        if plan is not None and result is not None:
            # Re-shape the runner's plan report into the same
            # clip-plan-explain document the CLI `explain --json` emits
            # — counters here are this request's deltas.
            explain = PlanExplain(
                result=result,
                optimize=plan.get("optimize", False),
                levels=plan.get("levels", []),
                counters=plan.get("counters", []),
                exec_mode=plan.get("exec_mode", "interp"),
                codegen=plan.get("codegen"),
            ).document(metrics_doc["target_elements"])
        record = {
            "request": request_id,
            "endpoint": endpoint,
            "mapping": entry.fingerprint,
            "engine": entry.spec.engine,
            "status": status,
            "metrics": metrics_doc,
            "trace": metrics_doc.get("trace"),
            "explain": explain,
            # Internal (stripped from GET /requests/{id}): the
            # source/target pair a later POST /transform/delta keys on.
            "source_xml": source_text,
            "result_xml": result_text,
        }
        with self._lock:
            self._requests[request_id] = record
            while len(self._requests) > self.config.history:
                self._requests.popitem(last=False)

    # -- per-endpoint envelope decoding and execute steps ------------------

    def _decode_transform(self, params: dict, headers: Mapping[str, str],
                          body: bytes) -> _Job:
        """``POST /transform``: one document, as the raw XML body naming
        its mapping with ``?mapping=FP``, or as a JSON envelope
        (``Content-Type: application/json``) carrying
        ``{"mapping": FP, "document": "<xml…>"}``."""
        fp = params.get("mapping")
        if "json" in (headers.get("Content-Type") or "").lower():
            envelope = _json_object(
                body, "transform", "'mapping' and 'document' keys"
            )
            fp = envelope.get("mapping", fp)
            text = envelope.get("document")
            if not isinstance(text, str):
                raise ValueError("transform envelope is missing 'document'")
        else:
            text = _text(body, "document body")
        if not fp:
            raise ValueError(
                "no mapping named: pass ?mapping=FINGERPRINT or a JSON "
                "envelope with a 'mapping' key"
            )
        return _Job("transform", fp, [text], self._execute_one)

    def _execute_one(self, entry: RegisteredMapping, texts: List[str],
                     deadline: Deadline, tracer):
        runner = self._runner(
            entry, tracer, error_policy=ErrorPolicy.COLLECT.value,
            timeout=_runner_timeout(deadline),
        )
        return runner.run(texts), ()

    def _decode_batch(self, params: dict, headers: Mapping[str, str],
                      body: bytes) -> _Job:
        """``POST /transform/batch``: many documents plus the runner
        knobs, as a JSON envelope."""
        envelope = _json_object(body, "batch", "'mapping' and 'documents' keys")
        fp = envelope.get("mapping", params.get("mapping"))
        if not fp:
            raise ValueError(
                "no mapping named: pass ?mapping=FINGERPRINT or a "
                "'mapping' key in the envelope"
            )
        sources = envelope.get("documents")
        if (
            not isinstance(sources, list)
            or not sources
            or not all(isinstance(item, str) for item in sources)
        ):
            raise ValueError(
                "'documents' must be a non-empty list of XML strings"
            )
        requested = envelope.get("workers")
        workers = self.config.workers if requested is None else int(requested)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        max_retries = int(envelope.get("max_retries", 0))
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        timeout = envelope.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError(f"timeout must be positive, got {timeout!r}")
        policy = ErrorPolicy.coerce(envelope.get("error_policy", "collect"))
        execute = functools.partial(
            self._execute_batch,
            policy=policy,
            # The config is a ceiling: a request can narrow its fan-out
            # but never commandeer more of the host than the operator
            # allowed.
            workers=min(workers, self.config.workers),
            max_retries=max_retries,
            timeout=timeout,
            validate=bool(envelope.get("validate", False)),
        )
        return _Job(
            "transform_batch", fp, sources, execute, policy=policy, batch=True
        )

    def _execute_batch(self, entry: RegisteredMapping, texts: List[str],
                       deadline: Deadline, tracer, *, policy: ErrorPolicy,
                       workers: int, max_retries: int,
                       timeout: Optional[float], validate: bool):
        runner = self._runner(
            entry, tracer, workers=workers, error_policy=policy.value,
            max_retries=max_retries, timeout=_runner_timeout(deadline, timeout),
            validate=validate,
        )
        try:
            batch = deadline.run(lambda: runner.run(texts))
        except DocumentFailureError as exc:
            # fail_fast: the first terminal failure aborts the request.
            metrics = BatchMetrics(
                engine=entry.spec.engine, workers=runner.workers,
                error_policy=policy.value, failures=1,
            )
            batch = BatchResult([], metrics, failures=[exc.failure])
        if deadline.expired():
            # A document ran out the request's budget, which leaves none
            # for the rest of the batch: abort the request (504) under
            # every policy, whichever timer noticed first.
            raise DocumentTimeout(
                f"request deadline exceeded ({deadline.budget:g}s budget)"
            )
        return batch, ()

    def _decode_delta(self, params: dict, headers: Mapping[str, str],
                      body: bytes) -> _Job:
        """``POST /transform/delta``: an edited document plus the past
        request whose source/target pair it re-transforms against."""
        envelope = _json_object(body, "delta", "'request' and 'document' keys")
        base_id = envelope.get("request")
        text = envelope.get("document")
        if not isinstance(base_id, str) or not base_id:
            raise ValueError("delta envelope is missing 'request'")
        if not isinstance(text, str):
            raise ValueError("delta envelope is missing 'document'")
        base = self._lookup_request(base_id)
        if not base.get("source_xml") or not base.get("result_xml"):
            raise ServiceError(
                f"request {base_id} stored no source/target pair; "
                "delta transforms chain off successful single transforms"
            )
        threshold = envelope.get("threshold")
        if threshold is not None:
            threshold = float(threshold)
            if not 0.0 <= threshold <= 1.0:
                raise ValueError(
                    f"threshold must be within [0, 1], got {threshold!r}"
                )
        execute = functools.partial(
            self._execute_delta, base=base, threshold=threshold
        )
        return _Job("transform_delta", base["mapping"], [text], execute)

    def _execute_delta(self, entry: RegisteredMapping, texts: List[str],
                       deadline: Deadline, tracer, *, base: dict,
                       threshold: Optional[float]):
        [text] = texts
        plan = self.cache.get_or_compile(
            entry.artifact, entry.spec.engine, fp=entry.fingerprint,
            optimize=entry.spec.optimize, exec_mode=entry.spec.exec_mode,
        )
        kwargs = {} if threshold is None else {"threshold": threshold}

        def step():
            new_source = parse_xml(text, schema=entry.source)
            started = time.perf_counter()
            prev_source = parse_xml(base["source_xml"], schema=entry.source)
            prev_target = parse_xml(base["result_xml"], schema=entry.target)
            delta = compute_delta(prev_source, new_source)
            result, report = transform_delta(
                plan, prev_source, prev_target, delta,
                new_source=new_source, **kwargs,
            )
            return new_source, result, report, time.perf_counter() - started

        try:
            new_source, result, report, elapsed = deadline.run(step)
        except ReproError as exc:
            # Shed like a failed single transform: one document failure,
            # dead-lettered as its raw text and counted.
            failure = DocumentFailure.from_exception(0, exc)
            metrics = BatchMetrics(
                engine=entry.spec.engine, workers=1,
                error_policy=ErrorPolicy.COLLECT.value,
                failures=1, dead_letter=1,
            )
            return BatchResult(
                [], metrics, failures=[failure],
                dead_letters=[DeadLetter(failure, text)],
            ), ()
        self.metrics.count_incremental(fallback=not report.incremental)
        metrics = BatchMetrics(
            engine=entry.spec.engine,
            workers=1,
            documents=1,
            execute_seconds=elapsed,
            wall_seconds=elapsed,
            source_elements=new_source.size(),
            target_elements=result.size(),
            incremental=report.to_dict(),
        )
        return (
            BatchResult([result], metrics),
            (("X-Clip-Incremental", report.mode),),
        )

    # -- request artifacts -------------------------------------------------

    def _request_artifact(self, route: str) -> ServiceResponse:
        parts = route.split("/")
        request_id = parts[2] if len(parts) > 2 else ""
        record = self._lookup_request(request_id)
        if len(parts) == 3:
            return _json_body({
                key: value
                for key, value in record.items()
                if key not in ("source_xml", "result_xml")
            })
        kind = parts[3]
        if kind not in ("metrics", "trace", "explain"):
            raise _not_found(
                f"unknown artifact {kind!r}; use metrics, trace or explain"
            )
        payload = record.get(kind)
        if payload is None:
            hint = {
                "metrics": "",
                "trace": " (request it with ?trace=1)",
                "explain": " (single transforms on the tgd engine only)",
            }[kind]
            raise _not_found(
                f"request {request_id} recorded no {kind} payload{hint}"
            )
        return _json_body(payload)
