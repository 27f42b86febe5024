"""Compiled execution plans: compile a mapping once, run it many times.

Section VI's point is that a Clip mapping is *compiled* — the nested
tgd, the emitted XQuery, the generated XSLT are all artifacts of the
mapping alone — and then applied to arbitrarily many instance
documents.  :class:`CompiledPlan` reifies that split: everything that
depends only on the mapping and its :class:`ExecSpec` (engine, planner
switch, execution mode) happens in :func:`compile_plan` (validity
check, tgd compilation, engine-artifact emission, evaluation
ordering), and applying the plan to a document touches none of it.

:func:`fingerprint` gives plans a stable identity: the SHA-256 of the
mapping's persistent JSON document (schemas as XSD text plus the drawn
lines, see :mod:`repro.io`) combined with the spec's engine and
marker.  Two
structurally equal mappings — the same drawing, loaded twice —
fingerprint identically; any structural edit changes the digest.  The
plan cache (:mod:`repro.runtime.cache`) keys on exactly this.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..core.compile import compile_clip
from ..core.mapping import ClipMapping
from ..core.tgd import NestedTgd
from ..core.validity import ValidityReport, check
from ..executor.codegen import resolve_exec_mode
from ..executor.engine import TgdPlan, prepare
from ..executor.planner import resolve_optimize
from ..io import dumps as _dump_mapping
from ..xml.model import XmlElement

#: The engines a plan can target, in cross-check order.
ENGINES = ("tgd", "xquery", "xslt")


@dataclass(frozen=True)
class Composition:
    """A composed mapping as the runtime sees it: the fused nested tgd
    and the source schema documents are parsed against.  It has no
    drawing to fingerprint and no target schema to validate against."""

    tgd: NestedTgd
    source: object


@dataclass(frozen=True)
class ExecSpec:
    """How a plan executes: ``(engine, optimize, exec_mode)``, resolved.

    Constructing one is the single place that checks the engine name,
    resolves the ``CLIP_OPTIMIZE`` / ``CLIP_EXEC_MODE`` defaults for
    ``None`` fields, and applies the codegen-eligibility rule: codegen
    specializes the optimized tgd plan only, so the naive reference
    path and the plannerless engines (xquery/xslt) always run
    ``interp``.  Every field is concrete after construction, and
    re-constructing from a spec's own fields returns an equal spec.
    """

    engine: str = "tgd"
    optimize: Optional[bool] = None
    exec_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; use one of {ENGINES}"
            )
        optimize = resolve_optimize(self.optimize)
        exec_mode = resolve_exec_mode(self.exec_mode)
        if self.engine != "tgd" or not optimize:
            exec_mode = "interp"
        object.__setattr__(self, "optimize", optimize)
        object.__setattr__(self, "exec_mode", exec_mode)

    @property
    def marker(self) -> str:
        """The fingerprint suffix.  The default (optimized, interpreted)
        spec keeps the historical empty suffix, so fingerprints recorded
        before the planner or the codegen backend existed still match."""
        marker = "" if self.optimize else ":no-optimize"
        if self.exec_mode == "codegen":
            marker += ":codegen"
        return marker

    def fingerprint(self, mapping: Union[ClipMapping, Composition]) -> str:
        """The plan-cache key of ``mapping`` under this spec (see
        :func:`fingerprint`)."""
        if isinstance(mapping, Composition):
            raise ValueError(
                "a composed mapping has no drawing to fingerprint; key it "
                "by its compose fingerprint"
            )
        payload = f"{self.engine}{self.marker}\n{_dump_mapping(mapping)}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> dict:
        return {
            "engine": self.engine,
            "optimize": self.optimize,
            "exec_mode": self.exec_mode,
        }


def fingerprint(
    mapping: Union[ClipMapping, Composition],
    engine: str = "tgd",
    *,
    optimize: Optional[bool] = None,
    exec_mode: Optional[str] = None,
) -> str:
    """A stable content fingerprint of ``(mapping, engine, optimize,
    exec_mode)``.

    Structural: computed from the mapping's persistent JSON document,
    so distinct in-memory objects describing the same drawing share a
    fingerprint, and any edit (a new value mapping, a changed
    condition, a different schema) produces a new one.

    The resolved :class:`ExecSpec` participates through its marker, so
    a shared plan cache never serves an optimized plan to a caller that
    asked for the naive reference path, or a codegen plan to an
    interpreted caller, or vice versa.
    """
    return ExecSpec(engine, optimize, exec_mode).fingerprint(mapping)


def eligible_engines(tgd: NestedTgd) -> tuple[str, ...]:
    """The engines able to execute an already-compiled tgd.

    The tgd executor and the XQuery pipeline cover the full language;
    XSLT 1.0 covers the non-grouped, non-distributed subset only.  The
    probe is the XSLT emitter itself — emission is cheap, pure, and
    exactly the authority on its own limits — so eligibility can never
    drift from what :func:`repro.xslt.emit_xslt` actually accepts.
    The fuzz farm uses this to decide which engines to cross-check per
    corpus case.
    """
    from ..xslt import UnsupportedForXslt, emit_xslt

    try:
        emit_xslt(tgd)
    except UnsupportedForXslt:
        return ("tgd", "xquery")
    return ("tgd", "xquery", "xslt")


def trace_seed(mapping: ClipMapping, engine: str = "tgd") -> str:
    """The trace-id namespace for ``(mapping, engine)``.

    Deliberately the *base* fingerprint (the optimized interpreted
    payload, optimize- and exec-mode-independent): span ids must agree
    between ``optimize=True``/``optimize=False`` and
    ``interp``/``codegen`` runs of the same mapping, so their traces
    differ only in the ``plan`` subtree's content — the determinism
    contract ``docs/FORMATS.md`` §7 specifies and the property suite
    enforces.
    """
    return ExecSpec(engine, True, "interp").fingerprint(mapping)


class CompiledPlan:
    """One mapping, compiled for one :class:`ExecSpec`, ready for
    repeated use.

    Calling the plan transforms a source instance.  The plan carries
    the compiled tgd (so it can be shipped to worker processes, which
    rebuild only the engine artifact) and the seconds spent compiling
    (so batch metrics can report compile vs. execute time).
    """

    __slots__ = (
        "spec",
        "fingerprint",
        "report",
        "tgd",
        "tgd_plan",
        "compile_seconds",
        "_runner",
    )

    def __init__(
        self,
        spec: ExecSpec,
        fp: str,
        tgd: NestedTgd,
        runner: Callable[[XmlElement], XmlElement],
        *,
        report: Optional[ValidityReport] = None,
        compile_seconds: float = 0.0,
        tgd_plan: Optional[TgdPlan] = None,
    ):
        self.spec = spec
        self.fingerprint = fp
        self.report = report
        self.tgd = tgd
        self.compile_seconds = compile_seconds
        #: The underlying :class:`TgdPlan` (tgd engine only): carries
        #: the compiled level plans and the accumulated plan counters
        #: that batch metrics report.
        self.tgd_plan = tgd_plan
        self._runner = runner

    @property
    def engine(self) -> str:
        return self.spec.engine

    @property
    def optimize(self) -> bool:
        return self.spec.optimize

    @property
    def exec_mode(self) -> str:
        """The effective execution mode ("interp" or "codegen")."""
        return self.spec.exec_mode

    def plan_report(self) -> Optional[dict]:
        """The compiled-plan description plus accumulated counters, or
        ``None`` when the engine has no planner (xquery/xslt)."""
        if self.tgd_plan is None or self.tgd_plan.planned is None:
            if self.engine == "tgd":
                return {"optimize": False, "exec_mode": "interp"}
            return None
        stats = self.tgd_plan.stats
        payload = {
            "optimize": True,
            "exec_mode": self.tgd_plan.exec_mode,
            "levels": [p.describe() for p in self.tgd_plan.planned.levels],
            "counters": [c.to_dict() for c in stats.counters] if stats else [],
        }
        if self.tgd_plan.program is not None:
            payload["codegen"] = self.tgd_plan.program.describe()
        return payload

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self._runner(source_instance)

    def run(self, source_instance: XmlElement, *, trace=None) -> XmlElement:
        """Apply the plan to one source instance.

        ``trace`` (a :class:`repro.runtime.trace.SpanTracer`) records
        the engine's execution spans; ``None`` (default) runs the
        untraced closure unchanged.
        """
        if trace is None:
            return self._runner(source_instance)
        return self._runner(source_instance, trace=trace)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(engine={self.engine!r}, "
            f"fingerprint={self.fingerprint[:12]}…)"
        )


def _run_xslt(sheet, doc: XmlElement, trace=None) -> XmlElement:
    """Apply a stylesheet; XSLT has no internal instrumentation, so a
    traced run records one ``execute`` span around the whole
    application, shaped like the tgd engine's."""
    from ..xslt import apply_stylesheet

    if not trace:
        return apply_stylesheet(sheet, doc)
    span = trace.begin("execute")
    try:
        result = apply_stylesheet(sheet, doc)
    except Exception:
        span.attrs["status"] = "error"
        trace.end(span)
        raise
    trace.end(
        span, status="ok",
        source_elements=doc.size(), target_elements=result.size(),
    )
    return result


def _engine_runner(
    tgd: NestedTgd,
    spec: ExecSpec,
    codegen_source: Optional[str] = None,
) -> tuple[Callable[[XmlElement], XmlElement], Optional[TgdPlan]]:
    """Build the per-document evaluation closure for one engine.

    Returns the closure plus, for the tgd engine, the underlying
    :class:`TgdPlan` (so plan statistics stay reachable).  The tgd and
    XQuery evaluators both navigate through the shared per-document
    index of :func:`repro.xml.index.index_for`, built lazily on first
    use and reused across every mapping applied to the same document.

    Every closure accepts an optional ``trace`` keyword: the tgd
    engine records execute/plan spans, the XQuery interpreter eval
    spans, XSLT one execute span.
    """
    if spec.engine == "tgd":
        tgd_plan = prepare(
            tgd, optimize=spec.optimize, exec_mode=spec.exec_mode,
            codegen_source=codegen_source,
        )
        return tgd_plan.run, tgd_plan
    if spec.engine == "xquery":
        from ..xquery.emit import emit_xquery
        from ..xquery.interp import run_query

        query = emit_xquery(tgd)
        return (lambda doc, trace=None: run_query(query, doc, trace=trace)), None
    from ..xslt import emit_xslt

    sheet = emit_xslt(tgd)
    return (lambda doc, trace=None: _run_xslt(sheet, doc, trace)), None


def _build_plan(
    tgd: NestedTgd,
    spec: ExecSpec,
    fp: str,
    started: float,
    *,
    report: Optional[ValidityReport] = None,
    codegen_source: Optional[str] = None,
) -> CompiledPlan:
    runner, tgd_plan = _engine_runner(tgd, spec, codegen_source)
    return CompiledPlan(
        spec, fp, tgd, runner,
        report=report,
        compile_seconds=time.perf_counter() - started,
        tgd_plan=tgd_plan,
    )


def plan_from_tgd(
    tgd: NestedTgd,
    engine: str = "tgd",
    *,
    fp: str = "",
    optimize: Optional[bool] = None,
    exec_mode: Optional[str] = None,
    codegen_source: Optional[str] = None,
) -> CompiledPlan:
    """Rebuild a plan from an already-compiled tgd.

    Worker processes use this: the parent ships them the (picklable)
    tgd — plus, for codegen plans, the cached generated source string
    (source pickles; code objects don't) — and each worker re-emits
    only its engine artifact.  The Clip compilation and validity check
    never run twice anywhere.  Composed mappings, which exist only as
    tgds, compile through here too.
    """
    spec = ExecSpec(engine, optimize, exec_mode)
    return _build_plan(
        tgd, spec, fp, time.perf_counter(), codegen_source=codegen_source
    )


def compile_plan(
    mapping: Union[ClipMapping, Composition],
    engine: str = "tgd",
    *,
    require_valid: bool = True,
    fp: Optional[str] = None,
    optimize: Optional[bool] = None,
    exec_mode: Optional[str] = None,
) -> CompiledPlan:
    """Compile a mapping into a reusable plan for one engine.

    Performs the full once-per-mapping work: Section III validity
    check, tgd compilation, engine-artifact emission, and (for the tgd
    engine, unless ``optimize`` resolves off) the join-aware level
    plans of :mod:`repro.executor.planner` — plus, when ``exec_mode``
    resolves to ``codegen``, the specialized generated-Python program.
    ``fp`` lets callers that already computed the fingerprint (the
    cache) skip recomputing it.

    A :class:`Composition` is already compiled, has no drawing to
    check, and has no structural fingerprint, so ``fp`` is required
    for it.
    """
    spec = ExecSpec(engine, optimize, exec_mode)
    if fp is None:
        fp = spec.fingerprint(mapping)
    started = time.perf_counter()
    if isinstance(mapping, Composition):
        return _build_plan(mapping.tgd, spec, fp, started)
    report = check(mapping)
    tgd = compile_clip(mapping, require_valid=require_valid, report=report)
    return _build_plan(tgd, spec, fp, started, report=report)
