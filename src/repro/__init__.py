"""clip-repro: a reproduction of *Clip: a Visual Language for Explicit
Schema Mappings* (Raffio, Braga, Ceri, Papotti, Hernández — ICDE 2008).

The package implements the full pipeline the paper describes:

* **schemas & instances** (:mod:`repro.xsd`, :mod:`repro.xml`) — the XML
  Schema trees the figures draw and the instance model they transform;
* **the Clip language** (:mod:`repro.core`) — value mappings, builders,
  build/group nodes, context propagation trees; Section III validity;
  Section IV nested-tgd semantics via :func:`repro.core.compile_clip`;
* **execution** (:mod:`repro.executor`) — direct minimum-cardinality
  evaluation of nested tgds;
* **XQuery** (:mod:`repro.xquery`) — the Section VI tgd → XQuery
  translation plus an interpreter for the emitted subset;
* **generation** (:mod:`repro.generation`) — Clio's tableaux/skeleton
  pipeline and Clip's Section V extension, plus the Table I flexibility
  measurement;
* **scenarios** (:mod:`repro.scenarios`) — every paper figure as an
  executable object, and synthetic workloads for the benchmarks.

Quickstart::

    from repro import Transformer
    from repro.scenarios import deptstore

    transformer = Transformer(deptstore.mapping_fig5())
    result = transformer(deptstore.source_instance())
    print(transformer.tgd)          # the paper's nested tgd notation
    print(transformer.xquery_text)  # the generated XQuery
"""

from __future__ import annotations

from . import (
    algebra,
    core,
    errors,
    executor,
    generation,
    runtime,
    scenarios,
    xml,
    xquery,
    xsd,
)
from .algebra import compose_fingerprint, compose_tgds
from .errors import ComposeError
from .core.compile import compile_clip
from .core.mapping import ClipMapping
from .core.tgd import NestedTgd
from .core.validity import ValidityReport, check
from .executor.engine import execute
from .runtime.plan import ExecSpec, plan_from_tgd, trace_seed
from .xml.model import XmlElement
from .xquery.emit import emit_xquery
from .xquery.interp import run_query
from .xquery.serialize import serialize as serialize_xquery

__version__ = "1.0.0"


class Transformer:
    """End-to-end convenience wrapper: Clip mapping → tgd → execution.

    Compiles the mapping once; calling the transformer converts source
    instances to target instances.  ``engine`` selects the direct tgd
    executor (``"tgd"``, default), the generated-XQuery interpreter
    (``"xquery"``), or the generated-XSLT interpreter (``"xslt"``,
    supported for non-grouped, non-distributed mappings) — all engines
    produce identical instances, which the test suite verifies
    extensively.
    """

    def __init__(self, mapping: ClipMapping, *, engine: str = "tgd",
                 require_valid: bool = True, optimize: bool | None = None,
                 exec_mode: str | None = None, trace=None):
        #: The resolved :class:`repro.runtime.ExecSpec` every call runs;
        #: :attr:`engine`, :attr:`optimize` and :attr:`exec_mode` read it.
        self.spec = ExecSpec(engine, optimize, exec_mode)
        self.mapping = mapping
        #: Optional :class:`repro.runtime.trace.SpanTracer`: every call
        #: records compile → prepare → execute spans into it (see
        #: :mod:`repro.runtime.trace`); ``None`` records nothing and
        #: costs nothing.
        self._trace = trace
        if trace:
            span = trace.begin("compile")
            self.report = check(mapping)
            self.tgd = compile_clip(
                mapping, require_valid=require_valid, report=self.report
            )
            trace.end(span, valid=self.report.is_valid)
            self._seed_trace(trace)
        else:
            self.report: ValidityReport = check(mapping)
            self.tgd: NestedTgd = compile_clip(
                mapping, require_valid=require_valid, report=self.report
            )
        self._plan = None
        self._query = None
        self._stylesheet = None

    @property
    def engine(self) -> str:
        return self.spec.engine

    @property
    def optimize(self) -> bool:
        return self.spec.optimize

    @property
    def exec_mode(self) -> str:
        return self.spec.exec_mode

    def _seed_trace(self, trace) -> None:
        """Namespace the tracer's span ids under this mapping's base
        fingerprint (first mapping wins when a tracer is shared)."""
        if not trace.seed:
            trace.seed = trace_seed(self.mapping, self.engine)
        if not trace.engine:
            trace.engine = self.engine

    @property
    def plan(self):
        """The :class:`repro.runtime.CompiledPlan` for :attr:`spec`
        (built lazily from the compiled tgd, reused across calls).  It
        is built outside any plan cache, so transformers never move the
        cache statistics."""
        if self._plan is None:
            self._plan = plan_from_tgd(
                self.tgd, self.spec.engine, optimize=self.spec.optimize,
                exec_mode=self.spec.exec_mode,
            )
        return self._plan

    @property
    def xquery(self):
        """The emitted XQuery AST (built lazily)."""
        if self._query is None:
            self._query = emit_xquery(self.tgd)
        return self._query

    @property
    def xquery_text(self) -> str:
        """The generated XQuery, as query text."""
        return serialize_xquery(self.xquery)

    @property
    def stylesheet(self):
        """The emitted XSLT stylesheet (built lazily; may raise
        :class:`repro.xslt.UnsupportedForXslt`)."""
        if self._stylesheet is None:
            from .xslt import emit_xslt

            self._stylesheet = emit_xslt(self.tgd)
        return self._stylesheet

    @property
    def xslt_text(self) -> str:
        """The generated XSLT, as stylesheet text."""
        return self.stylesheet.serialize()

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self.apply(source_instance)

    def apply(self, source_instance: XmlElement, *,
              trace=None) -> XmlElement:
        """Transform one source instance.

        ``trace`` overrides the constructor's tracer for this call; a
        falsy tracer (the default when neither is set) runs the exact
        untraced path.  Traced calls record a ``prepare`` span (the
        lazy engine-artifact build; instantaneous once built) and a
        ``transform`` span containing the engine's execute/plan/eval
        subtree — traced and untraced runs produce byte-identical
        outputs, which the differential suite asserts.
        """
        if trace is None:
            trace = self._trace
        if not trace:
            return self.plan.run(source_instance)
        self._seed_trace(trace)
        # The prepare span is always present (stable trace shape across
        # repeated calls); after the first call it is an instant no-op.
        span = trace.begin("prepare")
        plan = self.plan
        trace.end(span)
        span = trace.begin("transform")
        try:
            result = plan.run(source_instance, trace=trace)
        except Exception:
            span.attrs["status"] = "error"
            trace.end(span)
            raise
        trace.end(span, status="ok")
        return result

    def explain(self, source_instance: XmlElement):
        """Run the mapping with per-level counters (iterations, filtered
        tuples, elements built, groups); returns an
        :class:`repro.executor.ExecutionReport` whose ``result`` equals
        what calling the transformer would produce."""
        from .executor import explain as _explain

        return _explain(self.tgd, source_instance)

    def explain_plan(self, source_instance: XmlElement):
        """Compile and run the mapping through the join-aware planner,
        returning a :class:`repro.executor.PlanExplain` — the compiled
        plan (joins, pushed filters, generator order) plus runtime
        counters, renderable as text or ``clip-plan-explain`` JSON."""
        from .executor import explain_plan as _explain_plan

        return _explain_plan(self.tgd, source_instance,
                             optimize=self.optimize,
                             exec_mode=self.exec_mode)

    def compose(self, other) -> "ComposedTransformer":
        """Fuse this ``A→B`` transformer with a ``B→C`` mapping (or
        transformer) into one ``A→C`` transformer.

        When the pair lies in the composable fragment
        (:func:`repro.algebra.compose_tgds`) the result runs a single
        fused one-pass plan; otherwise it silently degrades to
        sequential execution — either way the output is byte-identical
        to applying the two stages in order, and
        :attr:`ComposedTransformer.mode` says which path runs.
        """
        if not isinstance(other, Transformer):
            other = Transformer(
                other, engine=self.engine,
                optimize=self.optimize, exec_mode=self.exec_mode,
            )
        return ComposedTransformer(self, other)


class ComposedTransformer:
    """An ``A→C`` transformer built from an ``A→B`` and a ``B→C`` one.

    Construction attempts algebraic composition
    (:func:`repro.algebra.compose_tgds`): inside the composable
    fragment the two tgds fuse into one, whose single-pass plan is
    byte-identical to chaining the stages (``mode == "inlined"``).
    Outside the fragment — grouping, aggregates, opaque value flow —
    the transformer keeps both stages and runs them in sequence
    (``mode == "sequential"``), recording the machine-readable
    :attr:`fallback_reason` from the :class:`~repro.errors.ComposeError`.
    Either mode produces the same bytes, which the test suite asserts
    across the corpus.
    """

    def __init__(self, first: Transformer, second: Transformer):
        if first.engine != second.engine:
            raise ValueError(
                f"cannot compose transformers on different engines "
                f"({first.engine!r} vs {second.engine!r})"
            )
        self.first = first
        self.second = second
        self.engine = first.engine
        #: ``"inlined"`` (one fused plan) or ``"sequential"`` (fallback).
        self.mode = "inlined"
        #: The :class:`~repro.errors.ComposeError` reason tag when the
        #: pair fell outside the composable fragment, else ``None``.
        self.fallback_reason: str | None = None
        #: The fused ``A→C`` nested tgd (``None`` in sequential mode).
        self.tgd: NestedTgd | None = None
        try:
            self.tgd = compose_tgds(first.tgd, second.tgd)
        except ComposeError as error:
            self.mode = "sequential"
            self.fallback_reason = error.reason
        self._plan = None

    @property
    def fingerprint(self) -> str:
        """The fused cache key: :func:`repro.algebra.compose_fingerprint`
        over the two stages' structural fingerprints (stable whether or
        not the pair actually inlined)."""
        return compose_fingerprint(
            self.first.spec.fingerprint(self.first.mapping),
            self.second.spec.fingerprint(self.second.mapping),
        )

    @property
    def plan(self):
        """The fused :class:`repro.runtime.CompiledPlan` (inlined mode
        only), compiled lazily and registered in the default plan cache
        under the compose fingerprint."""
        if self.mode != "inlined":
            raise ComposeError(
                self.fallback_reason or "sequential",
                "this composition runs sequentially; it has no fused plan",
            )
        if self._plan is None:
            from .runtime import default_cache

            cache = default_cache()
            fp = self.fingerprint
            plan = cache.peek(fp)
            if plan is None:
                spec = self.second.spec
                plan = plan_from_tgd(
                    self.tgd, spec.engine, fp=fp,
                    optimize=spec.optimize, exec_mode=spec.exec_mode,
                )
                cache.put(plan)
            self._plan = plan
        return self._plan

    def __call__(self, source_instance: XmlElement) -> XmlElement:
        return self.apply(source_instance)

    def apply(self, source_instance: XmlElement) -> XmlElement:
        """Transform ``A`` documents straight to ``C``: the fused
        one-pass plan when inlined, the two stages in order when not."""
        if self.mode == "inlined":
            return self.plan.run(source_instance)
        return self.second.apply(self.first.apply(source_instance))


__all__ = [
    "Transformer",
    "ComposedTransformer",
    "ClipMapping",
    "NestedTgd",
    "XmlElement",
    "compile_clip",
    "check",
    "execute",
    "emit_xquery",
    "run_query",
    "serialize_xquery",
    "compose_fingerprint",
    "compose_tgds",
    "algebra",
    "core",
    "errors",
    "executor",
    "generation",
    "runtime",
    "scenarios",
    "xml",
    "xquery",
    "xsd",
    "__version__",
]
