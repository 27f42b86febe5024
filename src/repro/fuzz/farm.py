"""The differential fuzz farm: every corpus case, every engine, both
optimizer modes, dead-lettering divergences for replay.

The farm turns the corpus of :mod:`repro.generation.corpus` into a
continuous differential regression net.  For each case it executes a
*reference* combo — the tgd executor, join-aware planner on, in
process — and then cross-checks every other committed combo against
it:

* ``tgd`` with ``optimize=False`` (the naive reference path) must
  serialize **byte-identically**;
* ``tgd`` with ``exec_mode="codegen"`` (the specialized generated-
  Python backend of :mod:`repro.executor.codegen`) must serialize
  **byte-identically** — its dead-letter kit additionally captures the
  generated source (``generated.py``) for the diverging plan;
* ``xquery`` must serialize **byte-identically** (both full-coverage
  engines follow the paper's iteration order);
* ``xslt`` — probed per case via
  :func:`repro.runtime.eligible_engines`, since XSLT 1.0 covers the
  non-grouped, non-distributed subset only — must agree
  **canonically** (sibling order of unlike tags is unspecified there);
* ``workers > 1`` runs the reference engine through
  :class:`repro.runtime.BatchRunner`'s process pool and must reproduce
  the in-process bytes document-for-document;
* ``delta``-axis cases additionally run an *incremental* leg: the
  case's edit script is applied (:func:`~repro.generation.corpus
  .apply_edits`), and :func:`~repro.runtime.incremental.transform_delta`
  from the base document's target must reproduce a full recompute of
  the edited document **byte-identically** — whether it took the
  scoped path or fell back;
* ``composition``-axis cases additionally run a *compose* leg: the
  second-stage mapping carried in ``params["compose_with"]`` is
  composed with the case's own tgd
  (:func:`~repro.algebra.compose_tgds`), and the fused one-pass plan
  must reproduce the sequential two-stage execution
  **byte-identically**; when ``compose_tgds`` declines (sequential
  fallback) the leg verifies the corpus's ``expect_inlined``
  prediction instead;
* ``round-trip``-axis cases additionally run an *inversion* leg:
  :func:`~repro.algebra.quasi_inverse` is applied to the case's
  target, and the recovered source must match the
  containment-predicted core (:func:`~repro.algebra.predicted_core`)
  **byte-identically** — two independently derived tgds, one required
  answer.

Any disagreement (or an engine error where the reference succeeded)
becomes a :class:`~repro.fuzz.report.Divergence` in the
``clip-fuzz-report`` and — when a dead-letter root is given — a replay
directory holding the mapping, the source instance, both outputs, the
rendered diff, and the diverging combo's ``clip-trace``.
:func:`FuzzFarm.replay` re-runs a dead-lettered case from exactly
those artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..algebra import (
    compose_fingerprint,
    compose_tgds,
    predicted_core,
    quasi_inverse,
)
from ..errors import ComposeError, ReproError
from ..generation.corpus import (
    AXES,
    CorpusCase,
    apply_edits,
    generate_corpus,
    resolve_axes,
)
from ..io import load as load_mapping
from ..io import loads as loads_mapping
from ..io import save as save_mapping
from ..runtime import (
    ENGINES,
    BatchRunner,
    PlanCache,
    SpanTracer,
    eligible_engines,
    fingerprint,
    plan_from_tgd,
)
from ..runtime.incremental import transform_delta
from ..xml.diff import compute_delta, diff, render_diff
from ..xml.model import XmlElement
from ..xml.parser import parse_xml
from ..xml.serialize import to_xml
from .report import AxisCoverage, Divergence, FuzzReport

#: Manifest format written into each dead-letter case directory.
FUZZ_CASE_FORMAT = "clip-fuzz-case"
FUZZ_CASE_VERSION = 1

#: How many rendered diff lines a divergence carries in the report.
_DETAIL_LINES = 6


class FuzzError(ReproError):
    """A farm-level failure (bad configuration, unreadable case dir)."""


@dataclass(frozen=True)
class Combo:
    """One execution configuration cross-checked against the reference."""

    engine: str
    optimize: bool
    workers: int
    exec_mode: str = "interp"

    @property
    def slug(self) -> str:
        mode = "opt" if self.optimize else "naive"
        if self.exec_mode != "interp":
            mode = self.exec_mode
        return f"{self.engine}-{mode}-w{self.workers}"


@dataclass
class ReplayResult:
    """The outcome of re-running a dead-lettered case."""

    case_id: str
    combo: Combo
    diverged: bool
    differences: list[str] = field(default_factory=list)
    expected_xml: str = ""
    actual_xml: str = ""
    error: Optional[str] = None
    trace: Optional[dict] = None


class FuzzFarm:
    """Differential executor over corpus cases.

    ``engines`` defaults to every committed engine (``tgd``, ``xquery``
    and — where the per-case probe allows — ``xslt``).  ``workers``
    beyond 1 exercises the process-pool path and is markedly slower;
    the CLI and the tier-1 smoke slice keep the default ``(1,)``.
    """

    def __init__(
        self,
        *,
        engines: Optional[Sequence[str]] = None,
        optimize_modes: Sequence[bool] = (True, False),
        exec_modes: Sequence[str] = ("interp", "codegen"),
        workers: Sequence[int] = (1,),
        dead_letter_dir: Union[str, Path, None] = None,
        budget_seconds: Optional[float] = None,
        cache: Optional[PlanCache] = None,
    ):
        from ..executor.codegen import EXEC_MODES

        self.engines = tuple(engines) if engines is not None else ENGINES
        unknown = [e for e in self.engines if e not in ENGINES]
        if unknown:
            raise FuzzError(
                f"unknown engines {unknown}; choose from {', '.join(ENGINES)}"
            )
        if "tgd" not in self.engines:
            raise FuzzError("the tgd reference engine cannot be disabled")
        self.optimize_modes = tuple(optimize_modes)
        self.exec_modes = tuple(exec_modes)
        bad_modes = [m for m in self.exec_modes if m not in EXEC_MODES]
        if bad_modes:
            raise FuzzError(
                f"unknown exec modes {bad_modes}; choose from "
                f"{', '.join(EXEC_MODES)}"
            )
        if "interp" not in self.exec_modes:
            raise FuzzError("the interp reference mode cannot be disabled")
        self.workers = tuple(sorted(set(workers)))
        if any(w < 1 for w in self.workers):
            raise FuzzError(f"workers must be >= 1, got {list(workers)}")
        self.dead_letter_dir = (
            Path(dead_letter_dir) if dead_letter_dir is not None else None
        )
        self.budget_seconds = budget_seconds
        self.cache = cache if cache is not None else PlanCache(maxsize=512)

    # -- combo enumeration -------------------------------------------------

    def _combos(self, eligible: Sequence[str]) -> list[Combo]:
        """Every cross-check combo for one case, reference excluded.

        The optimizer toggle only exists on the tgd engine (xquery and
        xslt have no join-aware planner), so ``optimize=False`` is
        enumerated for tgd alone — anything else would re-run identical
        work under a different label.  Likewise ``codegen`` specializes
        the optimized tgd plan only, so it is enumerated as a fourth
        tgd-side axis (optimized, in-process).
        """
        combos: list[Combo] = []
        if False in self.optimize_modes:
            combos.append(Combo("tgd", False, 1))
        if "codegen" in self.exec_modes:
            combos.append(Combo("tgd", True, 1, "codegen"))
        for engine in ("xquery", "xslt"):
            if engine in self.engines and engine in eligible:
                combos.append(Combo(engine, True, 1))
        for w in self.workers:
            if w > 1:
                combos.append(Combo("tgd", True, w))
        return combos

    # -- execution ---------------------------------------------------------

    def _execute(
        self, case: CorpusCase, combo: Combo, *, trace: Optional[SpanTracer] = None
    ) -> XmlElement:
        if combo.workers > 1:
            runner = BatchRunner(
                case.mapping,
                engine=combo.engine,
                workers=combo.workers,
                optimize=combo.optimize,
                exec_mode=combo.exec_mode,
                cache=self.cache,
            )
            return runner.run([case.instance]).results[0]
        plan = self.cache.get_or_compile(
            case.mapping, combo.engine, optimize=combo.optimize,
            exec_mode=combo.exec_mode,
        )
        return plan.run(case.instance, trace=trace)

    def _check_case(
        self, case: CorpusCase, report: FuzzReport, coverage: AxisCoverage
    ) -> None:
        reference = self.cache.get_or_compile(
            case.mapping, "tgd", optimize=True
        )
        eligible = eligible_engines(reference.tgd)
        if "xslt" in eligible:
            coverage.xslt_eligible += 1
        expected = reference(case.instance)
        expected_xml = to_xml(expected)
        report.executions += 1
        for combo in self._combos(eligible):
            report.executions += 1
            report.comparisons += 1
            try:
                actual = self._execute(case, combo)
            except ReproError as exc:
                self._record(
                    case, combo, report,
                    kind="error",
                    detail=(f"{type(exc).__name__}: {exc}",),
                    expected=expected,
                )
                continue
            if combo.engine == "xslt":
                agree = expected.equals_canonically(actual)
                kind = "canonical"
            else:
                agree = expected_xml == to_xml(actual)
                kind = "bytes"
            if not agree:
                differences = diff(expected.canonical(), actual.canonical())
                if not differences:
                    # Canonically equal, byte-different: show the
                    # document-order diff instead.
                    differences = diff(expected, actual)
                detail = tuple(
                    render_diff(differences).splitlines()[:_DETAIL_LINES]
                )
                self._record(
                    case, combo, report,
                    kind=kind,
                    detail=detail,
                    expected=expected,
                    actual=actual,
                )
        if case.params.get("edits"):
            self._check_incremental(case, reference, expected, report)
        if case.params.get("compose_with"):
            self._check_composition(case, reference, expected, report)
        if case.params.get("round_trip"):
            self._check_roundtrip(case, expected, report)

    def _check_composition(
        self, case: CorpusCase, reference, expected: XmlElement,
        report: FuzzReport,
    ) -> None:
        """The ``composition``-axis leg: compose the case's ``A→B`` tgd
        with the ``B→C`` stage in ``params["compose_with"]`` and
        cross-check the fused one-pass plan against sequential
        two-stage execution, byte for byte."""
        combo = Combo("tgd", True, 1, "compose")
        report.compose_checks += 1
        second = loads_mapping(case.params["compose_with"])
        second_plan = self.cache.get_or_compile(
            second, "tgd", optimize=True
        )
        report.executions += 1
        sequential = second_plan(expected)
        expect_inlined = bool(case.params.get("expect_inlined"))
        try:
            fused_tgd = compose_tgds(reference.tgd, second_plan.tgd)
        except ComposeError as exc:
            report.compose_fallbacks += 1
            if expect_inlined:
                self._record(
                    case, combo, report,
                    kind="error",
                    detail=(
                        "compose declined where the corpus predicted"
                        " inlining",
                        f"{type(exc).__name__}: {exc}",
                    ),
                    expected=sequential,
                )
            return
        report.compose_inlined += 1
        report.executions += 1
        report.comparisons += 1
        if not expect_inlined:
            self._record(
                case, combo, report,
                kind="error",
                detail=(
                    "compose inlined where the corpus predicted a"
                    " sequential fallback",
                ),
                expected=sequential,
            )
            return
        fp = compose_fingerprint(
            fingerprint(case.mapping, "tgd", optimize=True),
            fingerprint(second, "tgd", optimize=True),
        )
        try:
            fused_plan = plan_from_tgd(
                fused_tgd, "tgd", fp=fp, optimize=True
            )
            actual = fused_plan.run(case.instance)
        except ReproError as exc:
            self._record(
                case, combo, report,
                kind="error",
                detail=(f"{type(exc).__name__}: {exc}",),
                expected=sequential,
            )
            return
        if to_xml(sequential) != to_xml(actual):
            differences = diff(sequential.canonical(), actual.canonical())
            if not differences:
                differences = diff(sequential, actual)
            detail = tuple(
                render_diff(differences).splitlines()[:_DETAIL_LINES]
            )
            self._record(
                case, combo, report,
                kind="bytes",
                detail=detail,
                expected=sequential,
                actual=actual,
            )

    def _check_roundtrip(
        self, case: CorpusCase, expected: XmlElement, report: FuzzReport
    ) -> None:
        """The ``round-trip``-axis leg: run the quasi-inverse over the
        case's target and cross-check the recovered source against the
        independently derived containment-predicted core."""
        combo = Combo("tgd", True, 1, "round-trip")
        report.round_trip_checks += 1
        report.executions += 2
        report.comparisons += 1
        try:
            inverse = quasi_inverse(case.mapping)
            inverse_plan = self.cache.get_or_compile(
                inverse, "tgd", optimize=True
            )
            actual = inverse_plan(expected)
            predicted = predicted_core(case.mapping, case.instance)
        except ReproError as exc:
            self._record(
                case, combo, report,
                kind="error",
                detail=(f"{type(exc).__name__}: {exc}",),
                expected=expected,
            )
            return
        if to_xml(predicted) != to_xml(actual):
            differences = diff(predicted.canonical(), actual.canonical())
            if not differences:
                differences = diff(predicted, actual)
            detail = tuple(
                render_diff(differences).splitlines()[:_DETAIL_LINES]
            )
            self._record(
                case, combo, report,
                kind="bytes",
                detail=detail,
                expected=predicted,
                actual=actual,
            )

    def _check_incremental(
        self, case: CorpusCase, reference, prev_target: XmlElement,
        report: FuzzReport,
    ) -> None:
        """The ``delta``-axis leg: apply the case's edit script and
        cross-check :func:`transform_delta` (from the base document's
        previous target) against a full recompute of the edited one."""
        combo = Combo("tgd", True, 1, "incremental")
        report.executions += 2
        report.comparisons += 1
        report.incremental_checks += 1
        edited = apply_edits(case.instance, case.params["edits"])
        expected = reference(edited)
        try:
            delta = compute_delta(case.instance, edited)
            actual, inc_report = transform_delta(
                reference, case.instance, prev_target, delta,
                new_source=edited,
            )
        except ReproError as exc:
            self._record(
                case, combo, report,
                kind="error",
                detail=(f"{type(exc).__name__}: {exc}",),
                expected=expected,
            )
            return
        if inc_report.incremental:
            report.incremental_hits += 1
        else:
            report.incremental_fallbacks += 1
        if to_xml(expected) != to_xml(actual):
            differences = diff(expected.canonical(), actual.canonical())
            if not differences:
                differences = diff(expected, actual)
            detail = tuple(
                render_diff(differences).splitlines()[:_DETAIL_LINES]
            )
            self._record(
                case, combo, report,
                kind="bytes",
                detail=detail,
                expected=expected,
                actual=actual,
            )

    def _record(
        self,
        case: CorpusCase,
        combo: Combo,
        report: FuzzReport,
        *,
        kind: str,
        detail: tuple[str, ...],
        expected: XmlElement,
        actual: Optional[XmlElement] = None,
    ) -> None:
        letter_name = None
        if self.dead_letter_dir is not None:
            letter_name = self._dead_letter(
                case, combo, kind=kind, detail=detail,
                expected=expected, actual=actual,
            )
        report.divergences.append(
            Divergence(
                case_id=case.case_id,
                axis=case.axis,
                engine=combo.engine,
                optimize=combo.optimize,
                workers=combo.workers,
                kind=kind,
                detail=detail,
                dead_letter=letter_name,
                exec_mode=combo.exec_mode,
            )
        )

    # -- dead letters ------------------------------------------------------

    def _dead_letter(
        self,
        case: CorpusCase,
        combo: Combo,
        *,
        kind: str,
        detail: tuple[str, ...],
        expected: XmlElement,
        actual: Optional[XmlElement],
    ) -> str:
        assert self.dead_letter_dir is not None
        name = f"{case.case_id}--{combo.slug}"
        directory = self.dead_letter_dir / name
        directory.mkdir(parents=True, exist_ok=True)
        save_mapping(case.mapping, str(directory / "mapping.json"))
        (directory / "source.xml").write_text(
            to_xml(case.instance), encoding="utf-8"
        )
        (directory / "expected.xml").write_text(
            to_xml(expected), encoding="utf-8"
        )
        if actual is not None:
            (directory / "actual.xml").write_text(
                to_xml(actual), encoding="utf-8"
            )
        trace = self._capture_trace(case, combo)
        if trace is not None:
            (directory / "trace.json").write_text(
                json.dumps(trace, indent=2, sort_keys=True), encoding="utf-8"
            )
        if combo.exec_mode == "codegen":
            source = self._generated_source(case)
            if source is not None:
                (directory / "generated.py").write_text(
                    source, encoding="utf-8"
                )
        manifest = {
            "format": FUZZ_CASE_FORMAT,
            "version": FUZZ_CASE_VERSION,
            "case_id": case.case_id,
            "axis": case.axis,
            "seed": case.seed,
            "index": case.index,
            "params": dict(case.params),
            "fingerprint": case.fingerprint(),
            "combo": {
                "engine": combo.engine,
                "optimize": combo.optimize,
                "workers": combo.workers,
                "exec_mode": combo.exec_mode,
            },
            "kind": kind,
            "detail": list(detail),
        }
        (directory / "case.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        return name

    def _capture_trace(self, case: CorpusCase, combo: Combo) -> Optional[dict]:
        """Re-run the diverging combo under a tracer, best effort.

        Pool combos fall back to an in-process traced run — the pool
        merges worker spans already, but a deterministic single-process
        trace is the more useful replay artifact.
        """
        tracer = SpanTracer()
        try:
            plan = self.cache.get_or_compile(
                case.mapping, combo.engine, optimize=combo.optimize,
                exec_mode=combo.exec_mode,
            )
            plan.run(case.instance, trace=tracer)
        except ReproError:
            pass  # the error itself is in the manifest
        trace = tracer.to_trace()
        return trace.to_dict() if trace.spans else None

    def _generated_source(self, case: CorpusCase) -> Optional[str]:
        """The codegen backend's generated Python for this case's plan,
        best effort — the replay kit's most useful artifact when the
        specialized program disagrees with the interpreter."""
        try:
            plan = self.cache.get_or_compile(
                case.mapping, "tgd", optimize=True, exec_mode="codegen"
            )
        except ReproError:
            return None
        if plan.tgd_plan is None or plan.tgd_plan.program is None:
            return None
        return plan.tgd_plan.program.source

    # -- entry points ------------------------------------------------------

    def run(self, cases: Iterable[CorpusCase], report: FuzzReport) -> FuzzReport:
        """Cross-check ``cases``, mutating and returning ``report``."""
        started = time.monotonic()
        pending = list(cases)
        report.cases = len(pending)
        for axis in report.axes:
            report.axis_coverage.setdefault(axis, AxisCoverage())
        for case in pending:
            coverage = report.axis_coverage.setdefault(
                case.axis, AxisCoverage()
            )
            coverage.cases += 1
        for position, case in enumerate(pending):
            if self.budget_seconds is not None and (
                time.monotonic() - started >= self.budget_seconds
            ):
                report.exhausted_budget = True
                report.skipped = len(pending) - position
                break
            coverage = report.axis_coverage[case.axis]
            self._check_case(case, report, coverage)
            coverage.executed += 1
        return report

    def run_corpus(
        self,
        seed: int = 7,
        count: int = 100,
        *,
        axes: Optional[Sequence[str]] = None,
    ) -> FuzzReport:
        """Generate the ``(seed, count, axes)`` corpus and cross-check it."""
        selected = resolve_axes(axes)
        report = FuzzReport(
            seed=seed,
            count=count,
            axes=selected,
            engines=self.engines,
            optimize_modes=self.optimize_modes,
            workers=self.workers,
            exec_modes=self.exec_modes,
            budget_seconds=self.budget_seconds,
        )
        return self.run(generate_corpus(seed, count, axes=selected), report)

    # -- replay ------------------------------------------------------------

    def replay(self, case_dir: Union[str, Path]) -> ReplayResult:
        """Re-run one dead-lettered divergence from its artifacts.

        Loads the persisted mapping and source instance, re-executes
        the reference and the recorded combo, and reports whether the
        divergence still reproduces — after an engine fix, a replay
        comes back clean.
        """
        directory = Path(case_dir)
        manifest_path = directory / "case.json"
        if not manifest_path.is_file():
            raise FuzzError(f"no case.json in {directory}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != FUZZ_CASE_FORMAT:
            raise FuzzError(
                f"{manifest_path} is not a {FUZZ_CASE_FORMAT} document"
            )
        mapping = load_mapping(str(directory / "mapping.json"))
        instance = parse_xml(
            (directory / "source.xml").read_text(encoding="utf-8"),
            mapping.source,
        )
        combo = Combo(
            engine=manifest["combo"]["engine"],
            optimize=bool(manifest["combo"]["optimize"]),
            workers=int(manifest["combo"]["workers"]),
            # Pre-codegen kits carry no exec_mode; default to interp.
            exec_mode=manifest["combo"].get("exec_mode", "interp"),
        )
        case = CorpusCase(
            case_id=manifest["case_id"],
            axis=manifest["axis"],
            seed=manifest["seed"],
            index=manifest["index"],
            mapping=mapping,
            instance=instance,
            params=manifest.get("params", {}),
        )
        reference = self.cache.get_or_compile(mapping, "tgd", optimize=True)
        if combo.exec_mode == "incremental":
            return self._replay_incremental(case, combo, reference)
        if combo.exec_mode == "compose":
            return self._replay_composition(case, combo, reference)
        if combo.exec_mode == "round-trip":
            return self._replay_roundtrip(case, combo, reference)
        expected = reference(instance)
        expected_xml = to_xml(expected)
        tracer = SpanTracer()
        try:
            actual = self._execute(case, combo, trace=tracer if combo.workers == 1 else None)
        except ReproError as exc:
            return ReplayResult(
                case_id=case.case_id,
                combo=combo,
                diverged=True,
                expected_xml=expected_xml,
                error=f"{type(exc).__name__}: {exc}",
                trace=None,
            )
        if combo.engine == "xslt":
            diverged = not expected.equals_canonically(actual)
        else:
            diverged = expected_xml != to_xml(actual)
        differences = []
        if diverged:
            rendered = render_diff(diff(expected.canonical(), actual.canonical()))
            differences = rendered.splitlines()
        trace = tracer.to_trace()
        return ReplayResult(
            case_id=case.case_id,
            combo=combo,
            diverged=diverged,
            differences=differences,
            expected_xml=expected_xml,
            actual_xml=to_xml(actual),
            trace=trace.to_dict() if trace.spans else None,
        )

    def _replay_composition(
        self, case: CorpusCase, combo: Combo, reference
    ) -> ReplayResult:
        """Replay a ``composition``-axis kit: re-derive the fused plan
        from the manifest's second-stage mapping and re-check it
        against sequential two-stage execution."""
        second = loads_mapping(case.params["compose_with"])
        second_plan = self.cache.get_or_compile(second, "tgd", optimize=True)
        expected = second_plan(reference(case.instance))
        expected_xml = to_xml(expected)
        try:
            fused_tgd = compose_tgds(reference.tgd, second_plan.tgd)
            fp = compose_fingerprint(
                fingerprint(case.mapping, "tgd", optimize=True),
                fingerprint(second, "tgd", optimize=True),
            )
            fused_plan = plan_from_tgd(fused_tgd, "tgd", fp=fp, optimize=True)
            actual = fused_plan.run(case.instance)
        except ReproError as exc:
            return ReplayResult(
                case_id=case.case_id,
                combo=combo,
                diverged=bool(case.params.get("expect_inlined")),
                expected_xml=expected_xml,
                error=f"{type(exc).__name__}: {exc}",
            )
        diverged = expected_xml != to_xml(actual)
        differences = []
        if diverged:
            rendered = render_diff(
                diff(expected.canonical(), actual.canonical())
            )
            differences = rendered.splitlines()
        return ReplayResult(
            case_id=case.case_id,
            combo=combo,
            diverged=diverged,
            differences=differences,
            expected_xml=expected_xml,
            actual_xml=to_xml(actual),
        )

    def _replay_roundtrip(
        self, case: CorpusCase, combo: Combo, reference
    ) -> ReplayResult:
        """Replay a ``round-trip``-axis kit: re-run the quasi-inverse
        over the target and re-check against the predicted core."""
        target = reference(case.instance)
        try:
            expected = predicted_core(case.mapping, case.instance)
        except ReproError as exc:
            return ReplayResult(
                case_id=case.case_id,
                combo=combo,
                diverged=True,
                error=f"{type(exc).__name__}: {exc}",
            )
        expected_xml = to_xml(expected)
        try:
            inverse = quasi_inverse(case.mapping)
            inverse_plan = self.cache.get_or_compile(
                inverse, "tgd", optimize=True
            )
            actual = inverse_plan(target)
        except ReproError as exc:
            return ReplayResult(
                case_id=case.case_id,
                combo=combo,
                diverged=True,
                expected_xml=expected_xml,
                error=f"{type(exc).__name__}: {exc}",
            )
        diverged = expected_xml != to_xml(actual)
        differences = []
        if diverged:
            rendered = render_diff(
                diff(expected.canonical(), actual.canonical())
            )
            differences = rendered.splitlines()
        return ReplayResult(
            case_id=case.case_id,
            combo=combo,
            diverged=diverged,
            differences=differences,
            expected_xml=expected_xml,
            actual_xml=to_xml(actual),
        )

    def _replay_incremental(
        self, case: CorpusCase, combo: Combo, reference
    ) -> ReplayResult:
        """Replay a ``delta``-axis kit: re-derive the edited document
        from the manifest's edit script and re-check the incremental
        path against the full recompute."""
        edited = apply_edits(case.instance, case.params.get("edits", []))
        prev_target = reference(case.instance)
        expected = reference(edited)
        expected_xml = to_xml(expected)
        try:
            delta = compute_delta(case.instance, edited)
            actual, _ = transform_delta(
                reference, case.instance, prev_target, delta,
                new_source=edited,
            )
        except ReproError as exc:
            return ReplayResult(
                case_id=case.case_id,
                combo=combo,
                diverged=True,
                expected_xml=expected_xml,
                error=f"{type(exc).__name__}: {exc}",
            )
        diverged = expected_xml != to_xml(actual)
        differences = []
        if diverged:
            rendered = render_diff(
                diff(expected.canonical(), actual.canonical())
            )
            differences = rendered.splitlines()
        return ReplayResult(
            case_id=case.case_id,
            combo=combo,
            diverged=diverged,
            differences=differences,
            expected_xml=expected_xml,
            actual_xml=to_xml(actual),
        )


def run_fuzz(
    seed: int = 7,
    count: int = 100,
    *,
    axes: Optional[Sequence[str]] = None,
    workers: Sequence[int] = (1,),
    exec_modes: Sequence[str] = ("interp", "codegen"),
    budget_seconds: Optional[float] = None,
    dead_letter_dir: Union[str, Path, None] = None,
    cache: Optional[PlanCache] = None,
) -> FuzzReport:
    """One-call farm run over the ``(seed, count, axes)`` corpus."""
    farm = FuzzFarm(
        workers=workers,
        exec_modes=exec_modes,
        budget_seconds=budget_seconds,
        dead_letter_dir=dead_letter_dir,
        cache=cache,
    )
    return farm.run_corpus(seed, count, axes=axes)


__all__ = [
    "AXES",
    "Combo",
    "FuzzError",
    "FuzzFarm",
    "ReplayResult",
    "run_fuzz",
]
