"""Execution statistics: instrumented runs of the tgd executor.

:func:`explain` runs a mapping while counting, per tgd level, how many
iterations fired, how many tuples the conditions filtered out, how many
target elements were created, how many groups formed, and how many
assignments were applied.  Mapping developers use the report to spot
accidental Cartesian blow-ups — a paper theme: the difference between
Figures 4/6 and their arc-less variants is exactly these numbers.

:func:`explain_plan` is the optimizer-side counterpart: it compiles the
mapping through :mod:`repro.executor.planner`, evaluates it, and
reports the compiled plan (generator order, pushed filters, hash
joins) together with the runtime counters (bindings enumerated, filter
drops, hash build/probe sizes) as a ``clip-plan-explain`` document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..core.tgd import NestedTgd, TgdMapping
from ..xml.model import XmlElement
from .engine import _Engine

#: Schema identifiers of the :func:`explain_plan` JSON document.
PLAN_EXPLAIN_FORMAT = "clip-plan-explain"
PLAN_EXPLAIN_VERSION = 1


@dataclass
class LevelStats:
    """Counters for one (sub)mapping level."""

    label: str
    depth: int
    iterations: int = 0
    filtered_out: int = 0
    groups: int = 0
    elements_built: int = 0
    assignments_applied: int = 0

    def row(self) -> str:
        pad = "  " * self.depth
        bits = [
            f"{pad}{self.label}:",
            f"iterations={self.iterations}",
            f"filtered={self.filtered_out}",
        ]
        if self.groups:
            bits.append(f"groups={self.groups}")
        bits.append(f"built={self.elements_built}")
        bits.append(f"assigned={self.assignments_applied}")
        return " ".join(bits)

    def to_dict(self) -> dict:
        """The counters as a plain dict (machine-readable reports)."""
        return {
            "label": self.label,
            "depth": self.depth,
            "iterations": self.iterations,
            "filtered_out": self.filtered_out,
            "groups": self.groups,
            "elements_built": self.elements_built,
            "assignments_applied": self.assignments_applied,
        }


@dataclass
class ExecutionReport:
    """The result instance plus per-level counters."""

    result: XmlElement
    levels: list[LevelStats] = field(default_factory=list)

    @property
    def total_elements_built(self) -> int:
        return sum(level.elements_built for level in self.levels)

    @property
    def total_iterations(self) -> int:
        return sum(level.iterations for level in self.levels)

    def render(self) -> str:
        lines = [level.row() for level in self.levels]
        lines.append(
            f"total: {self.total_iterations} iterations, "
            f"{self.total_elements_built} elements built, "
            f"{self.result.size()} elements in the result"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report as a plain dict: per-level counters plus totals.
        The result instance itself is summarized by its element count —
        serialize it separately if the tree is needed."""
        return {
            "levels": [level.to_dict() for level in self.levels],
            "total_iterations": self.total_iterations,
            "total_elements_built": self.total_elements_built,
            "result_elements": self.result.size(),
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The report as JSON text (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent)


def _label(mapping: TgdMapping) -> str:
    if mapping.source_gens:
        gens = ", ".join(f"{g.var} ∈ {g.expr}" for g in mapping.source_gens)
    else:
        gens = "⊤"
    return f"∀ {gens}"


def explain(tgd: NestedTgd, source_instance: XmlElement) -> ExecutionReport:
    """Run the mapping and return the instrumented report."""
    engine = _InstrumentedEngine(tgd, source_instance)
    result = engine.run()
    return ExecutionReport(result, engine.levels)


class _InstrumentedEngine(_Engine):
    """The executor with per-level counters.  Re-implements the mapping
    loop of :class:`_Engine` with counting; the expression/condition/
    materialization machinery is inherited unchanged."""

    def __init__(self, tgd: NestedTgd, source_instance: XmlElement):
        super().__init__(tgd, source_instance)
        self.levels: list[LevelStats] = []
        self._stats: dict[int, LevelStats] = {}
        self._walk(tgd.roots, 0)

    def _walk(self, mappings, depth: int) -> None:
        for mapping in mappings:
            stats = LevelStats(_label(mapping), depth)
            self.levels.append(stats)
            self._stats[id(mapping)] = stats
            self._walk(mapping.submappings, depth + 1)

    def _run_mapping(self, mapping, env, target_env):
        stats = self._stats[id(mapping)]
        raw = self._enumerate_raw(mapping, env)
        envs = [
            e for e in raw
            if all(self._condition_holds(c, e) for c in mapping.where)
        ]
        stats.filtered_out += len(raw) - len(envs)
        if mapping.skolem is not None:
            before_groups = len(self._groups)
            stats.iterations += len(envs)
            super()._run_grouped(mapping, envs, target_env)
            new_groups = len(self._groups) - before_groups
            stats.groups += new_groups
            stats.elements_built += new_groups
            stats.assignments_applied += len(mapping.assignments) * new_groups
            return
        if not mapping.source_gens:
            envs = [dict(env)]
        stats.iterations += len(envs)
        prefix, suffix = self._split_targets(mapping.target_gens)
        base_envs = self._materialize_targets(prefix, target_env)
        built_per_iteration = sum(1 for g in suffix if g.quantified)
        for iteration_env in envs:
            for base_env in base_envs:
                for iter_target_env in self._materialize_targets(suffix, base_env):
                    stats.elements_built += built_per_iteration
                    for assignment in mapping.assignments:
                        self._apply_assignment(assignment, iteration_env, iter_target_env)
                        stats.assignments_applied += 1
                    for sub in mapping.submappings:
                        self._run_mapping(sub, iteration_env, iter_target_env)


# -- plan explain ------------------------------------------------------------


@dataclass
class PlanExplain:
    """The compiled plan of a mapping plus the runtime counters of one
    evaluation — the payload of the ``clip-plan-explain`` document."""

    result: XmlElement
    optimize: bool
    #: Static per-level plan descriptions (see ``LevelPlan.describe``).
    levels: list[dict]
    #: Per-level runtime counter dicts (all-zero when ``optimize`` is
    #: off: the naive path has no planner instrumentation).
    counters: list[dict]
    #: The effective execution mode ("interp" or "codegen").
    exec_mode: str = "interp"
    #: The generated program's description (source hash, line count,
    #: compile seconds) when ``exec_mode`` is codegen, else ``None``.
    codegen: Optional[dict] = None

    def to_dict(self) -> dict:
        return self.document(self.result.size())

    def document(self, result_elements: int) -> dict:
        """The ``clip-plan-explain`` document, for callers that already
        counted the result's elements (no second tree walk)."""
        totals: dict[str, int] = {}
        for counter in self.counters:
            for name, value in counter.items():
                totals[name] = totals.get(name, 0) + value
        doc = {
            "format": PLAN_EXPLAIN_FORMAT,
            "version": PLAN_EXPLAIN_VERSION,
            "optimize": self.optimize,
            "exec_mode": self.exec_mode,
            "levels": [
                {**level, "counters": counter}
                for level, counter in zip(self.levels, self.counters)
            ],
            "totals": totals,
            "result_elements": result_elements,
        }
        if self.codegen is not None:
            doc["codegen"] = self.codegen
        return doc

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)

    def render(self) -> str:
        """Human-readable plan + counters (the CLI ``explain`` output)."""
        doc = self.to_dict()
        mode = f", exec_mode={self.exec_mode}" if self.exec_mode != "interp" else ""
        lines = [
            f"{PLAN_EXPLAIN_FORMAT} v{PLAN_EXPLAIN_VERSION} "
            f"(optimize={'on' if self.optimize else 'off'}{mode})"
        ]
        if self.codegen is not None:
            lines.append(
                f"codegen: {self.codegen['line_count']} lines, "
                f"source sha256 {self.codegen['source_hash'][:12]}…, "
                f"compiled in {self.codegen['compile_seconds'] * 1000:.2f} ms"
            )
        for level in doc["levels"]:
            pad = "  " * level["depth"]
            suffix = " [grouped]" if level["grouped"] else ""
            lines.append(f"{pad}{level['label']}{suffix}")
            if level["order"] and level["reordered"]:
                lines.append(f"{pad}  order: {', '.join(level['order'])} (reordered)")
            for cond in level["pre_filters"]:
                lines.append(f"{pad}  pre-filter: {cond}")
            for gen in level["generators"]:
                for cond in gen["pushed_filters"]:
                    lines.append(f"{pad}  pushed filter @ {gen['var']}: {cond}")
                for join in gen["joins"]:
                    lines.append(
                        f"{pad}  {join['kind']} join @ {gen['var']}: "
                        f"{join['condition']} (build {join['build']}, "
                        f"probe {join['probe']})"
                    )
                for cond in gen["env_filters"]:
                    lines.append(f"{pad}  filter @ {gen['var']}: {cond}")
            counters = level["counters"]
            if self.optimize:
                lines.append(
                    f"{pad}  counters: enumerated={counters['bindings_enumerated']} "
                    f"produced={counters['envs_produced']} "
                    f"filter_drops={counters['filter_drops']}"
                )
                if counters["join_builds"]:
                    lines.append(
                        f"{pad}  hash joins: builds={counters['join_builds']} "
                        f"build_rows={counters['join_build_rows']} "
                        f"build_keys={counters['join_build_keys']} "
                        f"probes={counters['join_probes']} "
                        f"matches={counters['join_probe_matches']}"
                    )
                if counters["groups"]:
                    lines.append(f"{pad}  groups: {counters['groups']}")
        totals = doc["totals"]
        if self.optimize:
            lines.append(
                f"total: {totals.get('bindings_enumerated', 0)} bindings "
                f"enumerated, {totals.get('filter_drops', 0)} filtered, "
                f"{doc['result_elements']} elements in the result"
            )
        else:
            lines.append(
                f"total: naive evaluation (no planner counters), "
                f"{doc['result_elements']} elements in the result"
            )
        return "\n".join(lines)


def explain_plan(
    tgd: NestedTgd,
    source_instance: XmlElement,
    *,
    optimize: Optional[bool] = None,
    exec_mode: Optional[str] = None,
) -> PlanExplain:
    """Compile the mapping, evaluate it once, and report the compiled
    plan together with its runtime counters.

    With ``optimize`` off the plan is still compiled (its static shape
    is shown) but evaluation takes the naive reference path, so all
    counters stay zero.  With ``exec_mode="codegen"`` (optimized only)
    the specialized generated program runs instead of the interpreter
    — identical counters by construction — and the report gains a
    ``codegen`` section (source hash, line count, compile seconds).
    """
    from .codegen import _CodegenEngine, build_program, resolve_exec_mode
    from .planner import PlanStats, _OptimizedEngine, plan_tgd, resolve_optimize

    resolved = resolve_optimize(optimize)
    planned = plan_tgd(tgd)
    stats = PlanStats(planned)
    mode = resolve_exec_mode(exec_mode) if resolved else "interp"
    codegen = None
    if resolved and mode == "codegen":
        program = build_program(planned)
        codegen = program.describe()
        result = _CodegenEngine(
            tgd, source_instance, planned, program, stats=stats
        ).run()
    elif resolved:
        result = _OptimizedEngine(
            tgd, source_instance, planned, stats=stats
        ).run()
    else:
        result = _Engine(tgd, source_instance).run()
    return PlanExplain(
        result=result,
        optimize=resolved,
        levels=[plan.describe() for plan in planned.levels],
        counters=[counter.to_dict() for counter in stats.counters],
        exec_mode=mode,
        codegen=codegen,
    )
