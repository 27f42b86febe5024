"""Composition of nested tgds: ``A→B`` then ``B→C`` as one ``A→C`` tgd.

Following Arenas–Pérez–Reutter–Riveros, the composition of two schema
mappings is computed *symbolically*: every ``B``-side collection the
second mapping iterates is replaced by the first mapping's recipe for
building it (its source generators and filters), and every ``B``-side
value the second mapping reads is replaced by the term the first
mapping assigned there.  The result is a single nested tgd over ``A``
producing ``C`` directly — no intermediate instance is materialized,
and the one-pass plan is **byte-identical** to running the two
transforms in sequence:

* the first mapping appends ``B`` elements in the lexicographic order
  of its generator environments, so inlining its generator chains as
  nested loops reproduces the second mapping's iteration order exactly;
* an assignment whose value evaluates to nothing is skipped by the
  executor, and a read of the resulting absent node yields nothing —
  so dropping the corresponding composed assignment is exact.

Outside the symbolic fragment — grouping Skolems, aggregates in the
second mapping, distributed or unquantified builders in the first,
reads that cross a builder boundary — :class:`ComposeError` is raised
with a stable ``reason`` tag and callers fall back to sequential
execution.  The fallback is always available; composition is an
optimization, never a semantic gamble.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.compile import compile_clip
from ..core.mapping import ClipMapping
from ..core.tgd import (
    AggregateApp,
    Assignment,
    Constant,
    FunctionApp,
    Membership,
    NestedTgd,
    Proj,
    SchemaRoot,
    SourceGenerator,
    TgdComparison,
    TgdExpr,
    TgdMapping,
    Term,
    Var,
    expr_labels,
    expr_root,
)
from ..errors import ComposeError
from .normalize import rename_condition, rename_term, rename_vars

__all__ = ["compose", "compose_tgds", "compose_fingerprint"]

_MappingLike = Union[ClipMapping, NestedTgd]

#: Marks a ``B`` location whose assigned term cannot be substituted
#: (written twice, or its value refers to variables below the builder).
_UNSAFE = object()

#: Marks a read of a ``B`` node the first mapping never writes: the
#: node is absent in every intermediate instance.
_ABSENT = object()


def _as_tgd(mapping: _MappingLike) -> NestedTgd:
    if isinstance(mapping, NestedTgd):
        return mapping
    return compile_clip(mapping)


def compose_fingerprint(first_fp: str, second_fp: str) -> str:
    """The cache fingerprint of a fused two-stage plan: a hash over the
    stage fingerprints, so the fused key inherits engine/optimize/exec
    markers from its parts."""
    payload = f"compose\n{first_fp}\n{second_fp}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# -- indexing the first mapping's builders ---------------------------------


@dataclass
class _Entry:
    """One quantified builder of the first mapping: the recipe for a
    ``B`` collection at an absolute path below the ``B`` root."""

    path: tuple[str, ...]
    var: str
    #: Levels of the first tgd from its root down to (and including)
    #: the level that builds this entry.
    chain: tuple[TgdMapping, ...]
    #: Source variables bound along the chain.
    chain_vars: frozenset[str]
    parent: Optional["_Entry"]
    #: Relative value path → the assigned :data:`Term` (or ``_UNSAFE``).
    assignments: dict = field(default_factory=dict)


def _term_vars(term: Term) -> set[str]:
    if isinstance(term, Constant):
        return set()
    if isinstance(term, FunctionApp):
        found: set[str] = set()
        for arg in term.args:
            found |= _term_vars(arg)
        return found
    if isinstance(term, AggregateApp):
        return _term_vars(term.arg)
    root = expr_root(term)
    return {root.name} if isinstance(root, Var) else set()


def _index_first(tgd: NestedTgd) -> dict[tuple[str, ...], _Entry]:
    """Index every builder of the first mapping by its absolute ``B``
    path, rejecting shapes outside the symbolic fragment."""
    if tgd.functions:
        raise ComposeError("first-grouping", "first mapping uses grouping Skolems")
    entries: dict[tuple[str, ...], _Entry] = {}

    def walk(
        level: TgdMapping,
        chain: tuple[TgdMapping, ...],
        visible: dict[str, _Entry],
        chain_vars: set[str],
    ) -> None:
        if level.skolem is not None or level.grouped_var is not None:
            raise ComposeError("first-grouping", "first mapping uses grouping Skolems")
        new_chain = chain + (level,)
        new_vars = set(chain_vars)
        new_vars.update(gen.var for gen in level.source_gens)
        local = dict(visible)
        own_vars: set[str] = set()
        for gen in level.target_gens:
            if not gen.quantified or gen.distribute:
                raise ComposeError(
                    "first-unquantified",
                    "first mapping builds constant or distributed tags",
                )
            if not isinstance(gen.expr, Proj):
                raise ComposeError("first-shape", f"odd target generator {gen}")
            base = gen.expr.base
            if isinstance(base, SchemaRoot):
                parent_entry: Optional[_Entry] = None
                parent_path: tuple[str, ...] = ()
            elif isinstance(base, Var) and base.name in local:
                parent_entry = local[base.name]
                parent_path = parent_entry.path
            else:
                raise ComposeError("first-shape", f"odd target generator {gen}")
            path = parent_path + (gen.expr.label,)
            if path in entries:
                raise ComposeError(
                    "first-multi-builder",
                    f"two builders produce B path {'/'.join(path)}",
                )
            entry = _Entry(
                path=path,
                var=gen.var,
                chain=new_chain,
                chain_vars=frozenset(new_vars),
                parent=parent_entry,
            )
            entries[path] = entry
            local[gen.var] = entry
            own_vars.add(gen.var)
        for assignment in level.assignments:
            root = expr_root(assignment.target)
            if not isinstance(root, Var) or root.name not in local:
                raise ComposeError(
                    "first-shape", f"odd assignment target {assignment.target}"
                )
            entry = local[root.name]
            key = tuple(expr_labels(assignment.target))
            if key in entry.assignments or root.name not in own_vars:
                # Written twice, or written from a deeper level than the
                # builder (the write then depends on that level having
                # rows): not substitutable.
                entry.assignments[key] = _UNSAFE
            elif _term_vars(assignment.value) <= entry.chain_vars:
                entry.assignments[key] = assignment.value
            else:
                entry.assignments[key] = _UNSAFE
        for sub in level.submappings:
            walk(sub, new_chain, local, new_vars)

    for root in tgd.roots:
        walk(root, (), {}, set())
    return entries


# -- composing against the second mapping ----------------------------------


@dataclass
class _Site:
    """One inline site: a second-mapping variable bound to an entry,
    with the renaming of that entry's chain variables at this site."""

    entry: _Entry
    rename: dict[str, str]


class _FreshNames:
    """Composed-variable supply avoiding every name the second mapping
    already uses (its target variables survive into the composed tgd)."""

    def __init__(self, used: set[str]):
        self._used = used
        self._counter = 0

    def __call__(self) -> str:
        while True:
            name = f"z{self._counter}"
            self._counter += 1
            if name not in self._used:
                self._used.add(name)
                return name


def _used_names(tgd: NestedTgd) -> set[str]:
    used: set[str] = set()
    for level in tgd.walk():
        used.update(gen.var for gen in level.source_gens)
        used.update(gen.var for gen in level.target_gens)
        if level.skolem is not None:
            used.add(level.skolem[0])
        if level.grouped_var is not None:
            used.add(level.grouped_var)
    return used


class _Composer:
    def __init__(self, tgd_ab: NestedTgd, tgd_bc: NestedTgd):
        self.entries = _index_first(tgd_ab)
        self.fresh = _FreshNames(_used_names(tgd_bc) | _used_names(tgd_ab))

    # -- generator inlining ------------------------------------------

    def _inline_chain(
        self,
        levels: tuple[TgdMapping, ...],
        rename: dict[str, str],
        source_gens: list[SourceGenerator],
        where: list,
    ) -> None:
        """Append a builder chain's generators and filters, renaming its
        variables fresh for this inline site."""
        for level in levels:
            for gen in level.source_gens:
                expr = rename_vars(gen.expr, rename)
                fresh = self.fresh()
                source_gens.append(SourceGenerator(fresh, expr))
                rename[gen.var] = fresh
            where.extend(rename_condition(c, rename) for c in level.where)

    def _bind_generator(
        self,
        gen_expr: TgdExpr,
        sites: dict[str, _Site],
        source_gens: list[SourceGenerator],
        where: list,
    ) -> _Site:
        """Resolve one second-mapping source generator to a builder
        entry, inlining whatever part of its chain is not yet bound."""
        root = expr_root(gen_expr)
        labels = tuple(expr_labels(gen_expr))
        if isinstance(root, SchemaRoot):
            base: Optional[_Site] = None
            path = labels
        elif isinstance(root, Var) and root.name in sites:
            base = sites[root.name]
            path = base.entry.path + labels
        else:
            raise ComposeError("second-shape", f"odd generator collection {gen_expr}")
        entry = self.entries.get(path)
        if entry is None:
            raise ComposeError(
                "no-builder",
                f"second mapping iterates B path {'/'.join(path)} "
                "which the first mapping does not build",
            )
        if base is None:
            rename: dict[str, str] = {}
            suffix = entry.chain
        else:
            prefix = base.entry.chain
            if len(entry.chain) < len(prefix) or any(
                have is not want
                for have, want in zip(entry.chain[: len(prefix)], prefix)
            ):
                raise ComposeError(
                    "chain-mismatch",
                    f"builder of {'/'.join(path)} does not extend its parent's chain",
                )
            rename = dict(base.rename)
            suffix = entry.chain[len(prefix):]
        self._inline_chain(suffix, rename, source_gens, where)
        return _Site(entry=entry, rename=rename)

    # -- value substitution ------------------------------------------

    def _resolve_read(self, expr: TgdExpr, sites: dict[str, _Site]):
        """The term the first mapping assigned at the ``B`` location the
        second mapping reads — or ``_ABSENT`` when nothing writes it."""
        root = expr_root(expr)
        if not isinstance(root, Var) or root.name not in sites:
            raise ComposeError(
                "second-shape",
                f"read {expr} is not rooted in a bound generator variable",
            )
        site = sites[root.name]
        key = tuple(expr_labels(expr))
        term = site.entry.assignments.get(key)
        if term is _UNSAFE:
            raise ComposeError(
                "opaque-value", f"B value at {expr} is not substitutable"
            )
        if term is not None:
            return rename_term(term, site.rename)
        # Distinguish "never written" from "inside a nested builder":
        # a read that crosses into a deeper builder spans that builder's
        # iteration and has no single-row substitute.
        for cut in range(1, len(key) + 1):
            if site.entry.path + key[:cut] in self.entries:
                raise ComposeError(
                    "crosses-builder",
                    f"read {expr} descends into a nested builder",
                )
        return _ABSENT

    def _substitute_operand(self, operand, sites: dict[str, _Site]):
        if isinstance(operand, Constant):
            return operand
        resolved = self._resolve_read(operand, sites)
        if resolved is _ABSENT:
            raise ComposeError(
                "unassigned-condition",
                f"condition reads B value {operand} which is never written",
            )
        if isinstance(resolved, (FunctionApp, AggregateApp)):
            raise ComposeError(
                "operand-shape",
                f"condition operand {operand} substitutes to a computed term",
            )
        return resolved

    def _substitute_condition(self, condition, sites: dict[str, _Site]):
        if isinstance(condition, Membership):
            raise ComposeError(
                "second-membership", "second mapping uses membership conditions"
            )
        if isinstance(condition, TgdComparison):
            return TgdComparison(
                self._substitute_operand(condition.left, sites),
                condition.op,
                self._substitute_operand(condition.right, sites),
            )
        raise ComposeError("second-shape", f"unsupported condition {condition!r}")

    def _substitute_value(self, value: Term, sites: dict[str, _Site]):
        """The composed assignment value, or ``_ABSENT`` when the
        sequential run would skip the assignment on every row."""
        if isinstance(value, Constant):
            return value
        if isinstance(value, AggregateApp):
            raise ComposeError(
                "second-aggregate", "second mapping aggregates over B"
            )
        if isinstance(value, FunctionApp):
            args: list[TgdExpr] = []
            for arg in value.args:
                resolved = self._resolve_read(arg, sites)
                if resolved is _ABSENT:
                    # A scalar function of an absent argument is absent.
                    return _ABSENT
                if not isinstance(resolved, (SchemaRoot, Var, Proj)):
                    raise ComposeError(
                        "function-arg",
                        f"argument {arg} substitutes to a non-path term",
                    )
                args.append(resolved)
            return FunctionApp(value.function, tuple(args))
        return self._resolve_read(value, sites)

    # -- levels -------------------------------------------------------

    def compose_level(
        self, level: TgdMapping, sites: dict[str, _Site]
    ) -> TgdMapping:
        if level.skolem is not None or level.grouped_var is not None:
            raise ComposeError(
                "second-grouping", "second mapping uses grouping Skolems"
            )
        sites = dict(sites)
        source_gens: list[SourceGenerator] = []
        where: list = []
        for gen in level.source_gens:
            sites[gen.var] = self._bind_generator(
                gen.expr, sites, source_gens, where
            )
        for condition in level.where:
            where.append(self._substitute_condition(condition, sites))
        assignments: list[Assignment] = []
        for assignment in level.assignments:
            value = self._substitute_value(assignment.value, sites)
            if value is _ABSENT:
                continue  # the sequential run skips it on every row, too
            assignments.append(Assignment(assignment.target, value))
        submappings = tuple(
            self.compose_level(sub, sites) for sub in level.submappings
        )
        if not source_gens and where:
            # The executor treats a generator-less level as one
            # unconditional document-scope iteration; a filter with no
            # generators to filter cannot be expressed faithfully.
            raise ComposeError(
                "degenerate-level", "composed level filters without generators"
            )
        return TgdMapping(
            source_gens=tuple(source_gens),
            where=tuple(where),
            target_gens=level.target_gens,
            assignments=tuple(assignments),
            submappings=submappings,
        )


def compose_tgds(tgd_ab: NestedTgd, tgd_bc: NestedTgd) -> NestedTgd:
    """Symbolically compose two nested tgds into one ``A→C`` tgd.

    Raises :class:`ComposeError` (with a stable ``reason`` tag) when
    either mapping lies outside the symbolic fragment; callers should
    fall back to sequential execution in that case.
    """
    if tgd_ab.target_root != tgd_bc.source_root:
        raise ComposeError(
            "root-mismatch",
            f"first mapping produces <{tgd_ab.target_root}> but second "
            f"consumes <{tgd_bc.source_root}>",
        )
    if tgd_bc.functions:
        raise ComposeError("second-grouping", "second mapping uses grouping Skolems")
    composer = _Composer(tgd_ab, tgd_bc)
    roots = tuple(
        composer.compose_level(root, {}) for root in tgd_bc.roots
    )
    return NestedTgd(
        roots=roots,
        functions=(),
        source_root=tgd_ab.source_root,
        target_root=tgd_bc.target_root,
    )


def compose(m_ab: _MappingLike, m_bc: _MappingLike) -> NestedTgd:
    """Compose two Clip mappings (or nested tgds): the returned tgd maps
    the first mapping's source directly to the second mapping's target."""
    return compose_tgds(_as_tgd(m_ab), _as_tgd(m_bc))
