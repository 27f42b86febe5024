"""Canonical normal forms for nested tgds.

Two Clip mappings that differ only in *bound variable names* (the
``var=`` labels a user picks for builder arcs) compile to tgds that are
alpha-equivalent: they denote the same transformation and produce
byte-identical targets, because variable names never reach the output —
only the projection labels and constants do.  The same holds for the
*order of conjuncts* in a ``where`` clause: the executor filters an
enumerated environment by the conjunction, so permuting C1 cannot
change which rows survive.

``canonical_tgd`` rewrites a tgd into a normal form that is invariant
under exactly those two degrees of freedom and nothing else:

* every bound variable — source generators, target generators, grouping
  Skolems, group aliases — is renamed to ``c0, c1, …`` in one fixed
  traversal order (per root mapping: source generators, then the group
  alias, then target generators and the Skolem variable, then the
  submappings, depth-first);
* each level's ``where`` conjuncts are sorted by their rendered text.

Crucially the normal form does **not** reorder roots, generators,
assignments or submappings: the XML instance model is ordered, so those
orders are observable in the output bytes and two tgds differing there
are *not* interchangeable.

``canonical_render`` is the printable form of the normal form.
"""

from __future__ import annotations

from typing import Optional

from ..core.tgd import (
    AggregateApp,
    Assignment,
    Constant,
    FunctionApp,
    GroupByApp,
    Membership,
    NestedTgd,
    Proj,
    SourceGenerator,
    TargetGenerator,
    TgdComparison,
    TgdExpr,
    TgdMapping,
    Term,
    Var,
    render_tgd,
)

__all__ = ["canonical_tgd", "canonical_render", "rename_vars"]


class _Renamer:
    """Allocates ``c0, c1, …`` for bound names, first-come first-served."""

    __slots__ = ("mapping", "counter")

    def __init__(self):
        self.mapping: dict[str, str] = {}
        self.counter = 0

    def bind(self, name: str) -> str:
        fresh = self.mapping.get(name)
        if fresh is None:
            fresh = f"c{self.counter}"
            self.counter += 1
            self.mapping[name] = fresh
        return fresh

    def lookup(self, name: str) -> str:
        # Free names (none occur in well-formed tgds) pass through, so
        # normalization never invents a capture.
        return self.mapping.get(name, name)


def rename_vars(expr: TgdExpr, mapping: dict[str, str]) -> TgdExpr:
    """Rewrite every :class:`Var` in a projection chain through ``mapping``
    (names absent from the mapping are left untouched)."""
    if isinstance(expr, Proj):
        return Proj(rename_vars(expr.base, mapping), expr.label)
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name))
    return expr


def rename_term(term: Term, mapping: dict[str, str]) -> Term:
    """Rewrite a target-side term (expression, constant, function or
    aggregate application) through a variable renaming."""
    if isinstance(term, Constant):
        return term
    if isinstance(term, FunctionApp):
        return FunctionApp(
            term.function,
            tuple(rename_vars(arg, mapping) for arg in term.args),
        )
    if isinstance(term, AggregateApp):
        return AggregateApp(term.function, rename_vars(term.arg, mapping))
    return rename_vars(term, mapping)


def rename_condition(condition, mapping: dict[str, str]):
    """Rewrite a source condition through a variable renaming."""
    if isinstance(condition, Membership):
        return Membership(
            rename_vars(condition.member, mapping),
            rename_vars(condition.collection, mapping),
        )
    if isinstance(condition, TgdComparison):
        left = condition.left
        right = condition.right
        if not isinstance(left, Constant):
            left = rename_vars(left, mapping)
        if not isinstance(right, Constant):
            right = rename_vars(right, mapping)
        return TgdComparison(left, condition.op, right)
    raise TypeError(f"unsupported condition {condition!r}")


def _canonical_mapping(level: TgdMapping, renamer: _Renamer) -> TgdMapping:
    source_gens = []
    for gen in level.source_gens:
        # The generator expression refers only to *outer* names, so
        # rewrite it before binding the generator's own variable.
        expr = rename_vars(gen.expr, renamer.mapping)
        source_gens.append(SourceGenerator(renamer.bind(gen.var), expr))
    grouped_var = (
        renamer.bind(level.grouped_var) if level.grouped_var is not None else None
    )
    where = tuple(
        sorted(
            (rename_condition(c, renamer.mapping) for c in level.where),
            key=str,
        )
    )
    target_gens = []
    for gen in level.target_gens:
        expr = rename_vars(gen.expr, renamer.mapping)
        target_gens.append(
            TargetGenerator(
                renamer.bind(gen.var),
                expr,
                quantified=gen.quantified,
                distribute=gen.distribute,
            )
        )
    skolem: Optional[tuple[str, GroupByApp]] = None
    if level.skolem is not None:
        var, app = level.skolem
        skolem = (
            renamer.bind(var),
            GroupByApp(
                context=(
                    None
                    if app.context is None
                    else tuple(renamer.lookup(name) for name in app.context)
                ),
                attrs=tuple(rename_vars(a, renamer.mapping) for a in app.attrs),
            ),
        )
    assignments = tuple(
        Assignment(
            rename_vars(a.target, renamer.mapping),
            rename_term(a.value, renamer.mapping),
        )
        for a in level.assignments
    )
    submappings = tuple(
        _canonical_mapping(sub, renamer) for sub in level.submappings
    )
    return TgdMapping(
        source_gens=tuple(source_gens),
        where=where,
        target_gens=tuple(target_gens),
        assignments=assignments,
        submappings=submappings,
        skolem=skolem,
        grouped_var=grouped_var,
    )


def canonical_tgd(tgd: NestedTgd) -> NestedTgd:
    """The alpha-renaming / where-order normal form of a nested tgd.

    Idempotent: ``canonical_tgd(canonical_tgd(t)) == canonical_tgd(t)``.
    Each root mapping gets a fresh counter, so the normal form of a root
    does not depend on its siblings.
    """
    roots = []
    functions: list[str] = []
    for root in tgd.roots:
        renamer = _Renamer()
        roots.append(_canonical_mapping(root, renamer))
    # Function symbols name the grouping Skolems; their canonical
    # spelling is positional, mirroring the renamed skolem variables.
    for index, _name in enumerate(tgd.functions):
        functions.append(f"group-by#{index}")
    return NestedTgd(
        roots=tuple(roots),
        functions=tuple(functions),
        source_root=tgd.source_root,
        target_root=tgd.target_root,
    )


def canonical_render(tgd: NestedTgd) -> str:
    """The canonical printed form: schema roots, then the normalized tgd.

    It embeds the source and target root tags (they are part of the
    transformation's identity but not of the rendered mapping body).
    """
    normal = canonical_tgd(tgd)
    return (
        f"source={normal.source_root}\n"
        f"target={normal.target_root}\n"
        f"{render_tgd(normal)}"
    )
