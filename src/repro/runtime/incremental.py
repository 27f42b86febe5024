"""Delta-scoped incremental re-execution of compiled tgd plans.

Mapping services re-transform documents a user just edited; re-running
the full plan discards everything the previous run already computed.
Two entry points take the previous source/target pair and a machine
:class:`~repro.xml.diff.Delta` and produce the new target by reusing
the previous one wherever the delta provably cannot reach:
:func:`transform_delta`, stateless, with the pair as inputs; and
:class:`IncrementalSession`, which maintains the pair across a chain of
edits.  Both decide with one check cascade and splice with one
implementation, the session's: :func:`transform_delta` runs its scoped
branch in a one-shot session.

Three outcomes, reported in the returned :class:`IncrementalReport`:

``unchanged``
    No compiled level's source read-set intersects the delta — the
    previous target is correct as-is.

``scoped``
    The root mapping's iteration is partitioned into *units* — one per
    top-level environment, or one per grouping key when the root level
    carries a grouping Skolem.  Units whose source bindings lie outside
    every changed subtree keep their previous target fragment; dirty
    units re-execute through the ordinary engine machinery over the new
    document's index tables.  Fragments are emitted in the new
    document's enumeration order, so the result is byte-identical to a
    full recompute.

``fallback``
    Full recomputation — taken when the delta ratio exceeds the
    threshold, when the mapping uses a construct the scoped path does
    not model (multiple root mappings, ``distribute`` generators,
    writes escaping the per-unit fragment), or when the delta touches a
    *document-scoped* read of a nested level (a generator re-scanning
    the whole document per group, as in the Figure 7 employee join,
    cannot be localized to units).

Scoped re-execution leans on two structural facts checked up front:
every root-level read hangs off the root generators' own bindings, so
a unit's output depends only on its bound subtrees; and nested
document-scoped generators are either *membership-scoped* (tied to a
group variable by a membership condition, like ``$p2`` in Figure 7) or
cause a fallback when the delta reaches the paths they read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ReproError, XmlError
from ..core.tgd import (
    Constant,
    Membership,
    NestedTgd,
    SchemaRoot,
    SourceGenerator,
    TargetGenerator,
    TgdComparison,
    TgdMapping,
    Var,
    expr_labels,
    expr_root,
)
from ..executor.engine import GroupBinding, TgdPlan, _Engine
from ..executor.planner import PlanMemo, _OptimizedEngine, _term_exprs
from ..xml.diff import (
    Delta,
    DeltaRecord,
    apply_delta,
    apply_delta_in_place,
    compute_delta,
    resolve_steps,
)
from ..xml.index import index_for
from ..xml.model import XmlElement

#: Above this changed-nodes / source-size ratio the scoped path cannot
#: win and the incremental entry points recompute from scratch.
DEFAULT_THRESHOLD = 0.25

_Chain = tuple[str, ...]


@dataclass
class IncrementalReport:
    """How one incremental call produced its target."""

    mode: str  # "unchanged" | "scoped" | "fallback"
    reason: str = ""
    delta_records: int = 0
    changed_nodes: int = 0
    delta_ratio: float = 0.0
    threshold: float = DEFAULT_THRESHOLD
    #: Indices of compiled levels whose read-set the delta intersects.
    dirty_levels: tuple[int, ...] = ()
    grouped: bool = False
    #: Units of the scoped partition (root environments or groups).
    total_units: int = 0
    reused_units: int = 0
    recomputed_units: int = 0

    @property
    def incremental(self) -> bool:
        """Whether the previous target contributed to the result."""
        return self.mode in ("unchanged", "scoped")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "reason": self.reason,
            "delta_records": self.delta_records,
            "changed_nodes": self.changed_nodes,
            "delta_ratio": round(self.delta_ratio, 6),
            "threshold": self.threshold,
            "dirty_levels": list(self.dirty_levels),
            "grouped": self.grouped,
            "total_units": self.total_units,
            "reused_units": self.reused_units,
            "recomputed_units": self.recomputed_units,
        }


# -- delta ↔ read-set intersection ------------------------------------------


def _record_chain(record: DeltaRecord) -> _Chain:
    base = tuple(tag for tag, _ in record.steps)
    if record.op == "mutate-attribute":
        return base + (f"@{record.name}",)
    if record.op == "mutate-text":
        return base + ("value",)
    if record.op == "insert" and record.name:
        return base + (record.name,)
    return base


def _intersects(record: DeltaRecord, read: _Chain) -> bool:
    """Whether one delta record can influence one read chain.

    Mutations change a single attribute/text slot, so only the exact
    chain observes them (a bare prefix of the chain is a node-set read
    — binding existence and identity — which interior mutations leave
    intact).  Structural records change the whole subtree at their
    chain, so any read *at or below* it may observe the edit; reads
    strictly above are node-set or value reads whose own population is
    untouched (their dependence on the subtree's contents is recorded
    as separate, deeper chains).
    """
    chain = _record_chain(record)
    if record.op in ("mutate-attribute", "mutate-text"):
        return chain == read
    return read[: len(chain)] == chain


def _delta_touches(delta: Delta, reads, resolved: bool) -> bool:
    if not resolved:
        return True
    return any(
        _intersects(record, read)
        for record in delta.records
        for read in reads
    )


# -- supported-shape analysis -----------------------------------------------


@dataclass
class _Shape:
    """The root-level structure the scoped path relies on."""

    root: TgdMapping
    #: Unquantified wrapper chain above the per-unit fragments (the CPT
    #: "constant tags" of Figure 3); empty when fragments hang directly
    #: off the target root.
    prefix: tuple[TargetGenerator, ...]
    suffix: tuple[TargetGenerator, ...]
    grouped: bool
    #: Absolute chains read by nested levels *outside* their unit scope
    #: (document-wide re-scans); a delta touching these falls back.
    global_reads: frozenset[_Chain] = field(default_factory=frozenset)
    global_resolved: bool = True
    #: Per root-generator variable: the label chains the unit reads
    #: *relative to that variable's binding* — its own value reads,
    #: nested generator populations, and reads of membership-pinned
    #: variables re-anchored to the binding they are pinned to.  Lets
    #: the dirty test ask "can this record reach a read of this unit?"
    #: instead of marking every unit whose binding merely contains the
    #: changed node.  ``None`` when some read could not be anchored;
    #: the dirty test then falls back to ancestor marking.
    var_reads: Optional[dict[str, frozenset[_Chain]]] = None


def _atomic_variants(chains: set[_Chain]) -> set[_Chain]:
    out = set(chains)
    for chain in chains:
        if not chain or not (chain[-1] == "value" or chain[-1].startswith("@")):
            out.add(chain + ("value",))
    return out


def _level_value_reads(mapping: TgdMapping):
    """``(expr, atomic, member)`` triples for the level's non-generator
    reads; ``member`` is set on a membership condition's collection
    expression (the read is then a per-member containment test)."""
    for condition in mapping.where:
        if isinstance(condition, Membership):
            yield condition.member, False, None
            yield condition.collection, False, condition.member
        elif isinstance(condition, TgdComparison):
            for operand in (condition.left, condition.right):
                if not isinstance(operand, Constant):
                    yield operand, True, None
    if mapping.skolem is not None:
        for attr in mapping.skolem[1].attrs:
            yield attr, True, None
    for assignment in mapping.assignments:
        for expr in _term_exprs(assignment.value):
            yield expr, True, None


def _membership_collection(
    mapping: TgdMapping, gen: SourceGenerator, scoped: set[str]
):
    """The collection expression pinning a document-rooted generator to
    unit scope via a membership condition, or ``None`` (Figure 7's
    ``$p2`` ranges over all projects but ``$p2 in $p`` restricts it to
    the group's members — the surviving bindings are, by identity,
    elements of the collection)."""
    for condition in mapping.where:
        if not isinstance(condition, Membership):
            continue
        member_root = expr_root(condition.member)
        collection_root = expr_root(condition.collection)
        if (
            isinstance(member_root, Var)
            and member_root.name == gen.var
            and isinstance(collection_root, Var)
            and collection_root.name in scoped
        ):
            return condition.collection
    return None


def _anchor_of(expr, anchors: dict) -> Optional[tuple[str, _Chain]]:
    """The anchor of a projection chain rooted at an anchored variable:
    where the expression's nodes live relative to a root generator's
    binding (``None`` when the root is unanchored)."""
    base = expr_root(expr)
    if not isinstance(base, Var):
        return None
    found = anchors.get(base.name)
    if found is None:
        return None
    root_var, rel = found
    return root_var, rel + tuple(expr_labels(expr))


def _analyze(tgd: NestedTgd) -> tuple[Optional[_Shape], str]:
    """Check the tgd against the scoped path's supported shape."""
    if len(tgd.roots) != 1:
        return None, "multiple root mappings"
    root = tgd.roots[0]
    for level in root.walk():
        for gen in level.target_gens:
            if gen.distribute:
                return None, "distribute target generator"
    if not root.source_gens:
        return None, "root mapping has no source generators"
    prefix, suffix = _Engine._split_targets(root.target_gens)
    if not suffix:
        return None, "root mapping builds no target element"
    # The unquantified prefix must be a single wrapper chain anchored at
    # the target root (the CPT "constant tags" of Figure 3), with the
    # per-unit fragment generator hanging off its innermost element.
    chain_var: Optional[str] = None
    for gen in (*prefix, suffix[0]):
        base = gen.expr.base
        if chain_var is None:
            if not isinstance(base, SchemaRoot):
                return None, "root target prefix not anchored at the target root"
        elif not (isinstance(base, Var) and base.name == chain_var):
            return None, "root target prefix is not a single wrapper chain"
        chain_var = gen.var
    # Everything written per unit must stay inside the unit's fragment:
    # target generators and assignment targets may only hang off the
    # quantified fragment element, never the shared prefix or the
    # target root.
    binding_vars = {suffix[0].var}
    for gen in suffix[1:]:
        base = gen.expr.base
        if not (isinstance(base, Var) and base.name in binding_vars):
            return None, "root target generator escapes the unit fragment"
        binding_vars.add(gen.var)

    def check_targets(mapping: TgdMapping, scope: set[str]) -> str:
        for gen in mapping.target_gens:
            base = gen.expr.base
            if not (isinstance(base, Var) and base.name in scope):
                return "nested target generator escapes the unit fragment"
            scope.add(gen.var)
        for assignment in mapping.assignments:
            expr = assignment.target
            while not isinstance(expr, (Var, SchemaRoot)):
                expr = expr.base
            if not (isinstance(expr, Var) and expr.name in scope):
                return "assignment escapes the unit fragment"
        for sub in mapping.submappings:
            found = check_targets(sub, set(scope))
            if found:
                return found
        return ""

    for assignment in root.assignments:
        expr = assignment.target
        while not isinstance(expr, (Var, SchemaRoot)):
            expr = expr.base
        if not (isinstance(expr, Var) and expr.name in binding_vars):
            return None, "assignment escapes the unit fragment"
    for sub in root.submappings:
        reason = check_targets(sub, set(binding_vars))
        if reason:
            return None, reason

    global_reads: set[_Chain] = set()
    global_resolved = True
    #: Relative read chains per root generator variable; each local
    #: variable carries an *anchor* ``(root_var, relative_chain)``
    #: identifying where its bindings live inside the unit's subtrees.
    var_reads: dict[str, set[_Chain]] = {}
    var_resolved = True
    unsupported = ""

    def add_global(chains: Optional[frozenset], atomic: bool) -> None:
        nonlocal global_resolved
        if chains is None:
            global_resolved = False
            return
        global_reads.update(
            _atomic_variants(set(chains)) if atomic else chains
        )

    def classify(
        mapping: TgdMapping,
        scoped: set[str],
        var_chains: dict[str, Optional[frozenset]],
        var_anchors: dict[str, Optional[tuple[str, _Chain]]],
        is_root: bool,
    ) -> None:
        nonlocal unsupported, var_resolved
        if unsupported:
            return
        local = set(scoped)
        chains_scope = dict(var_chains)
        anchors = dict(var_anchors)

        def add_var_read(anchor, labels: tuple, atomic: bool) -> None:
            nonlocal var_resolved
            if anchor is None:
                var_resolved = False
                return
            root_var, rel = anchor
            chains = {rel + labels}
            if atomic:
                chains = _atomic_variants(chains)
            var_reads.setdefault(root_var, set()).update(chains)

        for gen in mapping.source_gens:
            gen_root = expr_root(gen.expr)
            labels = tuple(expr_labels(gen.expr))
            if is_root:
                # Root generators are the unit's own bindings; their
                # enumeration is tracked by structural signatures, not
                # by read chains.
                anchors[gen.var] = (gen.var, ())
            if isinstance(gen_root, SchemaRoot):
                chains_scope[gen.var] = frozenset({labels})
                collection = (
                    None if is_root
                    else _membership_collection(mapping, gen, local)
                )
                if is_root:
                    local.add(gen.var)
                elif collection is not None:
                    local.add(gen.var)
                    anchors[gen.var] = _anchor_of(collection, anchors)
                    if anchors[gen.var] is None:
                        var_resolved = False
                else:
                    add_global(chains_scope[gen.var], False)
            elif isinstance(gen_root, Var):
                bases = chains_scope.get(gen_root.name)
                chains_scope[gen.var] = (
                    frozenset(base + labels for base in bases)
                    if bases is not None
                    else None
                )
                if is_root:
                    local.add(gen.var)
                elif gen_root.name in local:
                    local.add(gen.var)
                    # The generator both *reads* its population chain
                    # (structural edits there change the enumeration)
                    # and anchors its bindings under it.
                    base_anchor = anchors.get(gen_root.name)
                    add_var_read(base_anchor, labels, False)
                    anchors[gen.var] = (
                        None if base_anchor is None
                        else (base_anchor[0], base_anchor[1] + labels)
                    )
                    if anchors[gen.var] is None:
                        var_resolved = False
                else:
                    collection = _membership_collection(mapping, gen, local)
                    if collection is not None:
                        # Ranges over a document-wide chain but a
                        # membership condition pins the surviving
                        # bindings to the unit's own elements (Figure
                        # 7's $p2 in $p).
                        local.add(gen.var)
                        anchors[gen.var] = _anchor_of(collection, anchors)
                        if anchors[gen.var] is None:
                            var_resolved = False
                    else:
                        add_global(chains_scope[gen.var], False)
            else:
                unsupported = f"unsupported generator base {gen.expr!r}"
                return
        for expr, atomic, member in _level_value_reads(mapping):
            expr_base = expr_root(expr)
            if isinstance(expr_base, Var) and expr_base.name in local:
                add_var_read(
                    anchors.get(expr_base.name),
                    tuple(expr_labels(expr)),
                    atomic,
                )
                continue
            if member is not None:
                member_root = expr_root(member)
                if isinstance(member_root, Var) and member_root.name in local:
                    # A containment test of a unit-scoped element: the
                    # outcome depends only on the member's own ancestry,
                    # which any edit would have marked dirty — edits to
                    # *other* collection elements cannot flip it.
                    continue
            labels = tuple(expr_labels(expr))
            if isinstance(expr_base, SchemaRoot):
                add_global(frozenset({labels}), atomic)
            else:
                bases = chains_scope.get(expr_base.name)
                add_global(
                    None
                    if bases is None
                    else frozenset(base + labels for base in bases),
                    atomic,
                )
        for sub in mapping.submappings:
            classify(sub, local, chains_scope, anchors, False)

    classify(root, set(), {}, {}, True)
    if unsupported:
        return None, unsupported
    return (
        _Shape(
            root=root,
            prefix=tuple(prefix),
            suffix=suffix,
            grouped=root.skolem is not None,
            global_reads=frozenset(global_reads),
            global_resolved=global_resolved,
            var_reads=(
                {var: frozenset(chains) for var, chains in var_reads.items()}
                if var_resolved
                else None
            ),
        ),
        "",
    )


# -- dirty-region and unit bookkeeping --------------------------------------


def _dirty_ids(prev_source: XmlElement, delta: Delta) -> set[int]:
    """Identities of previous-source elements a record can affect: the
    addressed element and its ancestors always; its whole subtree for
    structural removals/replacements (descendant bindings vanish)."""
    dirty: set[int] = set()
    for record in delta.records:
        target = resolve_steps(prev_source, record.steps)
        if record.op in ("remove", "replace"):
            for node in target.iter():
                dirty.add(id(node))
        else:
            dirty.add(id(target))
        node = target.parent
        while node is not None:
            dirty.add(id(node))
            node = node.parent
    return dirty


class _DirtyIndex:
    """Decides whether a root environment's unit can observe the delta.

    With resolved ``var_reads`` the test is read-anchored: a binding
    ``B`` of root variable ``v`` is dirty when it lies inside a
    removed/replaced subtree (its environment vanishes or re-binds), or
    when it is the addressed node or an ancestor of it *and* the
    record's chain relative to ``B`` intersects one of ``v``'s read
    chains.  An edit inside a binding that the unit never reads —
    Figure 7's department context when only ``$p.pname`` feeds the
    group — leaves the unit clean, where plain ancestor marking would
    recompute every group touching that department.

    Without resolved reads it degrades to the conservative ancestor
    rule of :func:`_dirty_ids`.
    """

    __slots__ = ("ids", "records", "var_reads")

    def __init__(
        self,
        prev_source: XmlElement,
        delta: Delta,
        var_reads: Optional[dict[str, frozenset[_Chain]]],
    ):
        self.var_reads = var_reads
        if var_reads is None:
            self.ids = _dirty_ids(prev_source, delta)
            self.records: Optional[list] = None
            return
        self.ids = set()
        self.records = []
        for record in delta.records:
            target = resolve_steps(prev_source, record.steps)
            if record.op in ("remove", "replace"):
                for node in target.iter():
                    self.ids.add(id(node))
            chain = _record_chain(record)
            mutate = record.op in ("mutate-attribute", "mutate-text")
            # How many leading chain entries to strip to express the
            # record relative to each ancestor-or-self of the target.
            strip: dict[int, int] = {}
            node: Optional[XmlElement] = target
            depth = len(record.steps)
            while node is not None:
                strip[id(node)] = depth
                node = node.parent
                depth -= 1
            self.records.append((mutate, chain, strip))

    def env_dirty(self, env, gens) -> bool:
        if self.records is None:
            return any(id(env[gen.var]) in self.ids for gen in gens)
        for gen in gens:
            binding = env[gen.var]
            ident = id(binding)
            if ident in self.ids:
                return True
            reads = self.var_reads.get(gen.var)
            if not reads:
                continue
            for mutate, chain, strip in self.records:
                depth = strip.get(ident)
                if depth is None:
                    continue
                rel = chain[depth:]
                if mutate:
                    if rel in reads:
                        return True
                elif any(read[: len(rel)] == rel for read in reads):
                    return True
        return False


class _Signer:
    """Structural addresses — ``((tag, per-tag index), …)`` chains from
    the document root — memoized per element.  Equal addresses in the
    previous and new document identify "the same" element across
    :func:`apply_delta`'s copy."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def signature(self, element: XmlElement) -> tuple:
        found = self._memo.get(id(element))
        if found is not None:
            return found
        parent = element.parent
        if parent is None:
            found = ()
        else:
            occurrence = 0
            for sibling in parent.children:
                if sibling is element:
                    break
                if sibling.tag == element.tag:
                    occurrence += 1
            found = self.signature(parent) + ((element.tag, occurrence),)
        self._memo[id(element)] = found
        return found

    def env_signature(self, gens, env) -> tuple:
        return tuple(self.signature(env[gen.var]) for gen in gens)


def _make_engine(
    tgd_plan: TgdPlan,
    source: XmlElement,
    shared_memo: Optional[PlanMemo],
) -> _Engine:
    """An engine over ``source`` with the plan's strategy (optimized
    when the plan compiled level plans, naive otherwise) — but without
    the plan's cumulative counters, which a partial run would skew.
    ``shared_memo`` carries document-scoped sequences and join tables
    across a session's engines."""
    if tgd_plan.planned is not None:
        return _OptimizedEngine(
            tgd_plan.tgd,
            source,
            tgd_plan.planned,
            ordered=tgd_plan.ordered,
            shared_memo=shared_memo,
        )
    return _Engine(tgd_plan.tgd, source, ordered=tgd_plan.ordered)


def _group_members(gens, members: list[dict]) -> dict:
    """The grouped environment ``_run_grouped`` builds for one key:
    the first member, with each introduced variable rebound to the
    identity-distinct members in document order."""
    group_env = dict(members[0])
    for gen in gens:
        distinct: list[XmlElement] = []
        seen: set[int] = set()
        for member in members:
            binding = member[gen.var]
            if isinstance(binding, XmlElement) and id(binding) not in seen:
                seen.add(id(binding))
                distinct.append(binding)
        group_env[gen.var] = GroupBinding(distinct)
    return group_env


# -- the check cascade -------------------------------------------------------


def _tgd_plan_of(plan) -> Optional[TgdPlan]:
    return plan if isinstance(plan, TgdPlan) else getattr(plan, "tgd_plan", None)


def _cascade(
    report: IncrementalReport,
    delta: Delta,
    tgd_plan: Optional[TgdPlan],
    analyze: Callable[[NestedTgd], tuple[Optional[_Shape], str]],
    prev_target: XmlElement,
) -> bool:
    """Decide how one delta is served, for both entry points.

    Returns ``True`` when the scoped splice should run.  Otherwise
    ``report`` says ``unchanged`` (the previous target stands) or
    ``fallback`` (recompute in full), and why.  The checks run
    cheapest first; the mapping's shape is only asked for
    (``analyze``) once the delta reaches a level's reads.
    """

    def settle(mode: str, reason: str) -> bool:
        report.mode = mode
        report.reason = reason
        return False

    if delta.truncated:
        return settle("fallback", "truncated delta")
    if tgd_plan is None:
        return settle("fallback", "plan has no tgd execution plan")
    if delta.is_empty:
        return settle("unchanged", "empty delta")
    if report.delta_ratio > report.threshold:
        return settle(
            "fallback",
            f"delta ratio {report.delta_ratio:.3f} exceeds "
            f"threshold {report.threshold:.3f}",
        )
    if tgd_plan.planned is not None:
        report.dirty_levels = tuple(
            index
            for index, level in enumerate(tgd_plan.planned.levels)
            if _delta_touches(delta, level.read_paths, level.reads_resolved)
        )
        if not report.dirty_levels:
            return settle("unchanged", "no level read-set intersects the delta")
    shape, reason = analyze(tgd_plan.tgd)
    if shape is None:
        return settle("fallback", f"unsupported mapping shape: {reason}")
    report.grouped = shape.grouped
    if _delta_touches(delta, shape.global_reads, shape.global_resolved):
        return settle(
            "fallback", "delta intersects document-scoped reads of nested levels"
        )
    if prev_target.tag != tgd_plan.tgd.target_root:
        return settle("fallback", "previous target root does not match the plan")
    return True


# -- entry points ------------------------------------------------------------


def transform_delta(
    plan,
    prev_source: XmlElement,
    prev_target: XmlElement,
    delta: Delta,
    *,
    new_source: Optional[XmlElement] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[XmlElement, IncrementalReport]:
    """Re-transform an edited document, reusing the previous target.

    ``plan`` is a :class:`~repro.executor.engine.TgdPlan` or a
    :class:`~repro.runtime.plan.CompiledPlan`; ``delta`` must be
    ``compute_delta(prev_source, new_source)``.  When ``new_source`` is
    omitted and a full run is needed, it is reconstructed with
    :func:`apply_delta`.  The result is byte-identical to
    ``plan.run(new_source)`` in every mode.

    No input is mutated.  The scoped splice runs in a one-shot
    :class:`IncrementalSession` that adopts a copy of ``prev_target``
    and reads ``prev_source`` in place — or edits a copy of it, when
    ``new_source`` is omitted.  The unchanged and fallback outcomes
    copy nothing but the returned target.
    """
    tgd_plan = _tgd_plan_of(plan)
    size = prev_source.size()
    report = IncrementalReport(
        mode="fallback",
        threshold=threshold,
        delta_records=len(delta.records),
        changed_nodes=delta.changed_nodes,
        delta_ratio=delta.ratio(size),
    )
    session: Optional[IncrementalSession] = None

    def analyze(_tgd: NestedTgd) -> tuple[Optional[_Shape], str]:
        # Building the session analyzes the shape: do it once, and only
        # when the cascade gets as far as asking.
        nonlocal session
        session = IncrementalSession(plan, threshold=threshold)
        return session._shape, session._shape_reason

    if _cascade(report, delta, tgd_plan, analyze, prev_target):
        source = prev_source if new_source is not None else prev_source.copy()
        try:
            session._adopt(source, prev_target.copy(), size)
            return session._scoped(delta, report, new_source)
        except ReproError as exc:
            report.reason = f"scoped re-execution unavailable: {exc}"
    if report.mode == "unchanged":
        return prev_target.copy(), report
    if new_source is None:
        new_source = apply_delta(prev_source, delta)
    return plan.run(new_source), report


class IncrementalSession:
    """Stateful delta-scoped execution over a maintained document.

    This is the one scoped-splice implementation.  A session keeps the
    state the splice needs — the previous document, its enumeration and
    the previous target — and carries it across a *chain* of edits,
    the steady state of a mapping service re-transforming a document
    its user keeps editing.  :func:`transform_delta` runs the same
    splice in a one-shot session.  Over a chain, a session saves three
    costs:

    * the source tree is **maintained in place**: each delta is applied
      to the session's own copy (:func:`~repro.xml.diff.apply_delta_in_place`),
      so node identities survive outside the edited subtrees and the
      per-document :class:`~repro.xml.index.DocumentIndex` only drops
      the tables the edit touched (:meth:`~repro.xml.index.DocumentIndex.invalidate`);
    * document-scoped generator sequences and join hash tables live in
      a :class:`~repro.executor.planner.PlanMemo` keyed by the label
      chains they read, invalidated per delta by chain intersection —
      the Figure 7 employee join table survives every edit that does
      not touch ``dept/regEmp``;
    * root environments, their structural signatures and grouping keys
      are carried over as the next call's "old side", and clean target
      fragments are **moved** from the previous target rather than
      deep-copied.

    The returned target is owned by the session: it is recycled as the
    fragment source of the next :meth:`transform` call, so callers must
    serialize (or copy) it before calling :meth:`transform` again.
    Every mode is byte-identical to ``plan.run(new_source)``, and both
    entry points decide between the modes with the same checks.
    """

    def __init__(self, plan, *, threshold: float = DEFAULT_THRESHOLD):
        self.plan = plan
        self.threshold = threshold
        self._tgd_plan = _tgd_plan_of(plan)
        if self._tgd_plan is None:
            self._shape, self._shape_reason = (
                None, "plan has no tgd execution plan",
            )
        else:
            self._shape, self._shape_reason = _analyze(self._tgd_plan.tgd)
        self._memo: Optional[PlanMemo] = (
            PlanMemo()
            if self._tgd_plan is not None and self._tgd_plan.planned is not None
            else None
        )
        self._source: Optional[XmlElement] = None
        self._size = 0
        self._target: Optional[XmlElement] = None
        self._envs: list[dict] = []
        self._sigs: list[tuple] = []
        self._keys: Optional[list[tuple]] = None
        self._applied = False

    def transform(
        self, new_source: XmlElement
    ) -> tuple[XmlElement, IncrementalReport]:
        """The plan's target for ``new_source``, incrementally when the
        delta against the maintained document allows it.

        ``new_source`` is never mutated and never retained; the session
        keeps its own maintained copy."""
        report = IncrementalReport(mode="fallback", threshold=self.threshold)
        if self._tgd_plan is None or self._shape is None:
            # Unsupported shape: a permanent stateless full run.
            report.reason = f"unsupported mapping shape: {self._shape_reason}"
            return self.plan.run(new_source), report
        report.grouped = self._shape.grouped
        if self._source is None or self._target is None:
            return self._full(new_source, report, reason="no previous state")
        delta = compute_delta(self._source, new_source)
        if delta.truncated:
            report.delta_records = len(delta.records)
            report.changed_nodes = delta.changed_nodes
            report.delta_ratio = delta.ratio(self._size)
            return self._full(new_source, report, reason="truncated delta")
        return self.apply(delta)

    def apply(
        self, delta: Delta
    ) -> tuple[XmlElement, IncrementalReport]:
        """The plan's target after applying ``delta`` to the maintained
        document.

        The delta-driven twin of :meth:`transform`, matching the
        stateless :func:`transform_delta` contract where the edit
        script is an input: callers that know their edits (editors,
        changelog consumers) skip the :func:`~repro.xml.diff.compute_delta`
        tree walk entirely, which is the dominant per-call cost once
        the delta itself is small.  Requires an established session
        (a prior :meth:`transform` call) and a non-truncated delta;
        raises :class:`ReproError` otherwise.  Ownership of the
        returned target is the same as for :meth:`transform`.
        """
        if self._tgd_plan is None or self._shape is None:
            raise ReproError(
                f"unsupported mapping shape: {self._shape_reason}"
            )
        if self._source is None or self._target is None:
            raise ReproError(
                "session has no base document; call transform() first"
            )
        if delta.truncated:
            raise ReproError("cannot apply a truncated delta")
        report = IncrementalReport(
            mode="fallback",
            threshold=self.threshold,
            delta_records=len(delta.records),
            changed_nodes=delta.changed_nodes,
            delta_ratio=delta.ratio(self._size),
        )
        self._applied = False
        if _cascade(
            report, delta, self._tgd_plan,
            lambda _tgd: (self._shape, self._shape_reason), self._target,
        ):
            try:
                return self._scoped(delta, report)
            except ReproError as exc:
                report.reason = f"scoped re-execution unavailable: {exc}"
        if not self._applied:
            self._apply(delta)
        if report.mode == "unchanged":
            # No edit lands where a level reads: the target — and the
            # cached enumeration, whose chains are level reads — stay
            # valid; only the maintained tree had to catch up.
            return self._target, report
        # The maintained tree now matches the edited document bytewise;
        # recompute over it so the session's state stays aligned.
        return self._full(self._source, report, reason=report.reason, own=True)

    # -- internals ------------------------------------------------------

    def _full(
        self,
        source: XmlElement,
        report: IncrementalReport,
        *,
        reason: str,
        own: bool = False,
    ) -> tuple[XmlElement, IncrementalReport]:
        report.mode = "fallback"
        report.reason = reason
        base = source if own else source.copy()
        target = self.plan.run(base)
        if self._memo is not None and not own:
            # A new document wholesale: every document-scoped entry is
            # stale.  (``own`` re-runs over the maintained tree, whose
            # entries were already invalidated per delta.)
            self._memo.clear()
        self._adopt(base, target, base.size())
        return target, report

    def _adopt(self, source: XmlElement, target: XmlElement, size: int) -> None:
        """Take ``source`` (of ``size`` elements) and its ``target`` as
        the session's state, and re-derive the cached old side
        (environments, signatures, grouping keys) from it."""
        assert self._shape is not None and self._tgd_plan is not None
        self._source = source
        self._size = size
        self._target = target
        root = self._shape.root
        gens = root.source_gens
        engine = _make_engine(self._tgd_plan, source, self._memo)
        self._envs = engine._enumerate(root, {})
        signer = _Signer()
        self._sigs = [signer.env_signature(gens, env) for env in self._envs]
        if self._shape.grouped:
            _, skolem_app = root.skolem
            self._keys = [
                engine._group_key(root, skolem_app, env) for env in self._envs
            ]
        else:
            self._keys = None

    def _apply(self, delta: Delta) -> None:
        """Apply a delta to the maintained tree, dropping exactly the
        caches it could have invalidated."""
        assert self._source is not None
        touched_nodes = apply_delta_in_place(self._source, delta)
        index = index_for(self._source)
        for node in touched_nodes:
            index.invalidate(node)
        if self._memo is not None:
            self._memo.invalidate(*delta.tag_paths_by_kind())
        if any(
            record.op not in ("mutate-attribute", "mutate-text")
            for record in delta.records
        ):
            self._size = self._source.size()
        self._applied = True

    def _scoped(
        self, delta: Delta, report: IncrementalReport,
        new_source: Optional[XmlElement] = None,
    ) -> tuple[XmlElement, IncrementalReport]:
        """Splice the target for the edited tree: ``new_source`` if
        given, else the maintained tree with ``delta`` applied."""
        assert self._shape is not None and self._tgd_plan is not None
        assert self._source is not None and self._target is not None
        shape = self._shape
        root = shape.root
        suffix = shape.suffix
        fragment_tag = suffix[0].expr.label
        gens = root.source_gens

        try:
            dirty = _DirtyIndex(self._source, delta, shape.var_reads)
        except XmlError as exc:
            raise ReproError(f"delta does not resolve: {exc}") from exc
        old_envs, old_sigs = self._envs, self._sigs
        old_dirty = [dirty.env_dirty(env, gens) for env in old_envs]

        prev_parent = self._target
        for gen in shape.prefix:
            found = prev_parent.find(gen.expr.label)
            if found is None:
                raise ReproError("previous target lacks the root wrapper chain")
            prev_parent = found
        fragments = prev_parent.children

        old_groups: dict[tuple, list[int]] = {}
        old_fragment_of: dict[tuple, XmlElement] = {}
        if shape.grouped:
            assert self._keys is not None
            for index, key in enumerate(self._keys):
                old_groups.setdefault(key, []).append(index)
            if [c.tag for c in fragments] != [fragment_tag] * len(old_groups):
                raise ReproError("previous target does not align with plan output")
            old_fragment_of = {
                key: fragments[position]
                for position, key in enumerate(old_groups)
            }
        elif [c.tag for c in fragments] != [fragment_tag] * len(old_envs):
            raise ReproError("previous target does not align with plan output")

        # Validation done — from here on the maintained tree advances.
        structural = any(
            record.op not in ("mutate-attribute", "mutate-text")
            for record in delta.records
        )
        old_by_ids = {
            tuple(id(env[gen.var]) for gen in gens): index
            for index, env in enumerate(old_envs)
        }
        if new_source is None:
            self._apply(delta)
        else:
            # A different tree (one-shot use, so ``_size`` may go
            # stale): no binding identity carries over, and every memo
            # entry points into the old one.
            self._source = new_source
            if self._memo is not None:
                self._memo.clear()
        new_engine = _make_engine(self._tgd_plan, self._source, self._memo)
        new_envs = new_engine._enumerate(root, {})
        # In-place application preserves binding identities, so per-unit
        # derivations carry over from the previous call: a mutate-only
        # delta moves no node, keeping structural signatures valid; and
        # a clean unit's grouping key reads only chains the delta never
        # touched (``old_dirty`` covers every read of the unit).
        signer = _Signer()
        old_keys = self._keys
        new_sigs: list[tuple] = []
        new_keys: Optional[list[tuple]] = [] if shape.grouped else None
        if shape.grouped:
            _, skolem_app = root.skolem
        for env in new_envs:
            index = old_by_ids.get(tuple(id(env[gen.var]) for gen in gens))
            if index is not None and not structural:
                new_sigs.append(old_sigs[index])
            else:
                new_sigs.append(signer.env_signature(gens, env))
            if new_keys is None:
                continue
            if index is not None and old_keys is not None and not old_dirty[index]:
                new_keys.append(old_keys[index])
            else:
                new_keys.append(new_engine._group_key(root, skolem_app, env))

        # The engine materializes unquantified wrappers lazily, per
        # binding: with no bindings a full run leaves the target root
        # empty, so only materialize the chain when a unit is emitted.
        if shape.prefix and new_envs:
            (base_env,) = new_engine._materialize_targets(shape.prefix, {})
            out_parent = base_env[shape.prefix[-1].var]
        else:
            base_env = {}
            out_parent = new_engine.target_root
        out = new_engine.target_root

        def take(fragment: XmlElement) -> None:
            # Move, not copy: the previous target belongs to the session
            # and is dismantled by this call (see the class docstring).
            parent = fragment.parent
            if parent is not None:
                parent.remove(fragment)
            out_parent.append(fragment)

        if not shape.grouped:
            # Signature matching is sound because compute_delta's insert
            # records always land at per-tag occurrences beyond the
            # paired ones: an inserted element's address can never
            # collide with a surviving old element's, and mid-sequence
            # shifts surface as mutations that mark the shifted
            # elements dirty.
            clean: dict[tuple, int] = {
                sig: index
                for index, sig in enumerate(old_sigs)
                if not old_dirty[index]
            }
            report.total_units = len(new_envs)
            for env, sig in zip(new_envs, new_sigs):
                match = clean.get(sig)
                if match is not None:
                    take(fragments[match])
                    report.reused_units += 1
                    continue
                report.recomputed_units += 1
                (iter_env,) = new_engine._materialize_targets(suffix, base_env)
                for assignment in root.assignments:
                    new_engine._apply_assignment(assignment, env, iter_env)
                for sub in root.submappings:
                    new_engine._run_mapping(sub, env, iter_env)
        else:
            assert new_keys is not None
            new_groups: dict[tuple, list[dict]] = {}
            new_group_sigs: dict[tuple, list[tuple]] = {}
            for env, sig, key in zip(new_envs, new_sigs, new_keys):
                new_groups.setdefault(key, []).append(env)
                new_group_sigs.setdefault(key, []).append(sig)
            # A group is reusable when its member set is structurally
            # identical (same signatures, in order) and no old member's
            # unit observes the delta: every difference between the
            # documents is a delta record, so equal-signature clean
            # members are bytewise-equivalent inputs.
            report.total_units = len(new_groups)
            for key, members in new_groups.items():
                old_members = old_groups.get(key)
                untouched = (
                    old_members is not None
                    and not any(old_dirty[i] for i in old_members)
                    and [old_sigs[i] for i in old_members] == new_group_sigs[key]
                )
                if untouched:
                    take(old_fragment_of[key])
                    report.reused_units += 1
                    continue
                report.recomputed_units += 1
                group_env = _group_members(gens, members)
                (iter_env,) = new_engine._materialize_targets(
                    suffix, base_env, group_key=key
                )
                for assignment in root.assignments:
                    new_engine._apply_assignment(assignment, group_env, iter_env)
                for sub in root.submappings:
                    new_engine._run_mapping(sub, group_env, iter_env)

        self._target = out
        self._envs = new_envs
        self._sigs = new_sigs
        self._keys = new_keys
        report.mode = "scoped"
        report.reason = (
            "per-group fragments spliced"
            if shape.grouped
            else "per-binding fragments spliced"
        )
        return out, report
