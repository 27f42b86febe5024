"""Incremental recomputation (:mod:`repro.runtime.incremental`).

The single load-bearing contract, asserted everywhere below: whatever
path the incremental layer takes — unchanged, scoped, fallback;
stateless or session; delta recomputed or supplied — the serialized
target is byte-identical to ``plan.run(new_source)``.  Everything else
(reuse counters, cache survival, mode selection) is about doing less
work, never different work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compile import compile_clip
from repro.errors import ReproError
from repro.executor.engine import prepare
from repro.executor.planner import PlanMemo
from repro.runtime.incremental import (
    DEFAULT_THRESHOLD,
    IncrementalSession,
    transform_delta,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.diff import Delta, compute_delta
from repro.xml.serialize import to_xml

FIGURES = {
    "fig3": deptstore.mapping_fig3,
    "fig5": deptstore.mapping_fig5,
    "fig7": deptstore.mapping_fig7,
    "fig9": deptstore.mapping_fig9,
}

_SPEC = DeptstoreSpec(departments=4, projects_per_dept=3,
                      employees_per_dept=5)


def _plan(figure: str, *, optimize: bool = True):
    return prepare(compile_clip(FIGURES[figure]()), optimize=optimize)


def _instance():
    return make_deptstore_instance(_SPEC)


def _edit_pname(doc, value: str, index: int = 0):
    projects = [p for d in doc.findall("dept") for p in d.findall("Proj")]
    field = projects[index % len(projects)].find("pname")
    field.clear_text()
    field.set_text(value)


def _edit_ename(doc, value: str, index: int = 0):
    employees = [e for d in doc.findall("dept") for e in d.findall("regEmp")]
    field = employees[index % len(employees)].find("ename")
    field.clear_text()
    field.set_text(value)


def _drop_project(doc, index: int = 0):
    projects = [p for d in doc.findall("dept") for p in d.findall("Proj")]
    target = projects[index % len(projects)]
    target.parent.remove(target)


_EDITS = {
    "pname": _edit_pname,
    "ename": _edit_ename,
}


class TestStatelessTransformDelta:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("optimize", [True, False])
    def test_single_edit_is_byte_identical(self, figure, optimize):
        plan = _plan(figure, optimize=optimize)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_pname(new, "renamed project")
        delta = compute_delta(old, new)
        got, report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))
        assert report.mode in ("unchanged", "scoped", "fallback")

    def test_empty_delta_returns_previous_target_unchanged(self):
        plan = _plan("fig3")
        old = _instance()
        old_target = plan.run(old)
        delta = compute_delta(old, old.copy())
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == "unchanged"
        assert to_xml(got) == to_xml(old_target)

    def test_scoped_mode_reuses_most_units_for_one_field_edit(self):
        """Read-anchored dirtiness: one pname edit on the grouping
        mapping dirties the affected group(s), not the document."""
        plan = _plan("fig7")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_pname(new, "a genuinely new name")
        delta = compute_delta(old, new)
        got, report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))
        assert report.mode == "scoped"
        assert report.total_units > 2
        assert report.reused_units >= report.total_units - 2
        assert report.reused_units + report.recomputed_units == report.total_units

    def test_large_delta_falls_back_by_threshold(self):
        plan = _plan("fig3")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        for index in range(60):
            _edit_ename(new, f"renamed {index}", index)
            _edit_pname(new, f"renamed {index}", index)
        delta = compute_delta(old, new)
        assert delta.ratio(old.size()) > DEFAULT_THRESHOLD
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == "fallback"
        assert "threshold" in report.reason
        assert to_xml(got) == to_xml(plan.run(new))

    def test_structural_edit_is_byte_identical(self):
        plan = _plan("fig7")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _drop_project(new, 2)
        delta = compute_delta(old, new)
        got, _report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))

    def test_report_counters_are_consistent(self):
        plan = _plan("fig5")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _edit_ename(new, "somebody else")
        delta = compute_delta(old, new)
        _got, report = transform_delta(plan, old, old_target, delta)
        assert report.delta_records == len(delta.records)
        assert report.changed_nodes == delta.changed_nodes
        assert report.threshold == DEFAULT_THRESHOLD
        assert 0.0 < report.delta_ratio <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        figure=st.sampled_from(sorted(FIGURES)),
        edits=st.lists(
            st.tuples(
                st.sampled_from(sorted(_EDITS)),
                st.integers(min_value=0, max_value=40),
                st.text(
                    alphabet="abcdefgh ", min_size=1, max_size=12
                ),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_hypothesis_edit_scripts_stay_byte_identical(self, figure, edits):
        plan = _plan(figure)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        for kind, index, value in edits:
            _EDITS[kind](new, value, index)
        delta = compute_delta(old, new)
        got, _report = transform_delta(plan, old, old_target, delta)
        assert to_xml(got) == to_xml(plan.run(new))


class TestIncrementalSession:
    def test_first_call_is_a_full_run(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        got, report = session.transform(doc)
        assert report.mode == "fallback"
        assert report.reason == "no previous state"
        assert to_xml(got) == to_xml(plan.run(doc))

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("optimize", [True, False])
    def test_chained_transforms_stay_byte_identical(self, figure, optimize):
        plan = _plan(figure, optimize=optimize)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        for step in range(6):
            doc = doc.copy()
            if step % 3 == 0:
                _edit_pname(doc, f"step {step}", step)
            elif step % 3 == 1:
                _edit_ename(doc, f"step {step}", step)
            else:
                _drop_project(doc, step)
            got, _report = session.transform(doc)
            assert to_xml(got) == to_xml(plan.run(doc))

    def test_input_documents_are_never_mutated_or_retained(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        before = to_xml(doc)
        session.transform(doc)
        edited = doc.copy()
        _edit_pname(edited, "changed")
        session.transform(edited)
        # Mutating the caller's documents after the fact must not
        # disturb the session's maintained state.
        _edit_ename(doc, "scribbled over")
        _edit_ename(edited, "scribbled over")
        third = doc.copy()
        got, _report = session.transform(third)
        assert to_xml(got) == to_xml(plan.run(third))
        assert to_xml(doc) != before  # we really did scribble

    def test_unchanged_document_short_circuits(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        _got, report = session.transform(doc.copy())
        assert report.mode == "unchanged"
        assert report.reason == "empty delta"

    def test_apply_requires_an_established_session(self):
        session = IncrementalSession(_plan("fig7"))
        with pytest.raises(ReproError, match="no base document"):
            session.apply(Delta(records=()))

    def test_apply_rejects_truncated_deltas(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        session.transform(_instance())
        with pytest.raises(ReproError, match="truncated"):
            session.apply(Delta(records=(), truncated=True))

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_chained_applies_match_full_runs(self, figure):
        plan = _plan(figure)
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        for step in range(6):
            new = doc.copy()
            if step % 3 == 2:
                _drop_project(new, step)
            else:
                _edit_pname(new, f"delta step {step}", step)
            delta = compute_delta(doc, new)
            got, _report = session.apply(delta)
            assert to_xml(got) == to_xml(plan.run(new))
            doc = new

    def test_apply_mode_mix_for_small_edits_is_incremental(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        modes = []
        for step in range(5):
            new = doc.copy()
            _edit_pname(new, f"only edit {step}", step)
            delta = compute_delta(doc, new)
            _got, report = session.apply(delta)
            modes.append(report.mode)
            doc = new
        assert set(modes) == {"scoped"}

    def test_session_survives_a_threshold_fallback(self):
        plan = _plan("fig7")
        session = IncrementalSession(plan)
        doc = _instance()
        session.transform(doc)
        big = doc.copy()
        for index in range(60):
            _edit_ename(big, f"bulk {index}", index)
            _edit_pname(big, f"bulk {index}", index)
        got, report = session.transform(big)
        assert report.mode == "fallback"
        assert to_xml(got) == to_xml(plan.run(big))
        after = big.copy()
        _edit_pname(after, "back to small edits")
        got, report = session.transform(after)
        assert to_xml(got) == to_xml(plan.run(after))

    def test_unsupported_shapes_degrade_to_stateless_full_runs(self):
        plan = _plan("fig9")  # aggregate mapping: no scoped support
        session = IncrementalSession(plan)
        doc = _instance()
        for _ in range(2):
            got, report = session.transform(doc)
            assert to_xml(got) == to_xml(plan.run(doc))
            if report.reason.startswith("unsupported mapping shape"):
                assert report.mode == "fallback"


def _bulk_edit(doc):
    for index in range(60):
        _edit_ename(doc, f"bulk {index}", index)
        _edit_pname(doc, f"bulk {index}", index)


#: One edit of each kind the merged path must agree on, from a scoped
#: field edit to a threshold fallback and no edit at all.
_MERGED_EDITS = {
    "pname": lambda doc: _edit_pname(doc, "merged path"),
    "ename": lambda doc: _edit_ename(doc, "merged path"),
    "drop-project": lambda doc: _drop_project(doc, 2),
    "bulk": _bulk_edit,
    "empty": lambda doc: None,
}


class TestOneSplice:
    """:func:`transform_delta` and :meth:`IncrementalSession.apply` run
    one check cascade and one scoped splice."""

    @pytest.mark.parametrize(
        "figure, edit, mode",
        [
            ("fig7", "empty", "unchanged"),
            ("fig7", "pname", "scoped"),
            ("fig3", "bulk", "fallback"),
        ],
    )
    def test_transform_delta_leaves_its_inputs_unchanged(
        self, figure, edit, mode
    ):
        plan = _plan(figure)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _MERGED_EDITS[edit](new)
        delta = compute_delta(old, new)
        source_before, target_before = to_xml(old), to_xml(old_target)
        got, report = transform_delta(plan, old, old_target, delta)
        assert report.mode == mode
        assert to_xml(got) == to_xml(plan.run(new))
        assert to_xml(old) == source_before
        assert to_xml(old_target) == target_before
        assert got is not old_target

    @pytest.mark.parametrize("figure", ["fig3", "fig5", "fig7"])
    @pytest.mark.parametrize("edit", sorted(_MERGED_EDITS))
    def test_stateless_and_session_reports_agree(self, figure, edit):
        plan = _plan(figure)
        old = _instance()
        new = old.copy()
        _MERGED_EDITS[edit](new)
        delta = compute_delta(old, new)
        stateless, stateless_report = transform_delta(
            plan, old, plan.run(old), delta
        )
        session = IncrementalSession(plan)
        session.transform(old)
        stateful, session_report = session.apply(delta)
        assert stateless_report.to_dict() == session_report.to_dict()
        assert to_xml(stateless) == to_xml(stateful) == to_xml(plan.run(new))


class TestScopedDeltaCost:
    """A scoped :func:`transform_delta` given the edited tree reads the
    previous source in place: it copies only the previous target (whose
    fragments move into the result) and analyzes the mapping once."""

    @staticmethod
    def _count(monkeypatch):
        from repro.runtime import incremental
        from repro.xml.model import XmlElement

        copies, analyses = [], []
        copy, analyze = XmlElement.copy, incremental._analyze

        def counting_copy(node):
            if node.parent is None:
                copies.append(node)
            return copy(node)

        def counting_analyze(tgd):
            analyses.append(tgd)
            return analyze(tgd)

        monkeypatch.setattr(XmlElement, "copy", counting_copy)
        monkeypatch.setattr(incremental, "_analyze", counting_analyze)
        return copies, analyses

    @pytest.mark.parametrize(
        "figure, edit",
        [("fig3", "ename"), ("fig5", "drop-project"), ("fig7", "pname"),
         ("fig7", "drop-project")],
    )
    def test_scoped_call_with_new_source(self, figure, edit, monkeypatch):
        plan = _plan(figure)
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _MERGED_EDITS[edit](new)
        delta = compute_delta(old, new)
        before = to_xml(old), to_xml(new), to_xml(old_target)
        copies, analyses = self._count(monkeypatch)
        got, report = transform_delta(
            plan, old, old_target, delta, new_source=new
        )
        monkeypatch.undo()
        assert report.mode == "scoped"
        assert len(copies) == 1 and copies[0] is old_target
        assert len(analyses) == 1
        assert to_xml(got) == to_xml(plan.run(new))
        assert (to_xml(old), to_xml(new), to_xml(old_target)) == before

    def test_scoped_call_without_new_source_edits_a_copy(self, monkeypatch):
        plan = _plan("fig7")
        old = _instance()
        old_target = plan.run(old)
        new = old.copy()
        _MERGED_EDITS["pname"](new)
        delta = compute_delta(old, new)
        source_before = to_xml(old)
        copies, analyses = self._count(monkeypatch)
        got, report = transform_delta(plan, old, old_target, delta)
        monkeypatch.undo()
        assert report.mode == "scoped"
        assert {id(node) for node in copies} == {id(old), id(old_target)}
        assert len(analyses) == 1
        assert to_xml(got) == to_xml(plan.run(new))
        assert to_xml(old) == source_before


class TestPlanMemo:
    CHAINS = {
        "seq": ("Depts", "Dept", "Proj"),
        "key": ("Depts", "Dept", "Proj", "pname", "value"),
        "other": ("Depts", "Dept", "regEmp", "ename", "value"),
    }

    def _memo(self) -> PlanMemo:
        memo = PlanMemo()
        memo.put("seq", [1, 2, 3], {self.CHAINS["seq"]})
        memo.put("table", {"k": 1}, {self.CHAINS["seq"], self.CHAINS["key"]})
        memo.put("atom", ["x"], {self.CHAINS["other"]})
        return memo

    def test_value_chains_invalidate_exactly(self):
        """A text mutation names a leaf: the node-set cache above it
        survives, the value caches reading that leaf die."""
        memo = self._memo()
        dropped = memo.invalidate({self.CHAINS["key"]}, set())
        assert dropped == 1
        assert memo.get("seq") is not None
        assert memo.get("table") is None
        assert memo.get("atom") is not None

    def test_structural_chains_invalidate_by_prefix(self):
        memo = self._memo()
        dropped = memo.invalidate(set(), {("Depts", "Dept", "Proj")})
        assert dropped == 2
        assert memo.get("seq") is None
        assert memo.get("table") is None
        assert memo.get("atom") is not None

    def test_structural_ancestor_kills_everything_below(self):
        memo = self._memo()
        assert memo.invalidate(set(), {("Depts",)}) == 3
        assert len(memo) == 0

    def test_unrelated_chains_touch_nothing(self):
        memo = self._memo()
        assert memo.invalidate(
            {("Depts", "Dept", "dname", "value")},
            {("Elsewhere", "entirely")},
        ) == 0
        assert len(memo) == 3

    def test_clear_empties_entries_and_pins(self):
        memo = self._memo()
        memo.pin(object())
        memo.clear()
        assert len(memo) == 0
