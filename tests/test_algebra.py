"""The mapping algebra as a test oracle: compose, contain, invert.

Three suites over :mod:`repro.algebra`:

* **Composition** — ``compose(m_ab, m_bc)`` must be *byte-identical*
  to sequential two-stage execution, across every engine, both
  optimizer modes and both exec modes, over the seeded corpus's
  ``composition`` axis as well as hand-built mappings.  Outside the
  symbolic fragment ``compose`` must fail loudly with a stable
  ``reason`` tag, never produce a semantically wrong tgd.

* **Containment** — the Calì–Torlone decision procedure must satisfy
  the laws that make it usable as an oracle: reflexivity, transitivity
  along where-conjunct chains, and antisymmetry up to equivalence
  (mutual containment of alpha-renamed mappings proves ``equivalent``).
  The canonical normal form backing it is pinned byte-for-byte as a
  regression anchor for canonicalized plan-cache keys.

* **Inversion** — for the copy-like fragment,
  ``quasi_inverse(m)(m(source))`` must match the independently derived
  containment-predicted core ``predicted_core(m, source)`` byte for
  byte; outside the fragment ``quasi_inverse`` raises
  :class:`~repro.errors.InverseError` with the offending construct.
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    canonical_render,
    compose,
    compose_fingerprint,
    compose_tgds,
    contains,
    core_tgd,
    equivalent,
    in_decidable_fragment,
    predicted_core,
    quasi_inverse,
)
from repro.core.compile import compile_clip
from repro.core.mapping import ClipMapping
from repro.errors import ComposeError, InverseError
from repro.executor.engine import execute
from repro.generation.corpus import generate_corpus
from repro.io import loads
from repro.runtime import PlanCache, eligible_engines, plan_from_tgd
from repro.xml.model import element
from repro.xml.serialize import to_xml
from repro.xsd.dsl import attr, elem, schema
from repro.xsd.types import INT, STRING

_CACHE = PlanCache()


# -- hand-built three-schema chain ------------------------------------------

_SRC_A = schema(
    elem(
        "S",
        elem(
            "dept", "[0..*]", attr("dname", STRING), attr("size", INT),
            elem(
                "emp", "[0..*]", attr("name", STRING),
                elem("sal", text=INT),
            ),
        ),
    )
)
_SRC_B = schema(
    elem(
        "B",
        elem(
            "department", "[0..*]", attr("dn", STRING),
            elem(
                "employee", "[0..*]", attr("ename", STRING),
                elem("pay", text=INT),
            ),
        ),
    )
)
_SRC_C = schema(
    elem(
        "C",
        elem("rich", "[0..*]", attr("who", STRING), attr("unit", STRING)),
    )
)


def _m_ab(*, dept_cond=None, emp_cond=None, dv="d", ev="e") -> ClipMapping:
    m = ClipMapping(_SRC_A, _SRC_B)
    d = m.build("dept", "department", var=dv, condition=dept_cond)
    m.build(
        "dept/emp", "department/employee", var=ev, parent=d,
        condition=emp_cond,
    )
    m.value("dept/@dname", "department/@dn")
    m.value("dept/emp/@name", "department/employee/@ename")
    m.value("dept/emp/sal/value", "department/employee/pay/value")
    return m


def _m_bc(*, cv="x", bv="y", threshold=1000) -> ClipMapping:
    m = ClipMapping(_SRC_B, _SRC_C)
    ctx = m.context("department", var=cv)
    m.build(
        "department/employee", "rich", var=bv, parent=ctx,
        condition=f"${bv}.pay.value > {threshold}",
    )
    m.value("department/employee/@ename", "rich/@who")
    m.value("department/@dn", "rich/@unit")
    return m


def _instance():
    return element(
        "S",
        element(
            "dept",
            element("emp", element("sal", text=1500), name="Ann"),
            element("emp", element("sal", text=900), name="Bob"),
            dname="ICT", size=20,
        ),
        element(
            "dept",
            element("emp", element("sal", text=2000), name="Cid"),
            dname="Sales", size=5,
        ),
    )


# -- composition -------------------------------------------------------------


def test_compose_matches_sequential_on_hand_built_chain():
    m_ab, m_bc = _m_ab(), _m_bc()
    instance = _instance()
    fused = compose(m_ab, m_bc)
    sequential = execute(
        compile_clip(m_bc), execute(compile_clip(m_ab), instance)
    )
    assert to_xml(execute(fused, instance)) == to_xml(sequential)
    assert fused.source_root == "S" and fused.target_root == "C"


def test_compose_root_mismatch_fails_loudly():
    with pytest.raises(ComposeError) as excinfo:
        compose(_m_bc(), _m_ab())
    assert excinfo.value.reason == "root-mismatch"


def test_compose_fingerprint_is_deterministic_and_ordered():
    fp1 = compose_fingerprint("aaa", "bbb")
    assert fp1 == compose_fingerprint("aaa", "bbb")
    assert fp1 != compose_fingerprint("bbb", "aaa")
    assert len(fp1) == 64


#: The corpus's ``composition`` axis carries the second stage in
#: ``params["compose_with"]`` and predicts inlinability per shape.
_COMPOSE_CASES = [
    case
    for case in generate_corpus(23, 27, axes=("composition",))
]


def _sequential(case, second):
    first_plan = _CACHE.get_or_compile(case.mapping, "tgd", optimize=True)
    second_plan = _CACHE.get_or_compile(second, "tgd", optimize=True)
    return second_plan(first_plan(case.instance))


def test_corpus_compose_predictions_hold():
    inlined = fallbacks = 0
    for case in _COMPOSE_CASES:
        second = loads(case.params["compose_with"])
        try:
            compose(case.mapping, second)
        except ComposeError as exc:
            assert not case.params["expect_inlined"], (
                f"{case.case_id}: compose declined ({exc.reason}) where "
                "the corpus predicted inlining"
            )
            fallbacks += 1
        else:
            assert case.params["expect_inlined"], (
                f"{case.case_id}: compose inlined where the corpus "
                "predicted a fallback"
            )
            inlined += 1
    assert inlined and fallbacks, "corpus must exercise both outcomes"


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("exec_mode", ["interp", "codegen"])
def test_corpus_compose_byte_identity_tgd_modes(optimize, exec_mode):
    """The fused one-pass plan serializes byte-identically to the
    sequential two-stage pipeline under every tgd evaluation strategy."""
    checked = 0
    for case in _COMPOSE_CASES:
        if not case.params["expect_inlined"]:
            continue
        second = loads(case.params["compose_with"])
        fused = compose(case.mapping, second)
        plan = plan_from_tgd(
            fused, "tgd", optimize=optimize, exec_mode=exec_mode,
        )
        assert to_xml(plan.run(case.instance)) == to_xml(
            _sequential(case, second)
        ), f"{case.case_id}: fused {exec_mode}/opt={optimize} diverges"
        checked += 1
    assert checked


def test_corpus_compose_byte_identity_across_engines():
    """The fused tgd is an ordinary tgd: the XQuery interpreter must
    reproduce it byte-for-byte, and XSLT canonically where eligible."""
    xquery_checked = xslt_checked = 0
    for case in _COMPOSE_CASES:
        if not case.params["expect_inlined"]:
            continue
        second = loads(case.params["compose_with"])
        fused = compose(case.mapping, second)
        sequential = _sequential(case, second)
        via_xquery = plan_from_tgd(fused, "xquery").run(case.instance)
        assert to_xml(via_xquery) == to_xml(sequential), (
            f"{case.case_id}: fused plan diverges under XQuery"
        )
        xquery_checked += 1
        if "xslt" in eligible_engines(fused):
            via_xslt = plan_from_tgd(fused, "xslt").run(case.instance)
            assert sequential.equals_canonically(via_xslt), (
                f"{case.case_id}: fused plan diverges under XSLT"
            )
            xslt_checked += 1
    assert xquery_checked and xslt_checked


def test_compose_grouping_second_stage_declines_with_reason():
    m_bc = ClipMapping(_SRC_B, _SRC_C)
    m_bc.group(
        "department/employee", "rich", var="w", by=["$w.@ename"],
    )
    m_bc.value("department/employee/@ename", "rich/@who")
    with pytest.raises(ComposeError) as excinfo:
        compose(_m_ab(), m_bc)
    assert excinfo.value.reason
    assert isinstance(excinfo.value.reason, str)


# -- containment -------------------------------------------------------------


def test_containment_reflexivity_over_corpus():
    for case in generate_corpus(5, 18, axes=("deep-cpt", "inversion", "fanout-join")):
        if in_decidable_fragment(case.mapping):
            assert contains(case.mapping, case.mapping) is True, case.case_id
            assert equivalent(case.mapping, case.mapping) is True, case.case_id


def test_containment_transitivity_along_where_chains():
    loose = _m_ab()
    mid = _m_ab(emp_cond="$e.sal.value > 1000")
    tight = _m_ab(
        dept_cond="$d.@size > 10", emp_cond="$e.sal.value > 1000"
    )
    assert contains(loose, mid) is True
    assert contains(mid, tight) is True
    # Transitivity: the chain's endpoints compare directly.
    assert contains(loose, tight) is True
    # And properly: the reverse directions are not proven.
    assert contains(tight, mid) is not True
    assert contains(mid, loose) is not True


def test_containment_antisymmetry_up_to_equivalence():
    m1 = _m_ab(emp_cond="$e.sal.value > 1000")
    m2 = _m_ab(emp_cond="$q.sal.value > 1000", dv="p", ev="q")
    assert contains(m1, m2) is True
    assert contains(m2, m1) is True
    assert equivalent(m1, m2) is True
    # Alpha-renaming is invisible to the canonical normal form.
    assert canonical_render(compile_clip(m1)) == canonical_render(
        compile_clip(m2)
    )


def test_containment_answers_unknown_outside_fragment():
    grouped = ClipMapping(_SRC_B, _SRC_C)
    grouped.group("department/employee", "rich", var="w", by=["$w.@ename"])
    grouped.value("department/employee/@ename", "rich/@who")
    assert not in_decidable_fragment(grouped)
    other = _m_bc()
    assert contains(grouped, other) is None
    assert contains(other, grouped) is None
    # ...but alpha-equivalence is still recognized canonically.
    renamed = ClipMapping(_SRC_B, _SRC_C)
    renamed.group("department/employee", "rich", var="v", by=["$v.@ename"])
    renamed.value("department/employee/@ename", "rich/@who")
    assert equivalent(grouped, renamed) is True


def test_canonical_render_pinned():
    """The canonical normal form: variables alpha-renamed to ``c0, c1,
    …`` in traversal order, where-conjuncts sorted, everything else in
    document order.  Pinned byte-for-byte — ``contains`` (and so
    ``equivalent``) takes equal renders as alpha-equivalence, even
    outside the decidable fragment, so changing this form changes what
    they decide."""
    rendered = canonical_render(
        compile_clip(_m_ab(emp_cond="$e.sal.value > 1000"))
    )
    assert rendered == (
        "source=S\n"
        "target=B\n"
        "∀ c0 ∈ S.dept →\n"
        "  ∃ c1 ∈ B.department |\n"
        "    c1.@dn = c0.@dname,\n"
        "    [∀ c2 ∈ c0.emp | c2.sal.value > 1000 →\n"
        "      ∃ c3 ∈ c1.employee |\n"
        "        c3.@ename = c2.@name,\n"
        "        c3.pay.value = c2.sal.value]"
    )


# -- inversion ---------------------------------------------------------------


def test_quasi_inverse_round_trip_matches_predicted_core():
    m = _m_ab(emp_cond="$e.sal.value > 1000")
    instance = _instance()
    target = execute(compile_clip(m), instance)
    recovered = execute(compile_clip(quasi_inverse(m)), target)
    assert to_xml(recovered) == to_xml(predicted_core(m, instance))


def test_quasi_inverse_round_trip_over_corpus():
    for case in generate_corpus(31, 18, axes=("round-trip",)):
        target = execute(compile_clip(case.mapping), case.instance)
        inverse = quasi_inverse(case.mapping)
        recovered = execute(compile_clip(inverse), target)
        assert to_xml(recovered) == to_xml(
            predicted_core(case.mapping, case.instance)
        ), case.case_id


def test_quasi_inverse_rejects_grouping():
    grouped = ClipMapping(_SRC_B, _SRC_C)
    grouped.group("department/employee", "rich", var="w", by=["$w.@ename"])
    grouped.value("department/employee/@ename", "rich/@who")
    with pytest.raises(InverseError) as excinfo:
        quasi_inverse(grouped)
    assert excinfo.value.reason == "grouping"
    with pytest.raises(InverseError):
        core_tgd(grouped)


def test_core_tgd_is_source_to_source():
    m = _m_ab()
    core = core_tgd(m)
    assert core.source_root == core.target_root == "S"
    # An unfiltered copy-like mapping transports the mapped attributes
    # of every row: the core keeps both employees of both departments.
    core_doc = execute(core, _instance())
    assert len(core_doc.children) == 2
    assert sum(len(d.children) for d in core_doc.children) == 3


# -- the fluent surface ------------------------------------------------------


def test_transformer_compose_inlined_byte_identity():
    from repro import ComposedTransformer, Transformer

    first = Transformer(_m_ab())
    second = Transformer(_m_bc())
    composed = first.compose(second)
    assert isinstance(composed, ComposedTransformer)
    assert composed.mode == "inlined"
    instance = _instance()
    assert to_xml(composed(instance)) == to_xml(second(first(instance)))
    from repro.runtime.plan import fingerprint as structural_fingerprint

    assert composed.fingerprint == compose_fingerprint(
        structural_fingerprint(
            composed.first.mapping, composed.engine,
            optimize=composed.first.optimize,
            exec_mode=composed.first.exec_mode,
        ),
        structural_fingerprint(
            composed.second.mapping, composed.engine,
            optimize=composed.second.optimize,
            exec_mode=composed.second.exec_mode,
        ),
    )


def test_transformer_compose_sequential_fallback():
    from repro import Transformer

    grouped = ClipMapping(_SRC_B, _SRC_C)
    grouped.group("department/employee", "rich", var="w", by=["$w.@ename"])
    grouped.value("department/employee/@ename", "rich/@who")
    composed = Transformer(_m_ab()).compose(grouped)
    assert composed.mode == "sequential"
    assert composed.fallback_reason
    instance = _instance()
    expected = Transformer(grouped)(Transformer(_m_ab())(instance))
    assert to_xml(composed(instance)) == to_xml(expected)
    with pytest.raises(ComposeError):
        composed.plan


def test_pipeline_fusion_byte_identity():
    from repro.pipeline import Pipeline

    stages = [_m_ab(), _m_bc()]
    fused = Pipeline(stages, fuse=True)
    plain = Pipeline(stages)
    assert fused.fused_groups == [[0, 1]]
    instance = _instance()
    assert to_xml(fused.run(instance)) == to_xml(plain.run(instance))
