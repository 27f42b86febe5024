"""The codegen execution backend: byte-identity, determinism, rebuild.

The contracts of :mod:`repro.executor.codegen`, as tests:

* **byte-identity** — the specialized generated-Python program
  serializes byte-identically to the interpreted optimized engine (and
  hence, transitively, to the naive reference path) over the seeded
  corpus, all six axes included;
* **counter parity** — the generated code's flushed counters equal the
  interpreter's, so explain reports and trace plan subtrees agree;
* **deterministic emission** — identical plans emit byte-identical
  source, which is what lets pool workers rebuild closures from a
  cached source string and lets the plan fingerprint stay structural;
* **wiring** — exec mode resolution (flag > env > default), fingerprint
  separation, worker-pool rebuild-from-source, and the explain
  ``codegen`` section.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Transformer
from repro.core.compile import compile_clip
from repro.errors import ExecutionError
from repro.executor import explain_plan, prepare
from repro.executor.codegen import (
    EXEC_MODE_ENV,
    EXEC_MODES,
    build_program,
    generate_source,
    resolve_exec_mode,
)
from repro.executor.planner import plan_tgd
from repro.generation import AXES
from repro.generation.corpus import generate_corpus
from repro.runtime import BatchRunner, PlanCache
from repro.runtime.plan import ExecSpec, fingerprint, trace_seed
from repro.scenarios import deptstore
from repro.xml.serialize import to_xml

#: A fixed corpus slice shared by the module: six axes, many shapes.
_CASES = list(generate_corpus(seed=20260808, count=36))


def test_corpus_slice_covers_every_axis():
    assert {case.axis for case in _CASES} == set(AXES)


# -- byte-identity -----------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(index=st.integers(min_value=0, max_value=len(_CASES) - 1))
def test_codegen_matches_interp_byte_for_byte(index):
    """Over corpus cases from every axis, the generated program and the
    interpreted optimized engine serialize identical target bytes."""
    case = _CASES[index]
    tgd = compile_clip(case.mapping)
    interp = prepare(tgd, optimize=True, exec_mode="interp")
    codegen = prepare(tgd, optimize=True, exec_mode="codegen")
    assert codegen.program is not None
    assert to_xml(codegen.run(case.instance)) == to_xml(interp.run(case.instance))


@pytest.mark.parametrize(
    "figure",
    ["fig3", "fig4", "fig6", "fig7"],
)
def test_codegen_counter_parity_on_figures(figure):
    """The generated code flushes exactly the interpreter's counters —
    the invariant that keeps explain output and trace plan subtrees
    mode-independent."""
    factory = {
        "fig3": deptstore.mapping_fig3,
        "fig4": deptstore.mapping_fig4,
        "fig6": deptstore.mapping_fig6,
        "fig7": deptstore.mapping_fig7,
    }[figure]
    tgd = compile_clip(factory())
    instance = deptstore.source_instance()
    interp = explain_plan(tgd, instance, optimize=True, exec_mode="interp")
    codegen = explain_plan(tgd, instance, optimize=True, exec_mode="codegen")
    assert codegen.counters == interp.counters
    assert to_xml(codegen.result) == to_xml(interp.result)


# -- deterministic emission --------------------------------------------------


def test_emission_is_deterministic_for_one_plan():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig7()))
    assert generate_source(planned) == generate_source(planned)


def test_emission_is_deterministic_across_compiles():
    """Two independent compilations of the same mapping (distinct AST
    objects throughout) emit byte-identical source — names come from
    emission order, never from ``id()``."""
    first = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    second = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    assert first == second
    assert first.startswith("# clip-codegen v1")


def test_distinct_plans_emit_distinct_source():
    fig6 = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig6())))
    fig7 = generate_source(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    assert fig6 != fig7


def test_program_describe_shape():
    program = build_program(plan_tgd(compile_clip(deptstore.mapping_fig6())))
    description = program.describe()
    assert set(description) == {"source_hash", "line_count", "compile_seconds"}
    assert len(description["source_hash"]) == 64
    assert description["line_count"] == len(program.source.splitlines())


# -- rebuild from source (the pool-worker path) ------------------------------


def test_build_program_accepts_matching_cached_source():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig6()))
    original = build_program(planned)
    rebuilt = build_program(planned, source=original.source)
    assert rebuilt.source == original.source
    assert rebuilt.source_hash == original.source_hash
    tgd = compile_clip(deptstore.mapping_fig6())
    instance = deptstore.source_instance()
    via_rebuilt = prepare(tgd, optimize=True, exec_mode="codegen")
    assert to_xml(via_rebuilt.run(instance)) == to_xml(
        prepare(tgd, optimize=True, exec_mode="interp").run(instance)
    )


def test_build_program_rejects_foreign_source():
    planned = plan_tgd(compile_clip(deptstore.mapping_fig6()))
    foreign = build_program(plan_tgd(compile_clip(deptstore.mapping_fig7())))
    with pytest.raises(ExecutionError, match="codegen source mismatch"):
        build_program(planned, source=foreign.source)


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_workers_rebuild_from_shipped_source(workers):
    """`workers>1` ships the generated source (strings pickle, code
    objects don't); the pool's outputs match the inline interpreter's
    document-for-document."""
    mapping = deptstore.mapping_fig7()
    docs = [deptstore.source_instance() for _ in range(4)]
    codegen = BatchRunner(
        mapping, workers=workers, exec_mode="codegen", cache=PlanCache()
    ).run(docs)
    interp = BatchRunner(
        mapping, workers=1, exec_mode="interp", cache=PlanCache()
    ).run(docs)
    assert [to_xml(r) for r in codegen] == [to_xml(r) for r in interp]
    assert codegen.metrics.plan["exec_mode"] == "codegen"
    assert set(codegen.metrics.plan["codegen"]) == {
        "source_hash", "line_count", "compile_seconds"
    }
    assert interp.metrics.plan["exec_mode"] == "interp"
    assert "codegen" not in interp.metrics.plan


# -- mode resolution and fingerprints ----------------------------------------


def test_resolve_exec_mode_flag_env_default(monkeypatch):
    monkeypatch.delenv(EXEC_MODE_ENV, raising=False)
    assert resolve_exec_mode(None) == "interp"
    assert resolve_exec_mode("codegen") == "codegen"
    monkeypatch.setenv(EXEC_MODE_ENV, "codegen")
    assert resolve_exec_mode(None) == "codegen"
    assert resolve_exec_mode("interp") == "interp"  # explicit wins
    with pytest.raises(ValueError, match="unknown exec mode"):
        resolve_exec_mode("jit")
    assert EXEC_MODES == ("interp", "codegen")


def test_effective_mode_requires_optimized_tgd():
    assert ExecSpec("tgd", True, "codegen").exec_mode == "codegen"
    assert ExecSpec("tgd", False, "codegen").exec_mode == "interp"
    assert ExecSpec("xquery", True, "codegen").exec_mode == "interp"
    assert ExecSpec("xslt", True, "codegen").exec_mode == "interp"


def test_fingerprint_separates_exec_modes():
    mapping = deptstore.mapping_fig6()
    interp = fingerprint(mapping, "tgd", exec_mode="interp")
    codegen = fingerprint(mapping, "tgd", exec_mode="codegen")
    assert interp != codegen
    # Codegen only exists on the optimized tgd path: elsewhere the
    # request resolves to interp and the fingerprint is unchanged.
    assert fingerprint(
        mapping, "tgd", optimize=False, exec_mode="codegen"
    ) == fingerprint(mapping, "tgd", optimize=False)
    assert fingerprint(
        mapping, "xquery", exec_mode="codegen"
    ) == fingerprint(mapping, "xquery")


def test_trace_seed_is_exec_mode_independent(monkeypatch):
    mapping = deptstore.mapping_fig6()
    seed = trace_seed(mapping, "tgd")
    monkeypatch.setenv(EXEC_MODE_ENV, "codegen")
    assert trace_seed(mapping, "tgd") == seed
    assert seed == fingerprint(mapping, "tgd", optimize=True, exec_mode="interp")


def test_cache_keeps_modes_apart():
    cache = PlanCache()
    mapping = deptstore.mapping_fig6()
    interp = cache.get_or_compile(mapping, "tgd", exec_mode="interp")
    codegen = cache.get_or_compile(mapping, "tgd", exec_mode="codegen")
    assert interp is not codegen
    assert interp.fingerprint != codegen.fingerprint
    assert codegen.exec_mode == "codegen" and interp.exec_mode == "interp"
    assert cache.get_or_compile(mapping, "tgd", exec_mode="codegen") is codegen


# -- explain -----------------------------------------------------------------


def test_explain_plan_gains_codegen_section():
    transformer = Transformer(deptstore.mapping_fig6(), exec_mode="codegen")
    report = transformer.explain_plan(deptstore.source_instance())
    doc = report.to_dict()
    assert doc["exec_mode"] == "codegen"
    assert set(doc["codegen"]) == {"source_hash", "line_count", "compile_seconds"}
    rendered = report.render()
    assert "exec_mode=codegen" in rendered
    assert "codegen:" in rendered
    interp_doc = Transformer(deptstore.mapping_fig6(), exec_mode="interp").explain_plan(
        deptstore.source_instance()
    ).to_dict()
    assert interp_doc["exec_mode"] == "interp"
    assert "codegen" not in interp_doc
    # Counters agree between the modes, section aside.
    assert [lvl["counters"] for lvl in doc["levels"]] == [
        lvl["counters"] for lvl in interp_doc["levels"]
    ]
