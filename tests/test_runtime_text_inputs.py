"""BatchRunner applied to XML text: parse inside the document's attempt.

Reading an instance against the source schema is part of applying a
mapping, so the runner accepts text beside parsed trees.  These tests
pin what that must keep and what it adds:

* text and tree inputs give byte-identical results and metrics for
  every figure, worker count and execution mode;
* a malformed document is a per-document failure like any other — at
  its input position, dead-lettered as its raw text, never retried;
* a parse that overruns the per-document timeout counts in
  ``timeouts``, and ``execute_seconds`` leaves the parse out;
* a parse failure costs a plan retrieval and leaves an ``attempt[0]``
  error span, like an evaluation failure.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import DocumentFailureError
from repro.runtime import BatchRunner, PlanCache, SpanTracer, Trace
from repro.runtime import batch as batch_module
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance
from repro.xml.parser import parse_xml
from repro.xml.serialize import to_xml

FIGURES = {
    "fig3": deptstore.mapping_fig3,
    "fig4": deptstore.mapping_fig4,
    "fig5": deptstore.mapping_fig5,
    "fig6": deptstore.mapping_fig6,
    "fig7": deptstore.mapping_fig7,
    "fig8": deptstore.mapping_fig8,
    "fig9": deptstore.mapping_fig9,
}


def _texts(count: int) -> list:
    return [
        to_xml(make_deptstore_instance(DeptstoreSpec(
            departments=2, projects_per_dept=2, employees_per_dept=3,
            project_name_pool=2, seed=seed,
        )))
        for seed in range(count)
    ]


@pytest.fixture(scope="module")
def texts():
    return _texts(4)


@pytest.mark.parametrize("exec_mode", ["interp", "codegen"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_text_and_tree_inputs_agree(texts, figure, workers, exec_mode):
    mapping = FIGURES[figure]()
    trees = [parse_xml(text, schema=mapping.source) for text in texts]
    runs = {}
    for kind, documents in (("text", texts), ("tree", trees)):
        runs[kind] = BatchRunner(
            mapping, workers=workers, exec_mode=exec_mode, cache=PlanCache()
        ).run(documents)
    assert [to_xml(r) for r in runs["text"]] == [
        to_xml(r) for r in runs["tree"]
    ]
    text_metrics, tree_metrics = runs["text"].metrics, runs["tree"].metrics
    assert text_metrics.documents == tree_metrics.documents == len(texts)
    assert text_metrics.source_elements == tree_metrics.source_elements
    assert text_metrics.source_elements == sum(t.size() for t in trees)
    assert text_metrics.target_elements == tree_metrics.target_elements


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("policy", ["skip", "collect"])
def test_malformed_text_is_one_failure_at_its_input_position(
    texts, policy, workers
):
    documents = [texts[0], "<not well formed", texts[1]]
    batch = BatchRunner(
        deptstore.mapping_fig4(), workers=workers, error_policy=policy,
        max_retries=2, cache=PlanCache(),
    ).run(documents)
    assert batch.success_indices == [0, 2]
    [failure] = batch.failures
    assert failure.index == 1
    assert failure.error == "XmlParseError"
    assert failure.attempts == 1
    assert not failure.transient
    metrics = batch.metrics
    assert (metrics.documents, metrics.failures, metrics.retries) == (2, 1, 0)
    if policy == "collect":
        [letter] = batch.dead_letters
        assert letter.failure is failure
        assert letter.document == "<not well formed"
        assert metrics.dead_letter == 1
    else:
        assert batch.dead_letters == [] and metrics.dead_letter == 0


def test_malformed_text_aborts_under_fail_fast(texts):
    runner = BatchRunner(
        deptstore.mapping_fig4(), max_retries=2, cache=PlanCache()
    )
    with pytest.raises(DocumentFailureError) as raised:
        runner.run([texts[0], texts[1], "<broken"])
    failure = raised.value.failure
    assert (failure.index, failure.error, failure.attempts) == (
        2, "XmlParseError", 1,
    )


def test_parse_overrun_counts_as_a_timeout(texts, monkeypatch):
    def slow(*args, **kwargs):
        time.sleep(0.5)
        return parse_xml(*args, **kwargs)

    monkeypatch.setattr(batch_module, "parse_xml", slow)
    batch = BatchRunner(
        deptstore.mapping_fig4(), error_policy="collect", timeout=0.05,
        cache=PlanCache(),
    ).run([texts[0]])
    [failure] = batch.failures
    assert failure.error == "DocumentTimeout" and failure.timed_out
    assert batch.metrics.timeouts == 1
    assert batch.dead_letters[0].document == texts[0]


def test_execute_seconds_leaves_the_parse_out(texts, monkeypatch):
    def slow(*args, **kwargs):
        time.sleep(0.2)
        return parse_xml(*args, **kwargs)

    monkeypatch.setattr(batch_module, "parse_xml", slow)
    batch = BatchRunner(deptstore.mapping_fig3(), cache=PlanCache()).run(
        [texts[0]]
    )
    assert len(batch) == 1
    assert batch.metrics.execute_seconds < 0.2


@pytest.mark.parametrize("workers", [1, 2])
def test_parse_failure_is_traced_and_counted_like_any_attempt(texts, workers):
    tracer = SpanTracer()
    batch = BatchRunner(
        deptstore.mapping_fig4(), workers=workers, error_policy="collect",
        trace=tracer, cache=PlanCache(),
    ).run([texts[0], "<broken"])
    # Every document, malformed or not, is one plan retrieval.
    assert (batch.metrics.cache_misses, batch.metrics.cache_hits) == (1, 1)
    doc1 = Trace.from_dict(batch.metrics.trace).find("doc[1]")
    [attempt] = doc1["children"]
    assert (attempt["name"], attempt["kind"]) == ("attempt[0]", "error")
    assert attempt["attrs"]["error"] == "XmlParseError"
    assert attempt["attrs"]["terminal"] is True
