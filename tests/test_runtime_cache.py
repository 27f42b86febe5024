"""Plan-cache and batch-runner correctness.

The batch runtime's contract: the once-per-mapping work happens once
(fingerprinted plan cache), document fan-out changes nothing about the
results (parallel == sequential, in order), and every run accounts for
itself (metrics).
"""

from __future__ import annotations

import pytest

from repro import Transformer
from repro.runtime import (
    BatchRunner,
    PlanCache,
    compile_plan,
    default_cache,
    fingerprint,
    get_plan,
    plan_from_tgd,
)
from repro.scenarios import deptstore
from repro.scenarios.workload import DeptstoreSpec, make_deptstore_instance


def _docs(count: int, **kwargs) -> list:
    spec = dict(departments=2, projects_per_dept=2, employees_per_dept=5)
    spec.update(kwargs)
    return [
        make_deptstore_instance(DeptstoreSpec(seed=seed, **spec))
        for seed in range(count)
    ]


class TestFingerprint:
    def test_structurally_equal_distinct_objects_share_fingerprint(self):
        assert fingerprint(deptstore.mapping_fig4()) == fingerprint(
            deptstore.mapping_fig4()
        )

    def test_mutation_changes_fingerprint(self):
        mapping = deptstore.mapping_fig4()
        before = fingerprint(mapping)
        mapping.value("dept/Proj/pname/value", "department/project/@name")
        assert fingerprint(mapping) != before

    def test_engine_is_part_of_the_key(self):
        mapping = deptstore.mapping_fig4()
        assert fingerprint(mapping, "tgd") != fingerprint(mapping, "xquery")

    def test_different_mappings_differ(self):
        assert fingerprint(deptstore.mapping_fig3()) != fingerprint(
            deptstore.mapping_fig7()
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            fingerprint(deptstore.mapping_fig3(), "sql")


class TestPlanCache:
    def test_same_mapping_twice_compiles_once(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        first = cache.get_or_compile(mapping)
        second = cache.get_or_compile(mapping)
        assert first is second
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert len(cache) == 1

    def test_equal_but_distinct_objects_hit(self):
        cache = PlanCache()
        cache.get_or_compile(deptstore.mapping_fig4())
        cache.get_or_compile(deptstore.mapping_fig4())
        stats = cache.stats
        assert (stats.misses, stats.hits) == (1, 1)

    def test_peek_never_touches_counters_or_lru_order(self):
        """``peek`` is the observability read (the service's mapping-
        detail endpoint): it must neither count as a hit/miss nor
        refresh the entry's LRU position."""
        cache = PlanCache(maxsize=2)
        mapping = deptstore.mapping_fig4()
        fp = fingerprint(mapping)
        assert cache.peek(fp) is None  # a miss that is not counted
        plan = cache.get_or_compile(mapping)
        stats_before = cache.stats
        assert cache.peek(fp) is plan
        stats_after = cache.stats
        assert (stats_after.hits, stats_after.misses) == (
            stats_before.hits, stats_before.misses,
        )
        # LRU order: peeking fig4 must NOT save it from eviction once
        # two fresher plans arrive.
        cache.get_or_compile(deptstore.mapping_fig3())
        cache.peek(fp)
        cache.get_or_compile(deptstore.mapping_fig7())
        assert cache.peek(fp) is None
        assert cache.stats.evictions == 1

    def test_mutated_mapping_misses(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig3()
        cache.get_or_compile(mapping)
        mapping.value("dept/regEmp/sal/value", "department/employee/works-in/value")
        cache.get_or_compile(mapping)
        stats = cache.stats
        assert stats.misses == 2
        assert stats.hits == 0

    def test_engines_cached_separately(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        a = cache.get_or_compile(mapping, "tgd")
        b = cache.get_or_compile(mapping, "xquery")
        assert a is not b
        assert cache.stats.misses == 2

    def test_lru_eviction_is_counted(self):
        cache = PlanCache(maxsize=1)
        cache.get_or_compile(deptstore.mapping_fig3())
        cache.get_or_compile(deptstore.mapping_fig4())
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # fig3 was evicted: asking again is a miss.
        cache.get_or_compile(deptstore.mapping_fig3())
        assert cache.stats.misses == 3

    def test_put_seeds_the_cache(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        transformer = Transformer(mapping)
        fp = fingerprint(mapping, "tgd")
        cache.put(plan_from_tgd(transformer.tgd, "tgd", fp=fp))
        assert fp in cache
        plan = cache.get_or_compile(mapping)
        assert cache.stats.misses == 0
        assert plan(deptstore.source_instance()) == transformer(
            deptstore.source_instance()
        )

    def test_default_cache_shared_by_get_plan(self):
        mapping = deptstore.mapping_fig4()
        assert get_plan(mapping) is get_plan(mapping)
        assert fingerprint(mapping) in default_cache()

    def test_compiled_plan_matches_transformer(self):
        mapping = deptstore.mapping_fig7()
        instance = deptstore.source_instance()
        for engine in ("tgd", "xquery"):
            plan = compile_plan(mapping, engine)
            assert plan(instance) == Transformer(mapping, engine=engine)(instance)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestBatchRunner:
    def test_results_match_naive_transformer_in_order(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(5)
        batch = BatchRunner(mapping, cache=PlanCache()).run(docs)
        expected = [Transformer(mapping)(doc) for doc in docs]
        assert list(batch) == expected

    def test_parallel_output_identical_and_identically_ordered(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(8)
        sequential = BatchRunner(mapping, workers=1, cache=PlanCache()).run(docs)
        parallel = BatchRunner(mapping, workers=2, cache=PlanCache()).run(docs)
        assert sequential.results == parallel.results
        assert parallel.metrics.documents == len(docs)

    def test_parallel_grouping_engine_agrees(self):
        mapping = deptstore.mapping_fig7()
        docs = _docs(4, project_name_pool=2)
        sequential = BatchRunner(mapping, workers=1, cache=PlanCache()).run(docs)
        parallel = BatchRunner(mapping, workers=3, cache=PlanCache()).run(docs)
        assert sequential.results == parallel.results

    def test_accepts_an_iterator(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(4)
        batch = BatchRunner(mapping, cache=PlanCache()).run(iter(docs))
        assert len(batch) == 4

    def test_metrics_one_miss_rest_hits(self):
        mapping = deptstore.mapping_fig4()
        docs = _docs(6)
        batch = BatchRunner(mapping, cache=PlanCache()).run(docs)
        metrics = batch.metrics
        assert metrics.cache_misses == 1
        assert metrics.cache_hits == len(docs) - 1
        assert metrics.documents == len(docs)
        assert metrics.execute_seconds > 0
        assert metrics.wall_seconds >= metrics.execute_seconds

    def test_metrics_dict_schema(self):
        mapping = deptstore.mapping_fig4()
        batch = BatchRunner(mapping, cache=PlanCache(), validate=True).run(_docs(2))
        doc = batch.metrics.to_dict()
        assert doc["format"] == "clip-batch-metrics"
        assert doc["version"] == 2
        assert doc["documents"] == 2
        assert doc["plan_cache"]["hits"] == 1
        assert doc["plan_cache"]["misses"] == 1
        assert doc["validation_violations"] == 0
        assert set(doc["timings"]) == {
            "compile_seconds", "execute_seconds", "wall_seconds",
        }

    def test_empty_batch(self):
        batch = BatchRunner(
            deptstore.mapping_fig4(), workers=2, cache=PlanCache()
        ).run([])
        assert list(batch) == []
        assert batch.metrics.documents == 0

    def test_runners_share_plans_through_a_cache(self):
        cache = PlanCache()
        mapping = deptstore.mapping_fig4()
        BatchRunner(mapping, cache=cache).run(_docs(2))
        BatchRunner(deptstore.mapping_fig4(), cache=cache).run(_docs(2))
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 3

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            BatchRunner(deptstore.mapping_fig4(), workers=workers)

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(deptstore.mapping_fig4(), engine="sparql")


class TestCanonicalizedKeys:
    """Cache keys are structural: an alpha-renamed variant of a mapping
    is a different drawing and compiles its own plan, although the
    algebra's canonical normal form sees the two as one."""

    @staticmethod
    def _fig3_renamed():
        from repro.core.mapping import ClipMapping

        clip = ClipMapping(
            deptstore.source_schema(), deptstore.target_schema_fig3()
        )
        clip.build("dept/regEmp", "department/employee", var="z",
                   condition="$z.sal.value > 11000")
        clip.value("dept/regEmp/ename/value", "department/employee/@name")
        return clip

    def test_structural_cache_keeps_variants_apart(self):
        cache = PlanCache()
        first = cache.get_or_compile(deptstore.mapping_fig3())
        second = cache.get_or_compile(self._fig3_renamed())
        assert first is not second
        stats = cache.stats
        assert stats.misses == 2

    def test_structural_fingerprints_differ_canonical_agree(self):
        from repro.algebra import canonical_render
        from repro.core.compile import compile_clip

        original = deptstore.mapping_fig3()
        renamed = self._fig3_renamed()
        assert fingerprint(original) != fingerprint(renamed)
        assert canonical_render(compile_clip(original)) == canonical_render(
            compile_clip(renamed)
        )

    def test_where_conjunct_order_is_canonicalized(self):
        """The normal form sorts where-conjuncts: mappings differing
        only in filter-condition order share a canonical rendering."""
        from repro.algebra import canonical_render
        from repro.core.compile import compile_clip
        from repro.core.mapping import ClipMapping
        from repro.xsd.dsl import attr, elem, schema
        from repro.xsd.types import INT

        src = schema(elem(
            "S", elem("row", "[0..*]", attr("a", INT), attr("b", INT)),
        ))
        tgt = schema(elem(
            "T", elem("out", "[0..*]", attr("x", INT)),
        ))

        def make(condition):
            clip = ClipMapping(src, tgt)
            clip.build("row", "out", var="r", condition=condition)
            clip.value("row/@a", "out/@x")
            return clip

        one = make("$r.@a > 1 and $r.@b > 2")
        other = make("$r.@b > 2 and $r.@a > 1")
        assert fingerprint(one) != fingerprint(other)
        assert canonical_render(compile_clip(one)) == canonical_render(
            compile_clip(other)
        )
