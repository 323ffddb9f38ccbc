"""Plan-cache LRU behaviour and epoch-based cache invalidation.

Covers the caching contract end to end: the engine's plan cache is a
genuine LRU (a hit protects an entry from eviction), hit/miss counts
surface on ``ExecutionMetrics``, and any store mutation bumps the store
epoch — dropping both the plan cache and the cost estimator's memoized
COUNT/TC numbers, so the next query re-plans against fresh statistics.
"""

from __future__ import annotations

import pytest

from repro.mass.loader import load_xml
from repro.engine.engine import VamanaEngine

DOC = """<site>
<people>
<person><name>Ada</name><address><province>Vermont</province></address></person>
<person><name>Bob</name></person>
</people>
</site>"""


@pytest.fixture
def store():
    return load_xml(DOC, name="plan-cache")


@pytest.fixture
def engine(store):
    return VamanaEngine(store)


class TestLru:
    def test_repeat_plan_hits(self, engine):
        engine.plan("//person")
        assert (engine.plan_cache_hits, engine.plan_cache_misses) == (0, 1)
        engine.plan("//person")
        assert (engine.plan_cache_hits, engine.plan_cache_misses) == (1, 1)

    def test_hit_protects_entry_from_eviction(self, store):
        engine = VamanaEngine(store, plan_cache_size=2)
        engine.plan("//person")   # oldest
        engine.plan("//name")
        engine.plan("//person")   # hit: //person becomes MRU
        engine.plan("//address")  # full cache: must evict //name, not //person
        hits = engine.plan_cache_hits
        engine.plan("//person")
        assert engine.plan_cache_hits == hits + 1  # survived the eviction
        misses = engine.plan_cache_misses
        engine.plan("//name")
        assert engine.plan_cache_misses == misses + 1  # was evicted

    def test_optimize_flag_is_part_of_the_key(self, engine):
        engine.plan("//person", optimize=False)
        engine.plan("//person", optimize=True)
        assert engine.plan_cache_misses == 2
        assert set(engine._plan_cache) == {("//person", False), ("//person", True)}

    def test_zero_capacity_never_caches(self, store):
        engine = VamanaEngine(store, plan_cache_size=0)
        engine.plan("//person")
        engine.plan("//person")
        assert engine.plan_cache_hits == 0
        assert engine.plan_cache_misses == 2

    def test_metrics_carry_per_query_counts(self, engine):
        first = engine.evaluate("//person")
        assert first.metrics.plan_cache_misses == 1
        assert first.metrics.plan_cache_hits == 0
        second = engine.evaluate("//person")
        assert second.metrics.plan_cache_hits == 1
        assert second.metrics.plan_cache_misses == 0


class TestEpochInvalidation:
    def test_store_mutations_bump_epoch(self, store):
        epoch = store.epoch
        site = next(iter(store.node_index.scan(None, None))).key
        people = site.child(0)
        store.insert_element(people, "person")
        assert store.epoch > epoch

    def test_insert_invalidates_plan_cache(self, engine, store):
        engine.plan("//person")
        site = next(iter(store.node_index.scan(None, None))).key
        store.insert_element(site.child(0), "person")
        engine.plan("//person")
        assert engine.plan_cache_misses == 2
        assert engine.plan_cache_hits == 0

    def test_live_insert_replans_with_new_statistics(self, engine, store):
        before = engine.evaluate("//person")
        assert len(before) == 2
        assert before.metrics.plan_cache_misses == 1

        plan, _trace = engine.plan("//person")
        engine.estimator.estimate(plan)
        step = plan.root.context_child
        assert step.cost.count == 2  # COUNT(person) from current statistics

        site = next(iter(store.node_index.scan(None, None))).key
        store.insert_element(site.child(0), "person", text="Cyd")

        after = engine.evaluate("//person")
        assert len(after) == 3  # the new node is visible immediately
        assert after.metrics.plan_cache_misses == 1  # re-planned, not cached

        plan, _trace = engine.plan("//person")
        engine.estimator.estimate(plan)
        step = plan.root.context_child
        assert step.cost.count == 3  # ... and against the new statistics

    def test_estimator_count_memo_hits_until_epoch_changes(self, engine, store):
        plan, _trace = engine.plan("//person/name")
        engine.estimator.estimate(plan)
        calls = store.metrics.count_calls
        engine.estimator.estimate(plan)  # same epoch: memoized, no index work
        assert store.metrics.count_calls == calls

        site = next(iter(store.node_index.scan(None, None))).key
        store.insert_element(site.child(0), "person")
        engine.estimator.estimate(plan)  # epoch changed: counts re-probed
        assert store.metrics.count_calls > calls

    def test_delete_also_invalidates(self, engine, store):
        engine.evaluate("//person")
        result = engine.evaluate("//person")
        assert result.metrics.plan_cache_hits == 1
        victim = max(result.keys)
        store.delete_subtree(victim)
        after = engine.evaluate("//person")
        assert after.metrics.plan_cache_misses == 1
        assert len(after) == 1
