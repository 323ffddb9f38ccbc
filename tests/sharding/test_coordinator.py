"""Scatter-gather coordinator: differential identity, pruning, budgets.

The acceptance bar: for every worker count, the sharded answer must be
*byte-identical* to the unsharded :class:`~repro.engine.database.Database`
— same documents, same keys, same order — and ``count()`` must sum
exactly.  Routing evidence (pruned/contacted shards) and fleet-metric
aggregation ride on the same fixtures.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    QueryTimeoutError,
    ShardingError,
)
from repro.sharding import ShardedDatabase, build_shards, build_subtree_shards
from repro.sharding.coordinator import (
    _ERROR_TYPES,
    main_path_names,
    revive_error,
    split_count_expression,
    subtree_hazards,
)

from tests.sharding.conftest import reference_rows

QUERIES = [
    "//person/address",
    "//watches/watch/ancestor::person",
    "/descendant::name/parent::*/self::person/address",
    "//itemref/following-sibling::price/parent::*",
    "//province[text()='Vermont']/ancestor::person",
    "//open_auction//description//text()",  # deep predicate-free chain
    "/site/people/person[@id]/name",
]


@pytest.fixture(scope="module", params=[1, 2, 4, 8])
def sharded(request, collection_stores, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(f"shards-{request.param}"))
    build_shards(collection_stores, directory, request.param, "round_robin")
    db = ShardedDatabase(directory)
    yield db
    db.close()


class TestDifferentialIdentity:
    @pytest.mark.parametrize("expression", QUERIES)
    def test_rows_byte_identical_to_unsharded(
        self, sharded, collection_db, expression
    ):
        outcome = sharded.evaluate(expression)
        assert outcome.ok, outcome.describe()
        assert outcome.rows == reference_rows(collection_db, expression)

    @pytest.mark.parametrize(
        "expression",
        [
            "count(//item)",
            "count(//person)",
            "count(//book)",
            # multi-step: the pipeline reaches these nodes more than once
            "count(//watch/..)",
            "count(//*//watch)",
        ],
    )
    def test_counts_sum_exactly(self, sharded, collection_db, expression):
        outcome = sharded.evaluate(expression)
        assert outcome.mode == "count"
        inner = expression[len("count(") : -1]
        expected = sum(
            len(result) for result in collection_db.evaluate(inner).values()
        )
        assert outcome.count == expected
        assert sum(outcome.per_document_counts.values()) == expected

    def test_random_hash_assignment_also_identical(
        self, collection_stores, collection_db, tmp_path
    ):
        rng = random.Random(5)
        for trial in range(3):
            shards = rng.choice([2, 3, 5])
            directory = str(tmp_path / f"t{trial}")
            build_shards(collection_stores, directory, shards, "hash")
            with ShardedDatabase(directory) as db:
                for expression in QUERIES[:3]:
                    assert db.evaluate(expression).rows == reference_rows(
                        collection_db, expression
                    )


class TestSubtreeIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_range_partitioned_document_is_identical(
        self, xmark_store, tmp_path, shards
    ):
        from repro.engine.engine import VamanaEngine

        engine = VamanaEngine(xmark_store)
        directory = str(tmp_path / f"sub{shards}")
        build_subtree_shards(xmark_store, directory, shards)
        with ShardedDatabase(directory) as db:
            for expression in [
                "/site/people/person/name",
                "//item/name",
                "//person[@id]",
            ]:
                expected = [
                    (xmark_store.name, key.sort_bytes)
                    for key in engine.evaluate(expression).keys
                ]
                assert db.evaluate(expression).rows == expected
            count = db.evaluate("count(//item)")
            assert count.count == engine.evaluate_value("count(//item)")


class TestSubtreeQuerySurface:
    """A subtree manifest must reject, not silently mis-merge, queries
    whose semantics cross the depth-2 split boundaries."""

    HAZARDOUS = [
        "/site/*[1]",
        "/site/regions[2]",
        "//item[1]",
        "/site/*[position() = 2]",
        "/site/*[last()]",
        "/descendant::item[3]",
        "/site/open_auctions/following-sibling::*",
        "//following::item",
        "//person/preceding::name",
    ]
    SAFE = [
        "/site/people/person/name",
        "//item/name",
        "//person[@id]",
        "/site/regions/africa/item[2]",  # depth 4: subtree-local positions
        "/site/people/person/watches/watch[last()]",
        "//province[text()='Vermont']/ancestor::person",
        "count(//item)",
    ]

    @pytest.mark.parametrize("expression", HAZARDOUS)
    def test_hazard_detected(self, expression):
        assert subtree_hazards(expression), expression

    @pytest.mark.parametrize("expression", SAFE)
    def test_safe_queries_pass(self, expression):
        assert subtree_hazards(expression) == [], expression

    def test_subtree_manifest_rejects_hazardous_queries(
        self, xmark_store, tmp_path
    ):
        directory = str(tmp_path / "subtree-guard")
        build_subtree_shards(xmark_store, directory, 2)
        with ShardedDatabase(directory) as db:
            with pytest.raises(ShardingError, match="subtree-partitioned"):
                db.evaluate("/site/*[1]")
            with pytest.raises(ShardingError, match="subtree-partitioned"):
                db.explain("/site/open_auctions/following-sibling::*")
            outcome = db.evaluate("//item/name")  # safe query still served
            assert outcome.ok

    def test_collection_manifest_accepts_full_surface(self, sharded):
        # Whole documents never split: sibling axes and positions are fine.
        outcome = sharded.evaluate("//itemref/following-sibling::price")
        assert outcome.ok


class TestErrorRevival:
    @pytest.mark.parametrize("name", sorted(_ERROR_TYPES))
    def test_every_wire_name_revives_typed(self, name):
        error = revive_error(name, "worker said so")
        assert type(error) is _ERROR_TYPES[name]
        assert "worker said so" in str(error)

    def test_timeout_message_revives_without_value_error(self):
        # Regression: QueryTimeoutError('msg') raises ValueError from its
        # numeric format; revival must fall back, not crash the gather.
        error = revive_error(
            "QueryTimeoutError", "query exceeded its 5 ms deadline"
        )
        assert isinstance(error, QueryTimeoutError)
        assert "5 ms deadline" in str(error)

    def test_unknown_name_degrades_to_execution_error(self):
        error = revive_error("NoSuchError", "boom")
        assert isinstance(error, ExecutionError)
        assert "NoSuchError" in str(error)

    def test_worker_timeout_surfaces_as_typed_partial(
        self, collection_stores, tmp_path
    ):
        # End to end: a per-shard deadline trips inside the workers and
        # must come back as typed doc_errors the serving path can revive.
        directory = str(tmp_path / "deadline")
        build_shards(collection_stores, directory, 2, "round_robin")
        with ShardedDatabase(directory) as db:
            outcome = db.evaluate("//person/address", timeout_ms=0.0001)
            assert not outcome.ok
            error = outcome.first_error()  # revival must not raise
            assert isinstance(error, QueryTimeoutError)


class TestRouting:
    def test_pruning_isolates_the_odd_document(self, sharded):
        outcome = sharded.evaluate("//book/title")
        assert outcome.ok
        assert {doc for doc, _ in outcome.rows} == {"library"}
        assert outcome.shards_contacted == 1
        assert outcome.shards_contacted + outcome.shards_pruned == (
            sharded.manifest.shard_count
        )

    def test_unsatisfiable_query_contacts_nobody(self, sharded):
        outcome = sharded.evaluate("//no_such_element_anywhere")
        assert outcome.ok
        assert outcome.rows == []
        assert outcome.shards_contacted == 0

    def test_count_query_prunes_too(self, sharded):
        outcome = sharded.evaluate("count(//book)")
        assert outcome.count == 2
        assert outcome.shards_contacted <= 1

    def test_route_metadata_present(self, sharded):
        outcome = sharded.evaluate("//person/address")
        assert outcome.route in ("scatter", "single")
        assert outcome.route_reason
        assert "shards" in outcome.describe()


class TestHelpers:
    def test_split_count_expression(self):
        assert split_count_expression("count(//a/b)") is not None
        assert split_count_expression("//a/b") is None
        assert split_count_expression("count(//a) + 1") is None
        assert split_count_expression("sum(//a)") is None

    def test_main_path_names(self):
        assert main_path_names("/site/people/person") == [
            ["site", "people", "person"]
        ]
        assert main_path_names("//person[@id]/name") == [["person", "name"]]
        branches = main_path_names("//a | //b")
        assert sorted(branches) == [["a"], ["b"]]
        assert main_path_names("//person/@id") == [["person", "@id"]]


class TestFleetMetrics:
    def test_counters_aggregate_across_workers(self, sharded):
        outcome = sharded.evaluate("//person/address")
        if sharded.manifest.shard_count == 1:
            assert len(outcome.per_shard_counters) == 1
        assert outcome.counters.get("logical_reads", 0) > 0
        assert sum(
            counters.get("logical_reads", 0)
            for counters in outcome.per_shard_counters.values()
        ) == outcome.counters["logical_reads"]
        stats = sharded.stats()
        assert stats["fleet_counters"]["logical_reads"] > 0
        assert stats["workers_alive"] == sharded.manifest.shard_count

    def test_explain_reports_route_and_plans(self, sharded):
        text = sharded.explain("//person/address")
        assert "route:" in text
        assert "shard" in text


class TestBudgetsAndErrors:
    def test_page_budget_captured_per_document(self, sharded):
        outcome = sharded.evaluate("//person/address", max_pages=1)
        assert not outcome.ok
        assert outcome.partial
        names = {name for status in outcome.failures
                 for _, name, _ in status.doc_errors}
        assert "BudgetExceededError" in names

    def test_count_mode_enforces_budgets_too(self, sharded):
        # Regression: the collection-shard count path skipped the guard,
        # so page budgets silently did not apply to count() queries.
        outcome = sharded.evaluate("count(//person[@id])", max_pages=1)
        assert outcome.mode == "count"
        assert outcome.partial
        names = {name for status in outcome.failures
                 for _, name, _ in status.doc_errors}
        assert "BudgetExceededError" in names

    def test_tight_credit_window_spans_documents(self, sharded, collection_db):
        # One credit window per request (not per document): with the
        # tightest window the merge must still drain every document.
        expression = "//person/name"
        outcome = sharded.evaluate(expression, block_keys=3, window=1)
        assert outcome.ok
        assert outcome.rows == reference_rows(collection_db, expression)

    def test_on_error_raise_propagates_typed(self, sharded):
        with pytest.raises(BudgetExceededError):
            sharded.evaluate("//person/address", max_pages=1, on_error="raise")

    def test_reordered_manifest_still_routes_by_shard_id(
        self, collection_stores, collection_db, tmp_path
    ):
        # Workers are addressed by manifest shard id, never list
        # position: a hand-reordered manifest must route identically.
        directory = str(tmp_path / "reordered")
        build_shards(collection_stores, directory, 3, "round_robin")
        path = os.path.join(directory, "manifest.json")
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["shards"].reverse()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with ShardedDatabase(directory) as db:
            for expression in ("//book/title", "//person/name"):
                outcome = db.evaluate(expression)
                assert outcome.ok, outcome.describe()
                assert outcome.rows == reference_rows(collection_db, expression)

    def test_duplicate_shard_ids_rejected(self, collection_stores, tmp_path):
        directory = str(tmp_path / "dup-ids")
        build_shards(collection_stores, directory, 2, "round_robin")
        path = os.path.join(directory, "manifest.json")
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        for entry in data["shards"]:
            entry["id"] = 0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(ShardingError, match="duplicate shard id"):
            ShardedDatabase(directory)

    def test_closed_database_refuses_queries(
        self, collection_stores, tmp_path
    ):
        directory = str(tmp_path / "closing")
        build_shards(collection_stores, directory, 2, "round_robin")
        db = ShardedDatabase(directory)
        db.close()
        db.close()  # idempotent
        with pytest.raises(ShardingError):
            db.evaluate("//person")


class TestDatabaseBridge:
    def test_to_sharded_round_trip(self, collection_db, tmp_path):
        directory = str(tmp_path / "bridge")
        with collection_db.to_sharded(directory, shards=3) as db:
            expression = "//person/name"
            assert db.evaluate(expression).rows == reference_rows(
                collection_db, expression
            )
