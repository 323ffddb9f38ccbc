"""End-to-end execution correctness on the shared small document."""

from __future__ import annotations

import pytest

from repro.mass.flexkey import FlexKey
from repro.algebra.builder import build_default_plan
from repro.algebra.execution import execute_plan


def names(store, expression, context=None):
    plan = build_default_plan(expression)
    keys = sorted(set(execute_plan(plan, store, context)))
    result = []
    for key in keys:
        record = store.require(key)
        result.append(record.name or record.kind.value)
    return result


def count(store, expression):
    return len(set(execute_plan(build_default_plan(expression), store)))


CASES = [
    # paths and axes
    ("//person", ["person"] * 3),
    ("/site/people/person", ["person"] * 3),
    ("//person/address", ["address"] * 2),
    ("//person/address/city", ["city"] * 2),
    ("//watches/watch/ancestor::person", ["person"] * 2),
    ("/descendant::name/parent::*/self::person/address", ["address"] * 2),
    ("//itemref/following-sibling::price/parent::*", ["closed_auction"] * 2),
    ("//city/preceding-sibling::street", ["street"] * 2),
    ("//person/descendant-or-self::person", ["person"] * 3),
    ("//zipcode/following::closed_auction", ["closed_auction"] * 2),
    ("//itemref/preceding::person", ["person"] * 3),
    ("//name/..", ["person"] * 3),
    ("//watch/../..", ["person"] * 2),
    ("//person/.", ["person"] * 3),
    # attributes
    ("//person/@id", ["id"] * 3),
    ("//@person", ["person"] * 4),
    ("//watch/@*", ["open_auction"] * 3),
    # value predicates
    ("//province[text()='Vermont']/ancestor::person", ["person"]),
    ("//province[text()='Nowhere']", []),
    ("//name[text()='Yung Flach']/following-sibling::emailaddress", ["emailaddress"]),
    ("//person[@id='person2']/name", ["name"]),
    ("//person[address/city='Quincy']", ["person"]),
    ("//closed_auction[price='9.99']/itemref", ["itemref"]),
    # numeric comparisons
    ("//closed_auction[price > 5]", ["closed_auction"]),
    ("//closed_auction[price < 5]", ["closed_auction"]),
    ("//closed_auction[price >= 1.50][price <= 2]", ["closed_auction"]),
    ("//address[zipcode != 12]", ["address"]),
    # boolean connectors / functions
    ("//person[address and watches]", ["person"]),  # person2 has both
    ("//person[address and emailaddress]", ["person"]),  # only person0
    ("//person[address or watches]", ["person"] * 3),
    ("//person[not(address)]", ["person"]),
    ("//person[count(watches/watch) = 2]", ["person"]),
    ("//person[starts-with(name, 'Yung')]", ["person"]),
    ("//person[contains(emailaddress, 'auth.gr')]", ["person"]),
    # positions
    ("//person[1]", ["person"]),
    ("//person[2]/name", ["name"]),
    ("//person[last()]", ["person"]),
    ("//person[position() >= 2]", ["person"] * 2),
    ("//closed_auction[1]/price", ["price"]),
    ("//watch[2]", ["watch"]),
    # kind tests
    ("//name/text()", ["text"] * 3),
    ("//comment()", ["comment"]),
    ("//processing-instruction()", ["marker"]),
    ("//processing-instruction('marker')", ["marker"]),
    ("//processing-instruction('other')", []),
    ("/site/node()", ["people", "closed_auctions", "comment", "marker"]),
    # unions
    ("//street | //city", ["street", "city"] * 2),
    ("//name | //name", ["name"] * 3),
    # empty results
    ("//nothing", []),
    ("//person/person", []),
    ("/person", []),
]


@pytest.mark.parametrize("expression,expected", CASES, ids=[c[0] for c in CASES])
def test_query(small_store, expression, expected):
    assert sorted(names(small_store, expression)) == sorted(expected)


class TestContextHandling:
    def test_relative_path_from_custom_context(self, small_store):
        person_keys = sorted(set(execute_plan(build_default_plan("//person"), small_store)))
        first_person = person_keys[0]
        got = names(small_store, "address/city", context=first_person)
        assert got == ["city"]

    def test_absolute_path_ignores_leaf_context_not(self, small_store):
        """The engine sets the leaf context; absolute and relative paths
        both start from whatever the caller passes (document by default)."""
        person_keys = sorted(set(execute_plan(build_default_plan("//person"), small_store)))
        got = names(small_store, "//city", context=person_keys[0])
        assert got == ["city"]  # only the subtree of person0

    def test_document_self(self, small_store):
        got = names(small_store, "/")
        assert got == ["document"]


class TestPipelineBehaviour:
    def test_streaming_yields_before_exhaustion(self, small_store):
        """The pipeline produces its first tuple without draining the plan."""
        iterator = execute_plan(build_default_plan("//person"), small_store)
        first = next(iterator)
        assert first is not None
        remaining = list(iterator)
        assert len(remaining) == 2

    def test_duplicates_preserved_in_raw_pipeline(self, small_store):
        """//watches/watch/ancestor::person emits one person per watch."""
        raw = list(execute_plan(build_default_plan("//watches/watch/ancestor::person"), small_store))
        assert len(raw) == 3  # 2 + 1 watches
        assert len(set(raw)) == 2

    def test_results_are_keys(self, small_store):
        for key in execute_plan(build_default_plan("//name"), small_store):
            assert isinstance(key, FlexKey)

    def test_predicate_sub_plans_resume_across_candidates(self, xmark_store):
        """A predicate path's operators (and their cursors) are built once
        per execution: the candidates of ``//person[address]`` arrive in
        document order, so each child scan resumes the previous one's."""
        plan = build_default_plan("//person[address]")
        persons = count(xmark_store, "//person")
        xmark_store.reset_metrics()
        kept = len(list(execute_plan(plan, xmark_store)))
        snapshot = xmark_store.io_snapshot()
        assert 0 < kept < persons
        assert snapshot["root_descents"] <= persons // 4
        assert snapshot["cursor_resumes"] >= persons // 2
