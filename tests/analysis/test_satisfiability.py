"""Satisfiability analysis: schema soundness, pruning, zero-I/O answers."""

from __future__ import annotations

import pytest

from repro.mass.loader import load_xml
from repro.mass.records import NodeKind
from repro.bench.corpus import PAPER_QUERIES
from repro.engine.engine import VamanaEngine
from repro.xmark import vocabulary
from repro.xpath.parser import parse_xpath
from repro.analysis.satisfiability import (
    SatisfiabilityAnalyzer,
    analyze,
    names_only_schema,
    xmark_schema,
)

#: Queries the XMark grammar proves empty, by failure family.
UNSAT_QUERIES = [
    "//nosuchtag",  # unknown element name
    "//person/@nosuchattr",  # unknown attribute name
    "//person/person",  # impossible parent/child pair
    "/site/category",  # category only lives under categories
    "//regions/person",  # people are not region children
    "//item/@open_auction",  # attribute on the wrong element
    "//watch/descendant::price",  # watch is a leaf element
    "/descendant::edge/ancestor::people",  # edges live under catgraph
    "//attribute::comment()",  # attribute axis can't yield comments
    "//person[address/planet]",  # predicate path can never match
    "//person[false()]",  # constant-false predicate
    "//price[3 < 2]",  # constant-false comparison
    "//person[0]",  # position 0 never exists
    "//city | //nosuchtag/other",  # union with one dead branch is dead only if both are
]


def _unsat(query: str) -> bool:
    return not analyze(parse_xpath(query), xmark_schema()).satisfiable


class TestXmarkSchemaVerdicts:
    @pytest.mark.parametrize("query", UNSAT_QUERIES[:-1])
    def test_statically_empty_queries_are_flagged(self, query):
        assert _unsat(query), query

    def test_union_is_dead_only_when_every_branch_is(self):
        assert not _unsat("//city | //nosuchtag/other")
        assert _unsat("//nosuchtag | //person/person")

    @pytest.mark.parametrize("query", list(PAPER_QUERIES.values()))
    def test_paper_benchmark_queries_are_never_misclassified(self, query):
        report = analyze(parse_xpath(query), xmark_schema())
        assert report.satisfiable, f"{query}: {report.reasons}"

    def test_reasons_name_the_failing_step(self):
        report = analyze(parse_xpath("//nosuchtag"), xmark_schema())
        assert not report.satisfiable
        assert any("nosuchtag" in reason for reason in report.reasons)

    def test_comment_and_pi_kinds_are_never_pruned(self):
        for query in ("//comment()", "//processing-instruction()",
                      "/site/comment()", "//person//text()"):
            report = analyze(parse_xpath(query), xmark_schema())
            assert report.satisfiable, query

    def test_not_predicates_are_never_pruned(self):
        assert not _unsat("//person[not(address)]")


class TestNamesOnlyFallback:
    def test_unknown_names_still_prune(self):
        schema = names_only_schema({"a", "b"}, {"id"})
        assert not analyze(parse_xpath("//c"), schema).satisfiable
        assert not analyze(parse_xpath("//a/@missing"), schema).satisfiable

    def test_structure_is_never_assumed(self):
        # A names-only schema knows nothing about nesting: any chain of
        # known names must stay satisfiable.
        schema = names_only_schema({"a", "b"}, {"id"})
        for query in ("//a/a", "//b/a/b", "//a/@id", "//a/ancestor::b"):
            assert analyze(parse_xpath(query), schema).satisfiable, query


class TestSchemaMatchesGenerator:
    """The vocabulary schema graph must stay in lockstep with the generator."""

    def test_every_generated_edge_is_in_the_schema(self, xmark_dom):
        children = vocabulary.SCHEMA_CHILDREN
        attributes = vocabulary.SCHEMA_ATTRIBUTES
        for node in xmark_dom.all_nodes():
            if node.kind is not NodeKind.ELEMENT:
                continue
            assert node.name in children, f"element <{node.name}> not in schema"
            for child in node.child_elements():
                assert child.name in children[node.name], (
                    f"<{node.name}> -> <{child.name}> missing from SCHEMA_CHILDREN"
                )
            for attribute in node.attributes:
                assert attribute.name in attributes.get(node.name, ()), (
                    f"@{attribute.name} on <{node.name}> missing from "
                    "SCHEMA_ATTRIBUTES"
                )

    def test_root_element_matches(self, xmark_dom):
        assert xmark_dom.document_element.name == vocabulary.SCHEMA_ROOT


class TestEngineShortCircuit:
    def test_statically_empty_query_returns_empty(self, xmark_store):
        engine = VamanaEngine(xmark_store)
        result = engine.evaluate("//nosuchtag")
        assert len(result) == 0
        assert result.metrics.counters.get("static_empty") == 1

    def test_short_circuit_reads_no_pages(self, xmark_store):
        engine = VamanaEngine(xmark_store)
        # Warm the schema cache (resolving it costs a bounded number of
        # index seeks); the verdict itself must then be I/O-free.
        engine.schema()
        before = xmark_store.io_snapshot()
        result = engine.evaluate("//person/person/address")
        after = xmark_store.io_snapshot()
        assert len(result) == 0
        assert result.metrics.counters.get("static_empty") == 1
        assert after["pages_read"] == before["pages_read"]
        assert after["logical_reads"] == before["logical_reads"]
        assert after["record_fetches"] == before["record_fetches"]

    @pytest.mark.parametrize("query", list(PAPER_QUERIES.values()))
    def test_paper_queries_unaffected_by_static_check(self, xmark_store, query):
        checked = VamanaEngine(xmark_store)
        unchecked = VamanaEngine(xmark_store, static_check=False)
        checked_result = checked.evaluate(query)
        assert checked.satisfiability(query).satisfiable
        assert checked_result.metrics.counters.get("static_empty") is None
        assert checked_result.key_set() == unchecked.evaluate(query).key_set()

    def test_opt_out_runs_the_query_normally(self, xmark_store):
        engine = VamanaEngine(xmark_store, static_check=False)
        result = engine.evaluate("//nosuchtag")
        assert len(result) == 0
        assert result.metrics.counters.get("static_empty") is None

    def test_explicit_context_disables_the_short_circuit(self, xmark_store):
        # Relative paths mean something different from a non-document
        # context; the pre-pass must not misjudge them.
        engine = VamanaEngine(xmark_store)
        people = engine.evaluate("//people")
        assert len(people) == 1
        result = engine.evaluate("person/name", context=people.keys[0])
        assert len(result) > 0

    def test_small_document_keeps_comments_and_pis(self, small_store):
        # SMALL_DOC is XMark-shaped (site root, vocabulary names) but
        # contains a comment and a processing instruction: the exhaustive
        # schema must not prune them away.
        engine = VamanaEngine(small_store)
        assert len(engine.evaluate("//comment()")) == 1
        assert len(engine.evaluate("//processing-instruction()")) == 1
        assert len(engine.evaluate("/site/people/person/name")) == 3

    def test_non_xmark_store_falls_back_to_names_only(self):
        store = load_xml("<library><shelf><book/><book/></shelf></library>")
        engine = VamanaEngine(store)
        assert not engine.schema().exhaustive
        assert len(engine.evaluate("//nosuchtag")) == 0
        assert engine.evaluate("//nosuchtag").metrics.counters.get("static_empty") == 1
        # Structurally impossible but name-known: must execute, not prune.
        result = engine.evaluate("//book/shelf")
        assert len(result) == 0
        assert result.metrics.counters.get("static_empty") is None

    def test_schema_cache_tracks_store_epoch(self):
        store = load_xml("<library><shelf><book/></shelf></library>")
        engine = VamanaEngine(store)
        assert not engine.satisfiability("//pamphlet").satisfiable
        shelf = next(iter(engine.evaluate("//shelf")))
        store.insert_element(shelf, "pamphlet")
        assert engine.satisfiability("//pamphlet").satisfiable
        assert len(engine.evaluate("//pamphlet")) == 1


class TestAnalyzerInternals:
    def test_descendant_closure_is_memoized_and_complete(self):
        analyzer = SatisfiabilityAnalyzer(xmark_schema())
        reachable = analyzer._descendant_closure("site")
        assert "province" in reachable and "price" in reachable
        assert analyzer._descendant_closure("site") is reachable

    def test_value_expressions_are_trivially_satisfiable(self):
        analyzer = SatisfiabilityAnalyzer(xmark_schema())
        assert analyzer.analyze(parse_xpath("count(//person)")).satisfiable
        assert analyzer.analyze(parse_xpath("1 + 1")).satisfiable
