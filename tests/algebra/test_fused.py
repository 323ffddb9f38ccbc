"""Whole-query compilation: the FusedPathScan automaton, rule, and operator.

Covers the three layers of the fusion stack separately:

* :class:`PathAutomaton` construction — the per-kind transition bitmasks
  compiled from a step chain (name tests, ``*``, kind tests, the
  child/descendant/self axis split);
* :class:`PathFusionRule` matching — which chains fuse, which are left
  untouched (predicates, reverse axes, short chains, non-distinct roots),
  and that the rewrite preserves step order;
* end-to-end equivalence — the default engine (fusion rule enabled)
  returns byte-identical key sequences to an engine whose ``rules`` omit
  :class:`PathFusionRule`, under guards, across store mutations, and
  through the ``count()`` fast path.
"""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.mass.loader import load_xml
from repro.mass.records import NodeKind
from repro.model import Axis, NodeTest
from repro.engine.engine import VamanaEngine
from repro.algebra.builder import build_default_plan
from repro.algebra.fused import (
    FusedPathScanOperator,
    PathAutomaton,
    compile_steps,
)
from repro.algebra.plan import FusedPathScanNode, StepNode
from repro.analysis.plan_verifier import verify_plan
from repro.optimizer.cleanup import cleanup_plan
from repro.optimizer.rules import DEFAULT_RULES, PathFusionRule
from repro.xmark.generator import generate_document

DOC = """<site><people>
<person id="p0"><name>Ada</name><address><city>w</city></address></person>
<person id="p1"><name>Bob</name></person>
</people>
<regions><namerica><item><name>thing</name></item></namerica></regions>
</site>"""


@pytest.fixture
def store():
    return load_xml(DOC, name="fused")


def _name(name: str) -> NodeTest:
    return NodeTest.name_test(name)


class TestAutomatonConstruction:
    def test_child_chain_name_tests(self):
        auto = compile_steps([(Axis.CHILD, _name("people")),
                              (Axis.CHILD, _name("person"))])
        assert auto.state_count == 3
        assert auto.accept == 0b100
        assert auto.child_mask == 0b11
        assert auto.desc_mask == 0
        assert auto.closure_mask == 0
        assert auto.element_masks == {"people": 0b01, "person": 0b10}
        assert auto.element_default == 0  # a name test matches nothing else
        assert auto.text_mask == 0

    def test_star_matches_any_element(self):
        auto = compile_steps([(Axis.CHILD, NodeTest.name_test("*"))])
        assert auto.element_default == 0b1
        assert auto.match_mask(NodeKind.ELEMENT, "anything") == 0b1
        assert auto.match_mask(NodeKind.TEXT, "") == 0

    def test_node_test_matches_every_scanned_kind(self):
        auto = compile_steps([(Axis.DESCENDANT, NodeTest.node())])
        assert auto.desc_mask == 0b1
        for kind in (NodeKind.ELEMENT, NodeKind.TEXT, NodeKind.COMMENT,
                     NodeKind.PROCESSING_INSTRUCTION):
            assert auto.match_mask(kind, "x") == 0b1

    def test_text_and_comment_tests(self):
        auto = compile_steps([(Axis.CHILD, NodeTest.text()),
                              (Axis.CHILD, NodeTest.comment())])
        assert auto.text_mask == 0b01
        assert auto.comment_mask == 0b10
        assert auto.match_mask(NodeKind.ELEMENT, "text") == 0

    def test_descendant_or_self_sets_both_masks(self):
        auto = compile_steps([(Axis.DESCENDANT_OR_SELF, NodeTest.node()),
                              (Axis.CHILD, _name("person"))])
        assert auto.desc_mask == 0b01
        assert auto.closure_mask == 0b01
        assert auto.child_mask == 0b10

    def test_self_axis_is_closure_only(self):
        auto = compile_steps([(Axis.CHILD, _name("person")),
                              (Axis.SELF, NodeTest.name_test("*"))])
        assert auto.closure_mask == 0b10
        assert auto.desc_mask == 0
        assert auto.child_mask == 0b01

    def test_attribute_entries_never_match(self):
        auto = compile_steps([(Axis.DESCENDANT, NodeTest.node())])
        assert auto.match_mask(NodeKind.ATTRIBUTE, "id") == 0
        assert auto.match_mask(NodeKind.NAMESPACE, "ns") == 0

    def test_reverse_axis_is_rejected(self):
        with pytest.raises(PlanError):
            compile_steps([(Axis.PARENT, NodeTest.node())])

    def test_empty_chain_is_rejected(self):
        with pytest.raises(PlanError):
            compile_steps([])

    def test_closure_saturates_repeated_or_self_steps(self):
        # //node()//node(): one element node satisfies both steps at once.
        auto = compile_steps([
            (Axis.DESCENDANT_OR_SELF, NodeTest.node()),
            (Axis.DESCENDANT_OR_SELF, NodeTest.node()),
        ])
        states = auto.advance(0b01, NodeKind.ELEMENT, "site")
        assert states & auto.accept


def _fusion_sites(expression: str):
    rule = PathFusionRule()
    plan = build_default_plan(expression)
    cleanup_plan(plan)
    sites = [node for node in plan.walk() if rule.matches(plan, node)]
    return plan, rule, sites


class TestRuleMatching:
    def test_child_chain_matches_once_at_its_top(self):
        plan, _rule, sites = _fusion_sites("//people/person/name")
        assert len(sites) == 1
        assert isinstance(sites[0], StepNode)
        # The matched node is the chain's top operator — the *final*
        # location step, whose context chain reaches the leaf.
        assert sites[0].test == _name("name")

    def test_predicate_breaks_the_chain(self):
        _plan, _rule, sites = _fusion_sites("//people/person[1]/name")
        assert sites == []

    def test_reverse_axis_is_not_fusable(self):
        _plan, _rule, sites = _fusion_sites("//watch/ancestor::person")
        assert sites == []

    def test_single_step_is_not_fused(self):
        _plan, _rule, sites = _fusion_sites("//person")
        assert sites == []

    def test_non_distinct_root_blocks_fusion(self):
        plan, rule, sites = _fusion_sites("//people/person/name")
        assert sites
        plan.root.distinct = False
        assert not any(rule.matches(plan, node) for node in plan.walk())

    def test_apply_preserves_application_order(self):
        plan, rule, sites = _fusion_sites("//people/person/name")
        rule.apply(plan, sites[0])
        fused = [n for n in plan.walk() if isinstance(n, FusedPathScanNode)]
        assert len(fused) == 1
        axes = [axis for axis, _test in fused[0].steps]
        tests = [test for _axis, test in fused[0].steps]
        assert axes == [Axis.DESCENDANT, Axis.CHILD, Axis.CHILD]
        assert tests == [_name("people"), _name("person"), _name("name")]
        verify_plan(plan)

    def test_fused_plan_renders_in_explain(self, store):
        engine = VamanaEngine(store)
        text = engine.explain("//node()//text()", verify=True)
        assert "FPS" in text
        assert "states=" in text


QUERIES = [
    "//people/person/name",
    "//person/name/text()",
    "//people//name",
    "//node()//text()",
    "//node()//node()",
    "//site//node()//text()",
    "/site/people/person",
    "//item//name",
    "//people/person/address/city",
    "/descendant-or-self::node()/child::site/descendant::text()",
    # Regression: a step after a leading // must be able to match a node
    # whose "descendant" witness is the document node itself (the doc
    # node consumes descendant-or-self::node() in place — it is a
    # node()), otherwise top-level matches vanish from the fused scan.
    "//descendant::*/child::person",
    "//descendant::*/child::*/child::person",
    "//descendant::*/descendant::name",
    "//descendant::node()/child::person",
    "//self::node()",
]


UNFUSED_RULES = tuple(
    rule for rule in DEFAULT_RULES if not isinstance(rule, PathFusionRule)
)


def _engine_pair(store):
    """(unfused, fused): the same store with and without the fusion rule."""
    return VamanaEngine(store, rules=UNFUSED_RULES), VamanaEngine(store)


def _keys(engine, query, **kwargs):
    return list(engine.evaluate(query, **kwargs).keys)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def xmark_pair(self):
        store = load_xml(generate_document(0.005, seed=42), name="fused-xmark")
        return _engine_pair(store)

    @pytest.mark.parametrize("query", QUERIES)
    def test_small_doc_parity(self, store, query):
        unfused, fused = _engine_pair(store)
        assert _keys(fused, query) == _keys(unfused, query)

    @pytest.mark.parametrize("query", QUERIES)
    def test_xmark_parity(self, xmark_pair, query):
        unfused, fused = xmark_pair
        assert _keys(fused, query) == _keys(unfused, query)
        # Second evaluation exercises the plan-cache path.
        assert _keys(fused, query) == _keys(unfused, query)

    @pytest.mark.parametrize("query", QUERIES)
    def test_parity_under_guards(self, xmark_pair, query):
        unfused, fused = xmark_pair
        kwargs = {"timeout_ms": 60_000, "max_pages": 50_000_000}
        assert _keys(fused, query, **kwargs) == _keys(unfused, query, **kwargs)

    def test_fused_plans_pass_the_verifier(self, xmark_pair):
        _unfused, fused = xmark_pair
        for query in QUERIES:
            plan, _trace = fused.plan(query)
            verify_plan(plan)

    def test_unfused_engine_never_plans_a_fused_scan(self, xmark_pair):
        unfused, fused = xmark_pair
        plans = [fused.plan(query)[0] for query in QUERIES]
        assert any(
            isinstance(node, FusedPathScanNode) for plan in plans for node in plan.walk()
        )
        for query in QUERIES:
            plan, _trace = unfused.plan(query)
            assert not any(isinstance(n, FusedPathScanNode) for n in plan.walk())


class TestPageBudget:
    def test_budget_smaller_than_the_sweep_trips_within_two_leaves(self):
        """The fused sweep checkpoints once per leaf run, so a page budget
        can be overshot by the leaf in hand and the next — no further."""
        from repro.errors import BudgetExceededError

        store = load_xml(generate_document(0.005, seed=42), name="fused-budget")
        engine = VamanaEngine(store)
        plan, _trace = engine.plan("//node()//text()")
        assert any(isinstance(node, FusedPathScanNode) for node in plan.walk())
        sweep = engine.evaluate("//node()//text()").metrics.logical_reads
        limit = sweep // 3
        with pytest.raises(BudgetExceededError) as excinfo:
            engine.evaluate("//node()//text()", max_pages=limit)
        assert excinfo.value.resource == "page-read"
        assert limit < excinfo.value.used <= limit + 2
        # ... and an abandoned sweep leaves the engine usable.
        assert engine.evaluate("//node()//text()").metrics.logical_reads == sweep


class TestMutationSafety:
    def test_insert_is_visible_to_the_next_fused_query(self, store):
        engine = VamanaEngine(store)
        before = engine.evaluate("//node()//text()")
        site = next(iter(store.node_index.scan(None, None))).key
        store.insert_element(site.child(0), "person", text="Cyd")
        after = engine.evaluate("//node()//text()")
        assert len(after) == len(before) + 1
        assert after.metrics.plan_cache_misses == 1  # epoch bump re-planned

    def test_mid_scan_mutation_does_not_derail_the_cursor(self, store):
        """An insert between blocks bumps the epoch; the pinned cursor
        must revalidate and the scan still terminate in document order."""
        node = FusedPathScanNode([
            (Axis.DESCENDANT, NodeTest.node()),
            (Axis.DESCENDANT, NodeTest.text()),
        ])
        operator = FusedPathScanOperator(store, node, [])
        from repro.mass.flexkey import FlexKey

        operator.reset(FlexKey.document())
        first = operator.next_block(2)
        assert len(first) == 2
        site = next(iter(store.node_index.scan(None, None))).key
        store.insert_element(site.child(0), "person", text="Cyd")
        emitted = list(first)
        while True:
            block = operator.next_block(2)
            emitted.extend(block)
            if len(block) < 2:
                break
        images = [key.sort_bytes for key in emitted]
        assert images == sorted(set(images))  # document order, no duplicates
        fresh = VamanaEngine(store).evaluate("//node()//text()")
        assert set(images) <= {key.sort_bytes for key in fresh.keys}


class TestCountFastPathParity:
    @pytest.mark.parametrize(
        "path",
        [
            "//node()//text()",
            "//people/person/name",
            "//people//name",
            "//site//node()//text()",
        ],
    )
    def test_count_fast_path_is_fusion_blind(self, store, path):
        # count() goes through the expression fast path, which never
        # plans — the fusion rule must not change its answer.
        unfused, fused = _engine_pair(store)
        assert (
            fused.evaluate_value(f"count({path})")
            == unfused.evaluate_value(f"count({path})")
        )

    @pytest.mark.parametrize("path", ["//people/person/name", "//people//name"])
    def test_count_agrees_with_materialized_fused_result(self, store, path):
        # On non-overlapping context chains the fast count is exact and
        # must equal the fused plan's materialized cardinality.
        fused = VamanaEngine(store)
        materialized = float(len(fused.evaluate(path)))
        assert fused.evaluate_value(f"count({path})") == materialized
