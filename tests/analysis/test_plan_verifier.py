"""The static plan verifier: property inference and structural invariants."""

from __future__ import annotations

import pytest

from repro.errors import PlanInvariantError
from repro.model import Axis, NodeTest
from repro.algebra.builder import build_default_plan
from repro.algebra.plan import (
    ExistsNode,
    PlanNode,
    QueryPlan,
    RootNode,
    StepNode,
    UnionNode,
)
from repro.analysis.plan_verifier import (
    DOCUMENT_ORDER,
    REVERSE_ORDER,
    UNORDERED,
    PlanVerifier,
    describe_properties,
    infer_properties,
    step_statically_empty,
    verify_plan,
)


def _plan(root: RootNode, expression: str = "test") -> QueryPlan:
    plan = QueryPlan(root, expression)
    plan.renumber()
    return plan


class TestPropertyInference:
    def test_forward_leaf_step_is_document_ordered_and_distinct(self):
        step = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        plan = _plan(RootNode(step))
        props = infer_properties(plan)
        assert props[step.op_id].ordering == DOCUMENT_ORDER
        assert props[step.op_id].distinct

    def test_reverse_leaf_step_reports_reverse_order(self):
        step = StepNode(Axis.ANCESTOR, NodeTest.name_test("person"))
        plan = _plan(RootNode(step, distinct=False))
        props = infer_properties(plan)
        assert props[step.op_id].ordering == REVERSE_ORDER

    def test_chained_step_loses_order_and_distinctness(self):
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        outer = StepNode(Axis.CHILD, NodeTest.name_test("address"), inner)
        plan = _plan(RootNode(outer, distinct=False))
        props = infer_properties(plan)
        assert props[outer.op_id].ordering == UNORDERED
        assert not props[outer.op_id].distinct

    def test_distinct_root_restores_order_and_distinctness(self):
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        outer = StepNode(Axis.CHILD, NodeTest.name_test("address"), inner)
        root = RootNode(outer, distinct=True)
        plan = _plan(root)
        props = infer_properties(plan)
        assert props[root.op_id].ordering == DOCUMENT_ORDER
        assert props[root.op_id].distinct

    def test_self_axis_is_a_pure_filter(self):
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("name"))
        selferize = StepNode(Axis.SELF, NodeTest.name_test("name"), inner)
        plan = _plan(RootNode(selferize, distinct=False))
        props = infer_properties(plan)
        assert props[selferize.op_id].ordering == DOCUMENT_ORDER
        assert props[selferize.op_id].distinct

    def test_union_output_is_ordered_and_distinct(self):
        union = UnionNode(
            [
                StepNode(Axis.DESCENDANT, NodeTest.name_test("person")),
                StepNode(Axis.DESCENDANT, NodeTest.name_test("item")),
            ]
        )
        plan = _plan(RootNode(union, distinct=False))
        props = infer_properties(plan)
        assert props[union.op_id].ordering == DOCUMENT_ORDER
        assert props[union.op_id].distinct

    def test_attribute_axis_with_text_test_is_statically_empty(self):
        assert step_statically_empty(Axis.ATTRIBUTE, NodeTest.text())
        assert step_statically_empty(Axis.ATTRIBUTE, NodeTest.comment())
        assert not step_statically_empty(Axis.ATTRIBUTE, NodeTest.name_test("id"))
        assert not step_statically_empty(Axis.CHILD, NodeTest.text())
        step = StepNode(Axis.ATTRIBUTE, NodeTest.text())
        plan = _plan(RootNode(step))
        props = infer_properties(plan)
        assert props[step.op_id].statically_empty

    def test_predicate_paths_are_context_dependent(self):
        probe = StepNode(Axis.CHILD, NodeTest.name_test("watch"))
        carrier = StepNode(Axis.DESCENDANT, NodeTest.name_test("watches"))
        carrier.predicates = [ExistsNode(probe)]
        plan = _plan(RootNode(carrier))
        props = infer_properties(plan)
        assert props[probe.op_id].context_dependent

    def test_every_compiled_paper_query_is_guard_threaded(self):
        from repro.bench.corpus import PAPER_QUERIES

        for query in PAPER_QUERIES.values():
            plan = build_default_plan(query)
            for props in infer_properties(plan).values():
                assert props.guard_threaded

    def test_describe_properties_mentions_every_operator(self):
        plan = build_default_plan("//person/address")
        text = describe_properties(plan)
        for node in plan.walk():
            if isinstance(node, PlanNode):
                assert node.describe() in text


class TestStructuralInvariants:
    def test_default_plans_verify_clean(self):
        from repro.bench.corpus import PAPER_QUERIES

        verifier = PlanVerifier()
        for query in PAPER_QUERIES.values():
            assert verifier.violations(build_default_plan(query)) == []

    def test_aliased_operator_is_detected(self):
        shared = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        union = UnionNode([shared, shared])
        plan = _plan(RootNode(union))
        problems = PlanVerifier().violations(plan)
        assert any("shared by 2 parents" in problem for problem in problems)

    def test_cyclic_plan_is_detected_without_hanging(self):
        step = StepNode(Axis.CHILD, NodeTest.name_test("a"))
        root = RootNode(step)
        step.context_child = root  # malformed: cycle back to the root
        plan = QueryPlan(root, "cycle")
        problems = PlanVerifier().violations(plan)
        assert any("cycle" in problem for problem in problems)

    def test_duplicate_operator_ids_are_detected(self):
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        outer = StepNode(Axis.CHILD, NodeTest.name_test("address"), inner)
        plan = _plan(RootNode(outer))
        inner.op_id = outer.op_id  # dangling id after a sloppy rewrite
        problems = PlanVerifier().violations(plan)
        assert any("duplicate operator id" in problem for problem in problems)

    def test_nested_root_node_is_detected(self):
        nested = RootNode(StepNode(Axis.CHILD, NodeTest.name_test("a")))
        outer = StepNode(Axis.DESCENDANT, NodeTest.name_test("b"), nested)
        plan = _plan(RootNode(outer))
        problems = PlanVerifier().violations(plan)
        assert any("nested RootNode" in problem for problem in problems)

    def test_unknown_operator_type_breaks_guard_threading(self):
        class MysteryNode(PlanNode):
            def symbol(self) -> str:
                return "?"

            def clone(self):
                return self._clone_shared(MysteryNode())

        plan = _plan(RootNode(MysteryNode()))
        problems = PlanVerifier().violations(plan)
        assert any("guard threading" in problem for problem in problems)
        with pytest.raises(PlanInvariantError):
            verify_plan(plan)

    def test_verify_raises_with_all_violations_collected(self):
        shared = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        plan = _plan(RootNode(UnionNode([shared, shared])))
        with pytest.raises(PlanInvariantError) as caught:
            PlanVerifier().verify(plan, rule="test-rule")
        assert caught.value.rule == "test-rule"
        assert caught.value.violations


class TestRewriteGate:
    def test_identical_clone_passes(self):
        plan = build_default_plan("//person/address")
        PlanVerifier().check_rewrite(plan, plan.clone(), "noop")

    def test_distinct_flag_change_is_rejected(self):
        plan = build_default_plan("//person/address")
        broken = plan.clone()
        broken.root.distinct = False
        with pytest.raises(PlanInvariantError) as caught:
            PlanVerifier().check_rewrite(plan, broken, "flag-dropper")
        assert "duplicate-elimination flag" in str(caught.value)
        assert caught.value.rule == "flag-dropper"

    def test_order_regression_under_nondistinct_root_is_rejected(self):
        leaf = StepNode(Axis.DESCENDANT, NodeTest.name_test("address"))
        plan = _plan(RootNode(leaf, distinct=False))
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        chained = StepNode(Axis.CHILD, NodeTest.name_test("address"), inner)
        rewritten = _plan(RootNode(chained, distinct=False))
        with pytest.raises(PlanInvariantError) as caught:
            PlanVerifier().check_rewrite(plan, rewritten, "order-breaker")
        assert "ordering regressed" in str(caught.value)

    def test_same_rewrite_is_fine_under_distinct_root(self):
        leaf = StepNode(Axis.DESCENDANT, NodeTest.name_test("address"))
        plan = _plan(RootNode(leaf, distinct=True))
        inner = StepNode(Axis.DESCENDANT, NodeTest.name_test("person"))
        chained = StepNode(Axis.CHILD, NodeTest.name_test("address"), inner)
        rewritten = _plan(RootNode(chained, distinct=True))
        PlanVerifier().check_rewrite(plan, rewritten, "ok")

    def test_new_statically_empty_step_is_rejected(self):
        plan = _plan(RootNode(StepNode(Axis.DESCENDANT, NodeTest.name_test("a"))))
        bad_leaf = StepNode(Axis.ATTRIBUTE, NodeTest.text())
        rewritten = _plan(RootNode(bad_leaf))
        with pytest.raises(PlanInvariantError) as caught:
            PlanVerifier().check_rewrite(plan, rewritten, "empty-maker")
        assert "statically-empty" in str(caught.value)
