"""The INITIAL / FETCHING / OUT_OF_TUPLES protocol (Section VII).

These tests observe the state machine directly, including the execution
walk-through of Figure 11 (context propagation through nested exist
predicates on the optimized Q1 plan).
"""

from __future__ import annotations

import pytest

from repro.mass.flexkey import FlexKey
from repro.mass.loader import load_xml
from repro.algebra.builder import build_default_plan
from repro.algebra.execution import (
    OperatorState,
    RootOperator,
    StepOperator,
    UnionOperator,
    ValueStepOperator,
    build_operators,
)


@pytest.fixture
def store():
    return load_xml(
        "<site><person><name>Ada</name><address/></person>"
        "<person><name>Bob</name></person></site>"
    )


def operator_for(store, expression):
    plan = build_default_plan(expression)
    return build_operators(store, plan.root)


class TestStateTransitions:
    def test_initial_before_first_request(self, store):
        operator = operator_for(store, "//person")
        operator.reset(FlexKey.document())
        assert operator.state is OperatorState.INITIAL
        assert operator.child.state is OperatorState.INITIAL

    def test_fetching_while_tuples_remain(self, store):
        operator = operator_for(store, "//person")
        operator.reset(FlexKey.document())
        assert operator.next_block(1)
        assert operator.state is OperatorState.FETCHING
        assert operator.child.state is OperatorState.FETCHING

    def test_out_of_tuples_at_exhaustion(self, store):
        operator = operator_for(store, "//person")
        operator.reset(FlexKey.document())
        while operator.next_block(1):
            pass
        assert operator.state is OperatorState.OUT_OF_TUPLES
        assert operator.child.state is OperatorState.OUT_OF_TUPLES

    def test_out_of_tuples_is_sticky(self, store):
        operator = operator_for(store, "//person")
        operator.reset(FlexKey.document())
        list(operator.iterate())
        assert operator.next_block(1) == []
        assert operator.next_block(1) == []

    def test_reset_rearms(self, store):
        operator = operator_for(store, "//person")
        operator.reset(FlexKey.document())
        first_run = list(operator.iterate())
        operator.reset(FlexKey.document())
        assert operator.state is OperatorState.INITIAL
        assert list(operator.iterate()) == first_run

    def test_empty_result_goes_straight_out(self, store):
        operator = operator_for(store, "//missing")
        operator.reset(FlexKey.document())
        assert operator.next_block(1) == []
        assert operator.state is OperatorState.OUT_OF_TUPLES

    def test_non_leaf_pulls_context_on_demand(self, store):
        """Algorithm 2: the upper step requests one context at a time."""
        operator = operator_for(store, "//person/name")
        operator.reset(FlexKey.document())
        step = operator.child  # name step
        leaf = step.context_child  # person step
        assert leaf.state is OperatorState.INITIAL
        first = operator.next_block(1)
        assert first
        assert leaf.state is OperatorState.FETCHING
        # person leaf must not be exhausted after the first name
        assert leaf.state is not OperatorState.OUT_OF_TUPLES


class TestOperatorKinds:
    def test_tree_shape(self, store):
        operator = operator_for(store, "//person/name")
        assert isinstance(operator, RootOperator)
        assert isinstance(operator.child, StepOperator)
        assert isinstance(operator.child.context_child, StepOperator)

    def test_union_operator(self, store):
        operator = operator_for(store, "//name | //address")
        assert isinstance(operator.child, UnionOperator)
        operator.reset(FlexKey.document())
        assert len(list(operator.iterate())) == 3

    def test_value_step_operator(self, store):
        from repro.algebra.plan import QueryPlan, RootNode, StepNode, ValueStepNode
        from repro.model import Axis, NodeTest

        value_leaf = ValueStepNode("Ada")
        parent_step = StepNode(Axis.PARENT, NodeTest.name_test("name"), value_leaf)
        plan = QueryPlan(RootNode(parent_step), "manual")
        plan.renumber()
        operator = build_operators(store, plan.root)
        operator.reset(FlexKey.document())
        results = list(operator.iterate())
        assert len(results) == 1
        assert store.require(results[0]).name == "name"

    def test_value_step_states(self, store):
        operator = ValueStepOperator(store, "Ada", [])
        operator.reset(FlexKey.document())
        assert operator.state is OperatorState.INITIAL
        assert operator.next_block(1)
        assert operator.state is OperatorState.FETCHING
        assert operator.next_block(1) == []
        assert operator.state is OperatorState.OUT_OF_TUPLES

    def test_value_step_unarmed_without_context(self, store):
        operator = ValueStepOperator(store, "Ada", [])
        operator.reset(None)
        assert operator.next_block(1) == []


class TestFigure11Walkthrough:
    """Execution of the optimized Q1 plan over the Figure 10 fragment."""

    DOC = """<site><person id="person144">
    <name>Yung Flach</name>
    <emailaddress>Flach@auth.gr</emailaddress>
    <address><street>92 Pfisterer St</street><city>Monroe</city>
    <country>United States</country><zipcode>12</zipcode></address>
    <watches><watch open_auction="oa108"/><watch open_auction="oa94"/></watches>
    </person><person id="person145"><phone>1</phone></person></site>"""

    def test_optimized_plan_returns_the_address(self):
        store = load_xml(self.DOC)
        # //address[parent::person[child::name]] — the Figure 11 plan.
        plan = build_default_plan("//address[parent::person[child::name]]")
        operator = build_operators(store, plan.root)
        operator.reset(FlexKey.document())
        results = list(operator.iterate())
        assert len(results) == 1
        address = store.require(results[0])
        assert address.name == "address"
        # the FLEX rendering of the walk-through: person at depth 2,
        # address its third content child (after @id, name, emailaddress)
        assert address.key.parent().depth == 2

    def test_predicate_context_is_per_candidate(self):
        store = load_xml(self.DOC)
        plan = build_default_plan("//person[address]")
        operator = build_operators(store, plan.root)
        operator.reset(FlexKey.document())
        results = [store.require(key) for key in operator.iterate()]
        assert len(results) == 1
        assert results[0].name == "person"

    def test_equivalent_to_original_q1(self):
        store = load_xml(self.DOC)
        original = build_default_plan("//person/address")
        optimized = build_default_plan("//address[parent::person]")
        run = lambda plan: sorted(set(build_and_run(store, plan)))
        assert run(original) == run(optimized)


def build_and_run(store, plan):
    operator = build_operators(store, plan.root)
    operator.reset(FlexKey.document())
    return list(operator.iterate())
