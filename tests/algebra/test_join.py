"""The join operator ``J^cond`` (paper Section V-C, operator 6)."""

from __future__ import annotations

import pytest

from repro.mass.flexkey import FlexKey
from repro.mass.loader import load_xml
from repro.algebra.builder import build_default_plan
from repro.algebra.execution import OperatorState, build_operators
from repro.algebra.plan import JoinNode, QueryPlan, RootNode
from repro.cost.estimator import CostEstimator


@pytest.fixture
def store():
    return load_xml(
        """<site>
        <people>
          <person><id>p0</id><name>Ada</name></person>
          <person><id>p1</id><name>Bob</name></person>
        </people>
        <auctions>
          <auction><seller>p0</seller></auction>
          <auction><seller>p1</seller></auction>
          <auction><seller>p9</seller></auction>
        </auctions>
        </site>"""
    )


def join_plan(left_query: str, right_query: str, condition: str) -> QueryPlan:
    left = build_default_plan(left_query).root.context_child
    right = build_default_plan(right_query).root.context_child
    plan = QueryPlan(RootNode(JoinNode(left, right, condition)), "join")
    plan.renumber()
    return plan


def run(store, plan):
    operator = build_operators(store, plan.root)
    operator.reset(FlexKey.document())
    return [store.require(key) for key in operator.iterate()]


class TestValueEquality:
    def test_idref_style_join(self, store):
        """sellers whose value matches an existing person id."""
        plan = join_plan("//person/id", "//auction/seller", "value-eq")
        sellers = run(store, plan)
        assert [store.string_value(record.key) for record in sellers] == ["p0", "p1"]

    def test_no_matches(self, store):
        plan = join_plan("//person/name", "//auction/seller", "value-eq")
        assert run(store, plan) == []

    def test_empty_left_side(self, store):
        plan = join_plan("//missing", "//auction/seller", "value-eq")
        assert run(store, plan) == []


class TestStructuralConditions:
    def test_ancestor_join(self, store):
        plan = join_plan("//people", "//name", "ancestor")
        names = run(store, plan)
        assert len(names) == 2

    def test_ancestor_join_excludes_outside(self, store):
        plan = join_plan("//auctions", "//name", "ancestor")
        assert run(store, plan) == []

    def test_precedes_join(self, store):
        plan = join_plan("//people", "//auction", "precedes")
        assert len(run(store, plan)) == 3

    def test_precedes_excludes_own_subtree(self, store):
        plan = join_plan("//people", "//person", "precedes")
        assert run(store, plan) == []


class TestJoinPlumbing:
    def test_invalid_condition_rejected(self, store):
        left = build_default_plan("//person").root.context_child
        right = build_default_plan("//auction").root.context_child
        with pytest.raises(ValueError):
            JoinNode(left, right, "theta")

    def test_states(self, store):
        plan = join_plan("//person/id", "//auction/seller", "value-eq")
        operator = build_operators(store, plan.root).child
        operator.reset(FlexKey.document())
        assert operator.state is OperatorState.INITIAL
        assert operator.next_block(1)
        assert operator.state is OperatorState.FETCHING
        list(operator.iterate())
        assert operator.state is OperatorState.OUT_OF_TUPLES

    def test_clone(self, store):
        plan = join_plan("//person/id", "//auction/seller", "value-eq")
        copy = plan.clone()
        assert copy.explain(costs=False) == plan.explain(costs=False)

    def test_cost_estimation(self, store):
        plan = join_plan("//person/id", "//auction/seller", "value-eq")
        CostEstimator(store).estimate(plan)
        join = plan.root.context_child
        assert join.cost.tuples_in == 5  # 2 ids + 3 sellers
        assert join.cost.tuples_out == 3  # bounded by the right side

    def test_explain_symbol(self, store):
        plan = join_plan("//person/id", "//auction/seller", "value-eq")
        assert "J_" in plan.explain(costs=False)
