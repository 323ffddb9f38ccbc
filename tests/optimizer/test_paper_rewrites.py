"""The paper's worked optimizations (Figures 8, 9, 11 and the Q2 rewrite),
checked end-to-end on the calibrated document."""

from __future__ import annotations

import pytest

from repro.model import Axis
from repro.algebra.builder import build_default_plan
from repro.algebra.execution import execute_plan
from repro.algebra.plan import ExistsNode, StepNode, ValueStepNode
from repro.optimizer.optimizer import optimize_plan


def chain(plan):
    nodes = []
    node = plan.root.context_child
    while node is not None:
        nodes.append(node)
        node = node.context_child
    return nodes


class TestQ1Sequence:
    """Section VI-C.1: reverse-axis first, then push-down of child::address,
    ending at the Figure 11 plan //address[parent::person[child::name]]."""

    QUERY = "/descendant::name/parent::*/self::person/address"

    @pytest.fixture(scope="class")
    def outcome(self, paper_store):
        plan = build_default_plan(self.QUERY)
        return optimize_plan(plan, paper_store)

    def test_rule_sequence(self, outcome):
        _plan, trace = outcome
        assert [entry.rule for entry in trace.entries] == [
            "reverse-axis",
            "predicate-pushdown",
        ]

    def test_final_shape_is_figure11(self, outcome):
        plan, _trace = outcome
        steps = chain(plan)
        assert len(steps) == 1
        address = steps[0]
        assert address.axis is Axis.DESCENDANT and address.test.name == "address"
        outer = address.predicates[0]
        assert isinstance(outer, ExistsNode)
        person = outer.path
        assert person.axis is Axis.PARENT and person.test.name == "person"
        inner = person.predicates[0]
        assert isinstance(inner, ExistsNode)
        assert inner.path.axis is Axis.CHILD and inner.path.test.name == "name"

    def test_results_equal_default(self, paper_store, outcome):
        plan, _trace = outcome
        default = build_default_plan(self.QUERY)
        assert sorted(set(execute_plan(default, paper_store))) == sorted(
            set(execute_plan(plan, paper_store))
        )

    def test_result_cardinality(self, paper_store, outcome):
        plan, _trace = outcome
        assert len(set(execute_plan(plan, paper_store))) == 1256

    def test_fetch_reduction_claim(self, paper_store, outcome):
        """Section VIII: the optimized Q1 'reduces cost by at least 40%'.

        Measured as index work (page touches + entries scanned), the
        optimized plan must cut at least 40% versus the default plan.
        """
        plan, _trace = outcome
        default = build_default_plan(self.QUERY)

        def work(p):
            paper_store.reset_metrics()
            list(execute_plan(p, paper_store))
            snapshot = paper_store.io_snapshot()
            return snapshot["logical_reads"] + snapshot["entries_scanned"]

        assert work(plan) <= 0.6 * work(default)


class TestQ1FetchReduction:
    """Section VIII on the benchmark form of Q1: 2550 persons against 1256
    addresses, so ``//address[parent::person]`` does about half the index
    work of ``//person/address``.  The parent check is a name-index probe
    that resumes from the predicate sub-plan's cursor; without either, the
    rewrite costs *more* than the default plan's cursor-driven merge."""

    QUERY = "//person/address"

    def test_work_cut_and_no_record_fetches(self, paper_store):
        default = build_default_plan(self.QUERY)
        plan, _trace = optimize_plan(build_default_plan(self.QUERY), paper_store)
        address = chain(plan)[0]
        assert address.test.name == "address"
        assert address.predicates[0].path.axis is Axis.PARENT

        def run(p):
            paper_store.reset_metrics()
            count = len(list(execute_plan(p, paper_store)))
            return count, paper_store.io_snapshot()

        default_count, default_io = run(default)
        count, io = run(plan)
        assert count == default_count == 1256
        work = io["logical_reads"] + io["entries_scanned"]
        default_work = default_io["logical_reads"] + default_io["entries_scanned"]
        assert work <= 0.6 * default_work, (work, default_work)
        assert io["record_fetches"] == 0
        # One descent per index touched, not one per candidate address.
        assert io["root_descents"] <= 4
        assert io["cursor_resumes"] >= count - 4


class TestQ2ValueIndex:
    """Figure 9: //name[text()='Yung Flach'] becomes a value-index probe."""

    QUERY = "//name[text() = 'Yung Flach']/following-sibling::emailaddress"

    @pytest.fixture(scope="class")
    def outcome(self, paper_store):
        return optimize_plan(build_default_plan(self.QUERY), paper_store)

    def test_value_index_rule_fired(self, outcome):
        _plan, trace = outcome
        assert trace.entries[0].rule == "value-index"

    def test_final_shape_is_figure9b(self, outcome):
        plan, _trace = outcome
        steps = chain(plan)
        assert [type(step).__name__ for step in steps] == [
            "StepNode",
            "StepNode",
            "ValueStepNode",
        ]
        sibling, name, value = steps
        assert sibling.axis is Axis.FOLLOWING_SIBLING
        assert name.axis is Axis.PARENT and name.test.name == "name"
        assert isinstance(value, ValueStepNode) and value.value == "Yung Flach"

    def test_exactly_one_result(self, paper_store, outcome):
        plan, _trace = outcome
        assert len(set(execute_plan(plan, paper_store))) == 1

    def test_touches_a_fraction_of_the_names(self, paper_store, outcome):
        """4825 names exist; the optimized plan must touch only a handful of
        index entries (TC = 1)."""
        plan, _trace = outcome
        paper_store.reset_metrics()
        list(execute_plan(plan, paper_store))
        snapshot = paper_store.io_snapshot()
        assert snapshot["entries_scanned"] < 100


class TestQ2DuplicateElimination:
    """Section VIII: //watches/watch/ancestor::person →
    //watches[watch]/ancestor::person (as ancestor-or-self)."""

    QUERY = "//watches/watch/ancestor::person"

    @pytest.fixture(scope="class")
    def outcome(self, paper_store):
        return optimize_plan(build_default_plan(self.QUERY), paper_store)

    def test_rule_fired(self, outcome):
        _plan, trace = outcome
        assert "duplicate-elimination" in [entry.rule for entry in trace.entries]

    def test_shape(self, outcome):
        plan, _trace = outcome
        steps = chain(plan)
        ancestor = steps[0]
        assert ancestor.axis is Axis.ANCESTOR_OR_SELF
        carrier = steps[-1]
        assert carrier.test.name == "watches"
        assert any(isinstance(p, ExistsNode) for p in carrier.predicates)

    def test_results_equal_default(self, paper_store, outcome):
        plan, _trace = outcome
        default = build_default_plan(self.QUERY)
        assert sorted(set(execute_plan(default, paper_store))) == sorted(
            set(execute_plan(plan, paper_store))
        )

    def test_pipeline_emits_fewer_tuples(self, paper_store, outcome):
        """The rewrite's point: one tuple per watches, not per watch."""
        plan, _trace = outcome
        default = build_default_plan(self.QUERY)
        raw_default = len(list(execute_plan(default, paper_store)))
        raw_optimized = len(list(execute_plan(plan, paper_store)))
        assert raw_optimized < raw_default


class TestQ5Vermont:
    QUERY = "//province[text()='Vermont']/ancestor::person"

    def test_value_rewrite_and_results(self, paper_store):
        plan, trace = optimize_plan(build_default_plan(self.QUERY), paper_store)
        assert trace.entries and trace.entries[0].rule == "value-index"
        default = build_default_plan(self.QUERY)
        expected = sorted(set(execute_plan(default, paper_store)))
        assert sorted(set(execute_plan(plan, paper_store))) == expected
        assert len(expected) == paper_store.text_count("Vermont")
