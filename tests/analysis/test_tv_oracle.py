"""Differential oracle: DOM-key bridge, mode cross-checks, verifier hookup."""

from __future__ import annotations

import pytest

from repro.mass.loader import load_xml
from repro.model import Axis
from repro.xmlkit.dom import build_dom
from repro.algebra.builder import build_default_plan
from repro.algebra.plan import StepNode
from repro.analysis.plan_verifier import PlanVerifier
from repro.analysis.tv.oracle import (
    DifferentialOracle,
    compare_sequences,
    dom_key_map,
    dom_reference,
    evaluate_plan,
)
from repro.errors import PlanInvariantError
from repro.optimizer.cleanup import cleanup_plan

DOC = """<site><people>
<person id="p0"><name>v</name><address><city>w</city></address></person>
<person id="p1"><name>w</name></person>
</people></site>"""


@pytest.fixture
def store():
    return load_xml(DOC, name="tv-oracle")


@pytest.fixture
def document():
    return build_dom(DOC)


class TestDomKeyBridge:
    def test_every_dom_node_gets_the_loader_key(self, store, document):
        mapping = dom_key_map(document)
        # Walk the DOM: each mapped key must resolve in the store to a
        # record with the same element/attribute name.
        stack = [document.document_node]
        seen = 0
        while stack:
            node = stack.pop()
            record = store.fetch(mapping[id(node)])
            assert record is not None
            if getattr(node, "name", ""):
                assert record.name == node.name
            seen += 1
            stack.extend(node.children)
            stack.extend(node.attributes)
        assert seen == len(mapping)

    def test_reference_matches_engine_result(self, store, document):
        mapping = dom_key_map(document)
        reference = dom_reference("//person/name", document, mapping)
        plan = build_default_plan("//person/name")
        cleanup_plan(plan)
        result = evaluate_plan(plan, store)
        assert compare_sequences("x", result, reference) is None


class TestPlanCrossCheck:
    @pytest.mark.parametrize(
        "expression",
        ["//person", "//person/name", "//people/person[1]",
         "//name | //city", "//city/ancestor::person"],
    )
    def test_identity_obligation_discharges(self, store, document, expression):
        oracle = DifferentialOracle(store, document)
        plan = build_default_plan(expression)
        cleanup_plan(plan)
        assert oracle.discrepancies(plan, plan.clone(), "identity") == []

    def test_injected_divergence_is_reported(self, store, document):
        oracle = DifferentialOracle(store, document)
        before = build_default_plan("//person/name")
        cleanup_plan(before)
        after = before.clone()
        # Corrupt the rewrite: the name step stays on its context node,
        # so the "rewritten" plan returns persons instead of names.
        step = after.root.context_child
        assert isinstance(step, StepNode) and step.axis is Axis.CHILD
        step.axis = Axis.SELF
        problems = oracle.discrepancies(before, after, "corrupted")
        assert problems  # caught without any DOM involvement needed
        assert any("pre vs post" in problem for problem in problems)

    def test_storeless_dom_is_optional(self, store):
        oracle = DifferentialOracle(store)  # no DOM: plans-only mode
        plan = build_default_plan("//person")
        cleanup_plan(plan)
        assert oracle.discrepancies(plan, plan.clone()) == []


class TestVerifierIntegration:
    def test_check_rewrite_rejects_on_oracle_discrepancy(self, store, document):
        verifier = PlanVerifier(oracle=DifferentialOracle(store, document))
        before = build_default_plan("//person/name")
        cleanup_plan(before)
        after = before.clone()
        step = after.root.context_child
        step.axis = Axis.SELF
        with pytest.raises(PlanInvariantError):
            verifier.check_rewrite(before, after, "corrupted")

    def test_check_rewrite_passes_equivalent_plans(self, store, document):
        verifier = PlanVerifier(oracle=DifferentialOracle(store, document))
        before = build_default_plan("//person/name")
        cleanup_plan(before)
        verifier.check_rewrite(before, before.clone(), "identity")
