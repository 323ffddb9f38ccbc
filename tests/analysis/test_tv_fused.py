"""Translation validation of path fusion over the bounded corpus.

The fusion rewrite is forced (bypassing the cost gate) at every matching
site of a family of chain queries, and on **every** document of the
quick TV corpus the fused plan must agree with the unfused plan and with
the DOM baseline — the same discipline ``repro verify-rules`` applies,
focused on the fusion rule with guards exercised both off and on.
"""

from __future__ import annotations

import pytest

from repro.mass.loader import load_xml
from repro.resilience.guard import QueryGuard
from repro.xmlkit.dom import build_dom
from repro.algebra.builder import build_default_plan
from repro.algebra.execution import execute_plan, dedup_document_order
from repro.algebra.plan import FusedPathScanNode, QueryPlan
from repro.analysis.tv.oracle import (
    ORACLE_BLOCK_SIZE,
    dom_key_map,
    dom_reference,
    evaluate_plan,
)
from repro.analysis.tv.runner import corpus
from repro.optimizer.cleanup import cleanup_plan
from repro.optimizer.rules import PathFusionRule
from repro.optimizer.util import find_by_id

#: Chains over the TV-corpus vocabulary; every one must have at least one
#: fusion site, so a silently dead rule fails the suite loudly.
CHAIN_QUERIES = (
    "//people/person/name",
    "//person/name/text()",
    "//people//name",
    "//people/person/address/city",
    "/descendant-or-self::node()/child::person/descendant::text()",
    "//person//node()",
)


def _fused_pairs() -> list[tuple[str, QueryPlan, QueryPlan]]:
    """(expression, unfused plan, force-fused plan) per query."""
    rule = PathFusionRule()
    pairs = []
    for expression in CHAIN_QUERIES:
        plan = build_default_plan(expression)
        cleanup_plan(plan)
        sites = [node for node in plan.walk() if rule.matches(plan, node)]
        assert sites, f"no fusion site on {expression!r}"
        fused = plan.clone()
        target = find_by_id(fused, sites[0].op_id)
        rule.apply(fused, target)
        cleanup_plan(fused)
        assert any(isinstance(n, FusedPathScanNode) for n in fused.walk())
        pairs.append((expression, plan, fused))
    return pairs


@pytest.fixture(scope="module")
def pairs():
    return _fused_pairs()


@pytest.fixture(scope="module")
def documents():
    return corpus(quick=True)


def test_fused_plans_agree_with_unfused_and_dom(pairs, documents):
    failures = []
    for xml_text in documents:
        store = load_xml(xml_text, name="tv-fused")
        document = build_dom(xml_text)
        key_map = dom_key_map(document)
        for expression, plan, fused in pairs:
            reference = dom_reference(expression, document, key_map)
            after = evaluate_plan(fused, store)
            if evaluate_plan(plan, store) != after or after != reference:
                failures.append((xml_text, expression))
    assert not failures, failures[:5]


def test_fused_plans_agree_under_guards(pairs, documents):
    # A generous guard threads checkpoints through the fused scan without
    # tripping; results must be unchanged.  Sampled corpus: the guard
    # path is identical across documents.
    failures = []
    for xml_text in documents[::7]:
        store = load_xml(xml_text, name="tv-fused-guard")
        for expression, plan, fused in pairs:
            results = []
            for candidate in (plan, fused):
                guard = QueryGuard(timeout_ms=60_000, max_pages=50_000_000)
                results.append(
                    dedup_document_order(
                        list(
                            execute_plan(
                                candidate, store, guard=guard,
                                block_size=ORACLE_BLOCK_SIZE,
                            )
                        )
                    )
                )
            if results[0] != results[1]:
                failures.append((xml_text, expression))
    assert not failures, failures[:5]


def test_result_guard_trips_on_fused_scans(documents):
    # max_results must abort a fused scan exactly as it aborts an
    # unfused one: the guard error propagates, no partial result leaks.
    from repro.errors import BudgetExceededError
    from repro.engine.engine import VamanaEngine

    store = load_xml(documents[-1], name="tv-fused-trip")
    engine = VamanaEngine(store)
    full = engine.evaluate("//person//node()")
    if len(full) < 2:
        pytest.skip("corpus tail document too small to trip the guard")
    with pytest.raises(BudgetExceededError):
        engine.evaluate("//person//node()", max_results=1)
