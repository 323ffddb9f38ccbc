"""The block pipeline agrees with the DOM baseline at every block size.

~200 randomly generated XPath queries over the XMark vocabulary, with
guards off and (generously) on: the pipeline with coalescing and
skip-ahead cursors must return exactly the key sequence the naive DOM
traversal returns — at block size 1 (every pull crosses a block boundary,
nothing coalesces), 4 (many short blocks) and the estimator's size — and
the static plan verifier must accept every plan the engine runs.

The DOM reference walks the ordered axes in O(n^2), so it checks two small
documents.  Two larger ones, whose indexes span many leaves (cursor
resumes and coalesced spans crossing leaf boundaries), run the same
queries with the block sizes checked against each other.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.execution import dedup_document_order, execute_plan
from repro.analysis.plan_verifier import verify_plan
from repro.analysis.tv.oracle import dom_key_map, dom_reference
from repro.engine.engine import VamanaEngine
from repro.mass.loader import load_xml
from repro.resilience.guard import QueryGuard
from repro.xmark.generator import generate_document
from repro.xmlkit.dom import build_dom

AXES = [
    "",  # child (default)
    "descendant::",
    "descendant-or-self::",
    "following::",
    "following-sibling::",
    "preceding::",
    "preceding-sibling::",
    "ancestor::",
    "ancestor-or-self::",
    "parent::",
    "self::",
]

NAMES = [
    "site", "people", "person", "name", "address", "city", "country",
    "province", "watches", "watch", "open_auction", "closed_auction",
    "itemref", "price", "item", "description", "text", "emailaddress",
    "seller", "buyer", "date", "quantity", "category",
]

TESTS = NAMES + ["*", "node()", "text()"]

PREDICATES = [
    "[1]",
    "[2]",
    "[last()]",
    "[position() < 3]",
    "[name]",
    "[.//text]",
    "[not(watches)]",
    "[count(descendant::text) > 1]",
    "[text()='Vermont']",
    "[@id]",
]


def _random_query(rng: random.Random) -> str:
    steps = []
    for depth in range(rng.randint(1, 4)):
        axis = rng.choice(AXES)
        test = rng.choice(TESTS)
        # Kind tests on sibling/parent axes are fine; name tests cover
        # the coalescing fast path, predicates the fallback.
        step = axis + test
        if rng.random() < 0.3:
            step += rng.choice(PREDICATES)
        steps.append(step)
    prefix = rng.choice(["/", "//"])
    return prefix + "/".join(steps)


def _setup(factor: float, seed: int, name: str, with_dom: bool, pinned: tuple):
    text = generate_document(factor, seed=seed)
    store = load_xml(text, name=name)
    if not with_dom:
        return store, None, None, pinned
    document = build_dom(text)
    return store, document, dom_key_map(document), pinned


@pytest.fixture(scope="module")
def equivalence_stores():
    """``(store, DOM or None, key map, pinned block sizes)`` per document;
    the estimator's block size always runs beside the pinned ones."""
    return [
        _setup(0.0005, 11, "equiv-a", True, (1, 4)),
        _setup(0.001, 23, "equiv-b", True, (1, 4)),
        _setup(0.002, 11, "equiv-c", False, (1, 4)),
        # Block size 1 walks `//following::*` context by context: O(n^2).
        _setup(0.005, 23, "equiv-d", False, (4,)),
    ]


def _run(plan, store, block_size: int, guarded: bool) -> list[bytes]:
    guard = (
        QueryGuard(timeout_ms=60_000, max_pages=50_000_000) if guarded else None
    )
    raw = list(execute_plan(plan, store, guard=guard, block_size=block_size))
    keys = dedup_document_order(raw) if plan.root.distinct else raw
    return [key.sort_bytes for key in keys]


def _check_queries(setups, queries, guarded: bool):
    failures = []
    for store, document, key_map, pinned in setups:
        engine = VamanaEngine(store)
        for query in queries:
            if document is None and not engine.satisfiability(query).satisfiable:
                continue  # the engine answers these without running a plan
            plan, _ = engine.plan(query)
            verify_plan(plan)
            sizes = (*pinned, engine.estimator.suggest_block_size(plan))
            results = [_run(plan, store, size, guarded) for size in sizes]
            if document is not None:
                expected = [
                    key.sort_bytes for key in dom_reference(query, document, key_map)
                ]
            else:
                expected = results[0]
            for size, got in zip(sizes, results):
                if got != expected:
                    failures.append(
                        (store.name, query, size, len(expected), len(got))
                    )
    assert not failures, failures


def test_random_queries_guards_off(equivalence_stores):
    rng = random.Random(20260807)
    queries = sorted({_random_query(rng) for _ in range(200)})
    _check_queries(equivalence_stores, queries, guarded=False)


def test_random_queries_guards_on(equivalence_stores):
    rng = random.Random(871)
    queries = sorted({_random_query(rng) for _ in range(60)})
    _check_queries(equivalence_stores[:2], queries, guarded=True)


def test_deep_descendant_chains(equivalence_stores):
    queries = [
        "//item//text",
        "//open_auction//description//text",
        "//node()//text()",
        "//person//*",
        "//site//open_auction//text()",
        "//people//person//address//city",
    ]
    _check_queries(equivalence_stores, queries, guarded=False)
    _check_queries(equivalence_stores, queries, guarded=True)
