"""Cross-engine equivalence: VAMANA (default & optimized), DOM, path-join.

Node identity is compared by document-order rank, which both the MASS
store (B+-tree rank) and the DOM (build order) define identically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnsupportedFeatureError
from repro.engine.engine import VamanaEngine
from repro.baselines.dom_engine import DomTraversalEngine
from repro.baselines.pathjoin import PathJoinEngine
from repro.baselines.profiles import JAXEN_PROFILE


@pytest.fixture(scope="module")
def vamana(xmark_store):
    return VamanaEngine(xmark_store)


@pytest.fixture(scope="module")
def dom_engine(xmark_dom):
    engine = DomTraversalEngine(JAXEN_PROFILE)
    engine.load_dom(xmark_dom)
    return engine


@pytest.fixture(scope="module")
def pathjoin_engine(xmark_dom):
    engine = PathJoinEngine()
    engine.load_dom(xmark_dom)
    return engine


def vamana_ranks(vamana, xmark_store, query, optimize):
    result = vamana.evaluate(query, optimize=optimize)
    return sorted(xmark_store.node_index.tree.rank(key.sort_bytes) for key in result.keys)


def assert_materialises_like_dom(vamana, query, dom_nodes):
    """The materialisation path has an oracle too: records come back in
    ``keys`` order, and string-values equal the DOM's, node for node."""
    result = vamana.evaluate(query)
    assert [record.key for record in result.records()] == result.keys
    in_document_order = sorted(dom_nodes, key=lambda node: node.order)
    assert result.string_values() == [node.string_value() for node in in_document_order]


FIXED_QUERIES = [
    # the paper's five benchmark queries
    "//person/address",
    "//watches/watch/ancestor::person",
    "/descendant::name/parent::*/self::person/address",
    "//itemref/following-sibling::price/parent::*",
    "//province[text()='Vermont']/ancestor::person",
    # the running example
    "//name[text() = 'Yung Flach']/following-sibling::emailaddress",
    # broader coverage
    "//open_auction/bidder/personref",
    "//person[profile/@income > 50000]/name",
    "//item[incategory/@category='category3']/name",
    "//closed_auction[annotation]/price",
    "//person[address/country='United States']/address/province",
    "//regions/europe/item/name",
    "//person[watches/watch][address]",
    "//open_auction[bidder][reserve]/current",
    "//person[not(homepage)][creditcard]",
    "//edge/@from",
    "//interval/start/../end",
    "//category/name | //item/name",
    "//person[position() = 7]/name",
    "//bidder[last()]/increase",
    "//watch[2]",
    "//text()[. = 'Yung Flach']",
    "//person[count(watches/watch) > 2]",
    "//address[not(province)]/city",
    "//person[starts-with(name, 'A')]/name",
]


@pytest.mark.parametrize("query", FIXED_QUERIES)
def test_all_engines_agree(vamana, dom_engine, pathjoin_engine, xmark_store, query):
    expected = vamana_ranks(vamana, xmark_store, query, optimize=False)
    optimized = vamana_ranks(vamana, xmark_store, query, optimize=True)
    assert optimized == expected, "optimizer changed the result set"
    dom_nodes = dom_engine.evaluate(query)
    dom_result = sorted(node.order for node in dom_nodes)
    assert dom_result == expected, "DOM engine disagrees"
    assert_materialises_like_dom(vamana, query, dom_nodes)
    try:
        join_result = sorted(node.order for node in pathjoin_engine.evaluate(query))
    except UnsupportedFeatureError:
        return
    assert join_result == expected, "path-join engine disagrees"


# -- value queries over multi-step paths ----------------------------------------
#
# A multi-step pipeline reaches the same node once per context that leads
# to it; count() and sum() are over the node *set*.

NESTED_DOC = "<a><b><c>1</c></b><b>2</b></a>"

VALUE_QUERIES = [
    ("count(//b/..)", 1.0),
    ("count(//*//c)", 1.0),
    ("count(//node()//text())", 2.0),
    ("sum(//b/..)", 12.0),
    ("sum(//*//c)", 1.0),
    ("sum(//node()//text())", 3.0),
]


@pytest.mark.parametrize("query,expected", VALUE_QUERIES)
def test_value_queries_count_each_node_once(query, expected):
    from repro.mass.loader import load_xml

    dom = DomTraversalEngine(JAXEN_PROFILE)
    dom.load(NESTED_DOC)
    assert dom.evaluate_value(query) == expected
    assert VamanaEngine(load_xml(NESTED_DOC)).evaluate_value(query) == expected


@pytest.mark.parametrize(
    "query",
    ["count(//node()//text())", "count(//watch/..)", "sum(//bidder/../initial)"],
)
def test_value_queries_agree_with_dom_on_xmark(vamana, dom_engine, query):
    assert vamana.evaluate_value(query) == pytest.approx(dom_engine.evaluate_value(query))


# -- randomized queries -------------------------------------------------------
#
# The random sweep runs on a small dedicated document: the DOM reference
# evaluates the ordered axes (following/preceding) in O(n^2) per chain, so
# size must stay modest for hypothesis to try many shapes.

_names = st.sampled_from(
    ["person", "name", "address", "city", "watches", "watch", "item",
     "open_auction", "bidder", "price", "itemref", "category", "*"]
)
_cheap_axes = st.sampled_from(
    ["child::", "descendant::", "", "ancestor::", "parent::", "self::",
     "descendant-or-self::", "following-sibling::", "preceding-sibling::"]
)
_all_axes = st.one_of(_cheap_axes, st.sampled_from(["following::", "preceding::"]))


@st.composite
def random_query(draw) -> str:
    steps = []
    step_count = draw(st.integers(1, 3))
    for index in range(step_count):
        # at most one ordered-axis step per query keeps the oracle tractable
        axis_pool = _all_axes if index == step_count - 1 else _cheap_axes
        axis = draw(axis_pool)
        name = draw(_names)
        step = f"{axis}{name}"
        if draw(st.booleans()) and index > 0:
            kind = draw(st.integers(0, 3))
            if kind == 0:
                step += f"[{draw(_names)}]"
            elif kind == 1:
                step += f"[{draw(st.integers(1, 3))}]"
            elif kind == 2:
                step += f"[not({draw(_names)})]"
            else:
                step += "[@id]"
        steps.append(step)
    return "//" + "/".join(steps)


@pytest.fixture(scope="module")
def tiny_setup():
    from repro.xmark.generator import generate_document
    from repro.mass.loader import load_xml
    from repro.xmlkit.dom import build_dom

    text = generate_document(0.0015, seed=42)
    store = load_xml(text, name="tiny")
    dom = DomTraversalEngine(JAXEN_PROFILE)
    dom.load_dom(build_dom(text))
    return VamanaEngine(store), dom, store


@given(random_query())
@settings(max_examples=120, deadline=None)
def test_random_queries_agree_with_dom(tiny_setup, query):
    vamana, dom_engine, store = tiny_setup
    dom_nodes = dom_engine.evaluate(query)
    expected = sorted(node.order for node in dom_nodes)
    assert vamana_ranks(vamana, store, query, optimize=False) == expected
    assert vamana_ranks(vamana, store, query, optimize=True) == expected
    assert_materialises_like_dom(vamana, query, dom_nodes)
