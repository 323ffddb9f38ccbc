"""Property tests over randomly generated XML trees.

Hypothesis builds arbitrary small documents; every (context, axis, test)
triple is then cross-checked between the MASS axis machinery and the DOM
baseline — two independent implementations of the same spec — and engine
queries round-trip through serialization.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mass.loader import load_xml
from repro.mass.records import NodeKind
from repro.model import Axis, NodeTest
from repro.xmlkit.dom import build_dom
from repro.baselines.dom_engine import DomTraversalEngine
from repro.baselines.profiles import JAXEN_PROFILE

_NAMES = ["a", "b", "c"]


@st.composite
def xml_tree(draw, depth: int = 0) -> str:
    name = draw(st.sampled_from(_NAMES))
    attributes = ""
    if draw(st.booleans()):
        attributes = f' k="{draw(st.sampled_from(["v1", "v2"]))}"'
    if depth >= 3:
        children = []
    else:
        children = draw(st.lists(xml_tree(depth=depth + 1), max_size=3))
    text = draw(st.sampled_from(["", "", "t1", "t2"]))
    inner = text + "".join(children)
    if not inner:
        return f"<{name}{attributes}/>"
    return f"<{name}{attributes}>{inner}</{name}>"


def _dom_nodes_in_order(dom):
    return sorted(dom.all_nodes(), key=lambda node: node.order)


def _store_records(store):
    records = [store.require(key) for key in
               (record.key for record in store.node_index.scan(None, None))]
    return records


class TestAxesAgainstDom:
    @given(xml_tree())
    @settings(max_examples=60, deadline=None)
    def test_every_axis_matches_dom(self, document):
        store = load_xml(document)
        dom = build_dom(document)
        engine = DomTraversalEngine(JAXEN_PROFILE)
        engine.load_dom(dom)
        store_records = list(store.node_index.scan(None, None))
        dom_nodes = list(dom.all_nodes())
        assert len(store_records) == len(dom_nodes)
        # pair store records and DOM nodes by document-order position
        tests = [NodeTest.name_test("a"), NodeTest.name_test("*"), NodeTest.node(),
                 NodeTest.text()]
        for index in range(len(store_records)):
            record = store_records[index]
            node = dom_nodes[index]
            assert record.kind == node.kind or (
                record.kind is NodeKind.DOCUMENT and index == 0
            )
            for axis in Axis:
                for test in tests:
                    mass_hits = [
                        store.node_index.tree.rank(key.sort_bytes)
                        for key, _rec in store.axis(record.key, axis, test)
                    ]
                    dom_hits = [
                        candidate.order
                        for candidate in engine._axis_nodes(node, axis)
                        if engine._match_test(candidate, axis, test, node)
                    ]
                    assert mass_hits == dom_hits, (
                        document, index, axis.value, str(test)
                    )

    @given(xml_tree())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_brute_force(self, document):
        store = load_xml(document)
        for name in _NAMES:
            test = NodeTest.name_test(name)
            brute = sum(
                1
                for record in store.node_index.scan(None, None)
                if record.kind is NodeKind.ELEMENT and record.name == name
            )
            assert store.count(test) == brute

    @given(xml_tree())
    @settings(max_examples=40, deadline=None)
    def test_serialize_reload_identity(self, document):
        store = load_xml(document)
        fragment = store.serialize_subtree(store.root_element().key)
        again = load_xml(fragment)
        original = [
            (record.kind, record.name, record.value)
            for record in store.node_index.scan(None, None)
        ]
        restored = [
            (record.kind, record.name, record.value)
            for record in again.node_index.scan(None, None)
        ]
        assert original == restored

    @given(xml_tree(), st.sampled_from(["//a", "//b/c", "//a[@k='v1']", "//*[text()='t1']"]))
    @settings(max_examples=60, deadline=None)
    def test_queries_match_dom_engine(self, document, query):
        from repro.engine.engine import VamanaEngine

        store = load_xml(document)
        engine = DomTraversalEngine(JAXEN_PROFILE)
        engine.load(document)
        expected = sorted(node.order for node in engine.evaluate(query))
        vamana = VamanaEngine(store)
        for optimize in (False, True):
            got = sorted(
                store.node_index.tree.rank(key.sort_bytes)
                for key in vamana.evaluate(query, optimize=optimize).keys
            )
            assert got == expected
