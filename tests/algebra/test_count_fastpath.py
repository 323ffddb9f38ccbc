"""``NodeSetValue.count()``: the index-only fast path and its fallback.

``count(...)`` over a bare axis step may answer through
:func:`~repro.mass.axes.axis_count_exact` — O(log n) B+-tree range counts
— instead of iterating.  The fast path must agree with the iterated
count on every axis, and must keep agreeing after a store mutation bumps
the epoch (a stale range count would silently corrupt ``count()``,
``last()`` and positional predicates downstream).  Through the engine, a
pure axis range must scan zero entries; anything with extra steps or
predicates drains the operator tree, through the same cursor-sharing
pipeline a node-set query runs.
"""

from __future__ import annotations

import pytest

from repro.mass.loader import load_xml
from repro.model import Axis, NodeTest
from repro.algebra.execution import EvalContext, ExpressionEvaluator
from repro.algebra.plan import StepNode
from repro.analysis.tv.oracle import dom_key_map, dom_reference
from repro.engine.engine import VamanaEngine

DOC = """<site>
<people>
<person id="p0"><name>Ada</name><watches><watch/><watch/></watches></person>
<person id="p1"><name>Bob</name><name>Rob</name></person>
</people>
<people><person id="p2"><name>Cyd</name></person></people>
</site>"""

ALL_AXES = tuple(Axis)


def _key_of(store, name, nth=0):
    hits = [
        record.key
        for record in store.node_index.scan(None, None)
        if record.name == name
    ]
    return hits[nth]


def _tests_for(axis):
    # A name test on the axis's principal kind, plus node() which always
    # falls back to iteration — both must agree with materialization.
    if axis is Axis.ATTRIBUTE:
        return (NodeTest.name_test("id"), NodeTest.node())
    return (NodeTest.name_test("name"), NodeTest.node())


def _counts(store, context_key, axis, test):
    evaluator = ExpressionEvaluator(store)
    node_set = evaluator._node_set(
        StepNode(axis, test), EvalContext(store, context_key)
    )
    return node_set.count(), sum(1 for _ in node_set.keys())


class TestCountFastPath:
    @pytest.mark.parametrize("axis", ALL_AXES, ids=lambda a: a.value)
    def test_fast_count_matches_materialized(self, axis):
        store = load_xml(DOC, name="count-fastpath")
        context = _key_of(store, "person", 1)  # mid-tree: every axis nonempty-able
        for test in _tests_for(axis):
            fast, slow = _counts(store, context, axis, test)
            assert fast == slow

    @pytest.mark.parametrize("axis", ALL_AXES, ids=lambda a: a.value)
    def test_fast_count_survives_epoch_bump(self, axis):
        store = load_xml(DOC, name="count-fastpath")
        context = _key_of(store, "person", 1)
        test = _tests_for(axis)[0]
        before_fast, before_slow = _counts(store, context, axis, test)
        assert before_fast == before_slow

        epoch = store.epoch
        # Insert a matching node where the axis can see it (a following
        # sibling <name> inside the same person) and one far away.
        store.insert_element(context, "name", text="New")
        store.insert_element(_key_of(store, "people", 1), "name")
        assert store.epoch > epoch

        after_fast, after_slow = _counts(store, context, axis, test)
        assert after_fast == after_slow
        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            assert after_fast == before_fast + 1  # the in-subtree insert

    def test_document_wide_descendant_count_sees_every_insert(self):
        store = load_xml(DOC, name="count-fastpath")
        doc = next(iter(store.node_index.scan(None, None))).key
        test = NodeTest.name_test("name")
        fast, slow = _counts(store, doc, Axis.DESCENDANT, test)
        assert fast == slow == 4
        store.insert_element(_key_of(store, "person", 0), "name")
        fast, slow = _counts(store, doc, Axis.DESCENDANT, test)
        assert fast == slow == 5


# -- through the engine ---------------------------------------------------------


def _value_with_io(store, expression):
    engine = VamanaEngine(store)
    before = store.io_snapshot()
    value = engine.evaluate_value(expression)
    after = store.io_snapshot()
    return value, {key: after[key] - before[key] for key in before}


@pytest.mark.parametrize(
    "expression",
    [
        "count(//item)",
        "count(descendant::name)",
        "count(//text())",
        "count(//open_auction)",
    ],
)
def test_pure_axis_count_scans_nothing(xmark_store, expression):
    value, io = _value_with_io(xmark_store, expression)
    assert value > 0
    assert io["entries_scanned"] == 0
    assert io["record_fetches"] == 0


def test_fast_count_matches_materialized_count(xmark_store):
    engine = VamanaEngine(xmark_store)
    for path in ["//item", "//person", "//text()", "//watch"]:
        assert engine.evaluate_value(f"count({path})") == float(
            len(engine.evaluate(path))
        )


def test_multi_step_count_still_correct(xmark_store):
    value, io = _value_with_io(xmark_store, "count(//person/name)")
    engine = VamanaEngine(xmark_store)
    assert value == float(len(engine.evaluate("//person/name")))
    # Not a bare axis range — the operator tree really ran.
    assert io["entries_scanned"] > 0


def test_predicated_count_still_correct(xmark_store):
    value, _ = _value_with_io(xmark_store, "count(//item[1])")
    engine = VamanaEngine(xmark_store)
    assert value == float(len(engine.evaluate("//item[1]")))


def test_count_in_predicate_agrees_with_dom(xmark_store, xmark_dom):
    query = "//item[count(descendant::text) > 1]"
    reference = dom_reference(query, xmark_dom, dom_key_map(xmark_dom))
    result = VamanaEngine(xmark_store).evaluate(query)
    assert [key.sort_bytes for key in result.keys] == [
        key.sort_bytes for key in reference
    ]


def test_value_query_runs_the_node_set_pipeline(xmark_store):
    """``evaluate_value`` shares cursors like ``evaluate``: counting a
    multi-step path must not cost more root descents than returning it."""
    engine = VamanaEngine(xmark_store)
    before = xmark_store.io_snapshot()
    nodes = engine.evaluate("//item//text")
    between = xmark_store.io_snapshot()
    count = engine.evaluate_value("count(//item//text)")
    after = xmark_store.io_snapshot()
    assert count == float(len(nodes))
    node_set_descents = between["root_descents"] - before["root_descents"]
    value_descents = after["root_descents"] - between["root_descents"]
    assert value_descents <= node_set_descents
    assert after["cursor_resumes"] > between["cursor_resumes"]
