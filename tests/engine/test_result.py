"""QueryResult surface: records, labels, XML fragments, metrics."""

from __future__ import annotations

import pytest

from repro.engine.engine import VamanaEngine
from repro.mass.loader import load_xml


@pytest.fixture
def engine():
    return VamanaEngine(
        load_xml(
            "<site><person id='p0'><name>Ada &amp; co</name></person>"
            "<person id='p1'><name>Bob</name></person></site>"
        )
    )


def test_to_xml_fragments(engine):
    result = engine.evaluate("//person")
    fragments = result.to_xml()
    assert fragments[0] == '<person id="p0"><name>Ada &amp; co</name></person>'
    assert fragments[1] == '<person id="p1"><name>Bob</name></person>'


def test_to_xml_reparses(engine):
    for fragment in engine.evaluate("//person").to_xml():
        load_xml(fragment)  # must be well-formed


def test_to_xml_text_nodes_are_escaped_fragments(engine):
    fragments = engine.evaluate("//name/text()").to_xml()
    assert fragments == ["Ada &amp; co", "Bob"]


def test_records_iteration(engine):
    result = engine.evaluate("//name")
    names = [record.name for record in result.records()]
    assert names == ["name", "name"]


def test_len_iter_keyset(engine):
    result = engine.evaluate("//person")
    assert len(result) == 2
    assert len(list(result)) == 2
    assert result.key_set() == frozenset(result.keys)


def test_string_values_follow_document_order(engine):
    assert engine.evaluate("//name").string_values() == ["Ada & co", "Bob"]


def test_attribute_results(engine):
    result = engine.evaluate("//person/@id")
    assert result.string_values() == ["p0", "p1"]
    assert result.to_xml() == ["p0", "p1"]


def test_empty_result(engine):
    result = engine.evaluate("//missing")
    assert len(result) == 0
    assert result.to_xml() == []
    assert result.labels() == []
    assert result.metrics.tuples_returned == 0


# -- leaf-run materialisation ---------------------------------------------------


@pytest.fixture(scope="module")
def wide_engine():
    rows = "".join(f"<row n='{index}'><cell>c{index}</cell></row>" for index in range(1500))
    return VamanaEngine(load_xml(f"<table>{rows}</table>", name="wide"))


def test_records_are_one_merge_against_the_node_index(wide_engine):
    """An N-row document-order result costs N logical record fetches but
    only about one page touch per leaf spanned, and almost no descents."""
    store = wide_engine.store
    result = wide_engine.evaluate("//cell/text()")
    assert len(result) == 1500
    store.reset_metrics()
    records = list(result.records())
    assert [record.key for record in records] == result.keys
    counters = store.io_snapshot()
    tree = store.node_index.tree
    leaves = -(-len(tree) // max(2, (tree.order * 2) // 3))  # bulk-load fill
    assert counters["record_fetches"] == len(result)
    assert counters["root_descents"] < len(result) / 10
    assert counters["logical_reads"] <= leaves + tree.height()


def test_labels_limit_fetches_only_the_head(wide_engine):
    store = wide_engine.store
    result = wide_engine.evaluate("//node()//text()")
    store.reset_metrics()
    head = result.labels(5)
    assert head == result.labels()[:5]
    store.reset_metrics()
    assert len(result.labels(5)) == 5
    assert store.metrics.record_fetches == 5
    assert result.labels(0) == []
    assert len(result.labels(10_000)) == len(result)


def test_abandoned_records_charge_what_was_pulled(wide_engine):
    store = wide_engine.store
    result = wide_engine.evaluate("//row")
    store.reset_metrics()
    live = result.records()
    for _ in range(7):
        next(live)
    live.close()
    assert store.metrics.record_fetches == 7


def test_records_survive_an_insert_between_two_yields():
    """In-place updates while a records() generator is live: every record
    is the pre- or post-state of its key, never an unlinked leaf's."""
    rows = "".join(f"<row><cell>c{index}</cell></row>" for index in range(300))
    store = load_xml(f"<table>{rows}</table>")
    result = VamanaEngine(store).evaluate("//cell")
    live = result.records()
    seen = [next(live) for _ in range(40)]
    table = store.root_element().key
    for index in range(60):  # enough new nodes to split leaves everywhere
        store.insert_element(table, "row", text=f"new{index}", after=result.keys[index].parent())
    seen.extend(live)
    assert [record.key for record in seen] == result.keys
    assert all(record.name == "cell" for record in seen)


def test_records_of_a_deleted_node_raise_a_typed_error():
    from repro.errors import StorageError

    store = load_xml("<t><a>1</a><a>2</a><a>3</a></t>")
    result = VamanaEngine(store).evaluate("//a")
    live = result.records()
    next(live)
    store.delete_subtree(result.keys[1])
    with pytest.raises(StorageError):
        list(live)


def test_string_values_fetch_text_nodes_as_one_run(wide_engine):
    """string_value(element): one record fetch per node read, as before,
    but the text nodes cost no root descent each."""
    store = wide_engine.store
    table = store.root_element().key
    store.reset_metrics()
    value = store.string_value(table)
    assert value == "".join(f"c{index}" for index in range(1500))
    counters = store.io_snapshot()
    assert counters["record_fetches"] == 1 + 1500  # the element + its text nodes
    assert counters["root_descents"] <= 3
