"""The MASS store facade.

One :class:`MassStore` holds one indexed XML document (a database holding
many documents is a collection of stores managed at the engine layer).  It
owns the page manager, buffer pool and the three clustered indexes, and
exposes exactly the operations the paper attributes to MASS:

* index-based iteration of *all 13 axes* from any context node,
* value-based lookups in one index probe,
* exact counts for node tests and text values — globally, per document, or
  scoped to any subtree — computed on the index level without touching
  data, and
* node-level updates (insert/delete) that keep every index and therefore
  every statistic exact.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import StorageError
from repro.mass.axes import AxisHit, ScanCursors, axis_count_upper, axis_iter
from repro.mass.btree import BTreeCursor
from repro.mass.flexkey import FlexKey
from repro.mass.indexes import (
    NameIndex,
    NodeIndex,
    ValueIndex,
    escape_text,
    index_name_for,
)
from repro.mass.pages import BufferPool, PageManager
from repro.mass.records import NodeKind, NodeRecord
from repro.mass.stats import StoreMetrics, StoreStatistics
from repro.model import Axis, NodeTest, NodeTestKind


class MassStore:
    """An indexed XML document: three counted B+-trees over FLEX keys."""

    #: Set by :func:`repro.mass.persistence.open_store` when the store was
    #: opened with ``recover=True`` — the salvage scan's ``FsckReport``.
    recovery_report = None

    def __init__(
        self,
        name: str = "document",
        page_size: int = 4096,
        buffer_capacity: int | None = 4096,
    ):
        self.name = name
        self.pages = PageManager(page_size)
        self.buffer = BufferPool(self.pages, capacity=buffer_capacity)
        self.node_index = NodeIndex(self.pages, self.buffer)
        self.name_index = NameIndex(self.pages, self.buffer)
        self.value_index = ValueIndex(self.pages, self.buffer)
        self.metrics = StoreMetrics()
        #: Monotonic modification epoch: bumped by every load, insert and
        #: delete.  Caches keyed on ``(store content, ...)`` — the engine's
        #: plan cache, the cost estimator's count cache — compare epochs
        #: instead of guessing, so cached optimizer decisions can never go
        #: stale under live updates.
        self.epoch = 0
        #: Snapshot isolation: once frozen (by
        #: :class:`repro.serving.SnapshotManager` at publication) every
        #: mutation raises, so concurrent readers can never observe a
        #: half-applied update and the epoch is pinned forever.
        self._frozen = False

    # -- snapshot isolation ---------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "MassStore":
        """Make the store (and all three indexes) immutable."""
        self._frozen = True
        self.node_index.freeze()
        self.name_index.freeze()
        self.value_index.freeze()
        return self

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise StorageError(
                f"store {self.name!r} is frozen (published snapshot at epoch "
                f"{self.epoch}); clone it to mutate"
            )

    def clone(self, name: str | None = None) -> "MassStore":
        """A mutable copy-on-write twin at the same epoch.

        Node records are immutable (frozen dataclasses), so the twin
        shares them and rebuilds only index structure — one bulk load per
        index.  This is the writer's half of epoch-snapshot isolation:
        mutate the clone, then publish it atomically while readers keep
        the frozen original.
        """
        records: list[NodeRecord] = []
        for _keys, run in self.node_index.scan_runs(
            self.node_index.cursor(), None, None
        ):
            records.extend(run)
        twin = MassStore(
            name=name or self.name,
            page_size=self.pages.page_size,
            buffer_capacity=self.buffer.capacity,
        )
        if records:
            twin.bulk_load(records)
        twin.epoch = self.epoch
        return twin

    # -- loading ------------------------------------------------------------

    def bulk_load(self, records: list[NodeRecord]) -> None:
        """Load a complete document from key-sorted node records."""
        self._ensure_mutable()
        self.epoch += 1
        for earlier, later in zip(records, records[1:]):
            if not earlier.key < later.key:
                raise StorageError("records not in document order")
        self.node_index.bulk_load(records)
        name_entries = []
        value_entries = []
        for record in records:
            index_name = index_name_for(record.kind, record.name)
            if index_name is not None:
                name_entries.append((index_name, record.key, record.kind))
            if record.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE) and record.value:
                value_entries.append((record.value, record.key, record.kind))
        name_entries.sort(key=lambda entry: (entry[0], entry[1]))
        value_entries.sort(key=lambda entry: (entry[0], entry[1]))
        self.name_index.bulk_load(name_entries)
        self.value_index.bulk_load(value_entries)

    # -- node access ----------------------------------------------------------

    def fetch(
        self, key: FlexKey, cursor: BTreeCursor | None = None
    ) -> NodeRecord | None:
        """Materialise one node record (counted as a data fetch).

        Through a node-index ``cursor`` the look-up resumes from the
        cursor's pinned leaf when the record is nearby, and leaves the
        cursor pinned at it.
        """
        self.metrics.local_counters().record_fetches += 1
        if cursor is None:
            return self.node_index.get(key)
        return self.node_index.get_cursor(cursor, key)

    def fetch_run(
        self, keys: Sequence[FlexKey], cursor: BTreeCursor | None = None
    ) -> Iterator[NodeRecord]:
        """:meth:`require` for every key in turn, one leaf at a time.

        Document-ordered keys (a query result, an element's text nodes)
        are a merge against the clustered node index, not independent
        look-ups: see :meth:`BTreeCursor.get_run`.  ``record_fetches`` is
        charged once, when the run ends, with the number of records the
        consumer actually pulled — the same total as that many
        :meth:`fetch` calls.  ``keys`` is walked twice (once by the
        kernel), so it must be a sequence, not a one-shot iterator.
        """
        fetched = 0
        try:
            for key, record in zip(keys, self.node_index.get_run(keys, cursor)):
                fetched += 1
                if record is None:
                    raise StorageError(f"no node with key {key.pretty()}")
                yield record
        finally:
            self.metrics.local_counters().record_fetches += fetched

    def require(self, key: FlexKey, cursor: BTreeCursor | None = None) -> NodeRecord:
        record = self.fetch(key, cursor)
        if record is None:
            raise StorageError(f"no node with key {key.pretty()}")
        return record

    def document_record(self) -> NodeRecord:
        return self.require(FlexKey.document())

    def root_element(self) -> NodeRecord:
        """The document element's record."""
        for _key, record in self.axis(FlexKey.document(), Axis.CHILD, NodeTest.name_test("*")):
            if record is not None and record.kind is NodeKind.ELEMENT:
                return record
        raise StorageError("store has no document element")

    # -- axes -------------------------------------------------------------------

    def axis(
        self, context: FlexKey, axis: Axis, test: NodeTest, cursors=None
    ) -> Iterator[AxisHit]:
        """Iterate ``axis::test`` from ``context`` (see :mod:`repro.mass.axes`).

        Passing one ``cursors`` (a :class:`~repro.mass.axes.ScanCursors`)
        to a run of nearby scans lets each resume from the previous one's
        pinned leaf instead of re-descending.
        """
        self.metrics.local_counters().axis_requests += 1
        return axis_iter(self, context, axis, test, cursors)

    def axis_records(
        self, context: FlexKey, axis: Axis, test: NodeTest
    ) -> Iterator[NodeRecord]:
        """Axis iteration that always materialises records."""
        for key, record in self.axis(context, axis, test):
            yield record if record is not None else self.require(key)

    def axis_count(self, context: FlexKey, axis: Axis, test: NodeTest) -> int | None:
        """Index-only count (upper bound) for one axis step, if available."""
        self.metrics.count_calls += 1
        return axis_count_upper(self, context, axis, test)

    # -- statistics (the cost model's API) ----------------------------------------

    def count(self, test: NodeTest, principal: NodeKind = NodeKind.ELEMENT) -> int:
        """COUNT(nodetest): document-wide matches, index-only.

        This is the number Figure 6 annotates on every step operator
        (e.g. COUNT(name) = 4825 on the paper's 10 MB document).
        """
        self.metrics.count_calls += 1
        if test.kind is NodeTestKind.NAME:
            prefix = "@" + test.name if principal is NodeKind.ATTRIBUTE else test.name
            return self.name_index.count(prefix)
        if test.kind is NodeTestKind.TEXT:
            return self.name_index.count("#text")
        if test.kind is NodeTestKind.COMMENT:
            return self.name_index.count("#comment")
        if test.kind is NodeTestKind.PROCESSING_INSTRUCTION and test.name:
            return self.name_index.count("?" + test.name)
        if test.kind is NodeTestKind.NODE:
            return len(self.node_index)
        # '*' or targetless processing-instruction(): derive from the node
        # index via kind bookkeeping (scan-free: counts are maintained).
        return self._kind_count(
            NodeKind.ELEMENT if test.kind is NodeTestKind.ANY else
            NodeKind.PROCESSING_INSTRUCTION
        )

    def count_under(self, context: FlexKey, test: NodeTest) -> int:
        """COUNT scoped to one subtree — "specific to a point within one
        document" in the paper's terms."""
        self.metrics.count_calls += 1
        count = self.axis_count(context, Axis.DESCENDANT, test)
        if count is not None:
            return count
        lo = context
        hi = None if context.is_document() else context.subtree_upper_bound()
        total = 0
        for record in self.node_index.scan(lo, hi, inclusive_lo=False):
            if test.matches(record.kind, record.name, NodeKind.ELEMENT):
                total += 1
        return total

    def text_count(self, value: str) -> int:
        """TC(value): exact occurrences of a text value, one index probe."""
        self.metrics.count_calls += 1
        return self.value_index.text_count(value)

    def value_keys(
        self, value: str, reverse: bool = False
    ) -> Iterator[tuple[FlexKey, NodeKind]]:
        """Keys of text/attribute nodes carrying ``value`` (document order)."""
        self.metrics.value_lookups += 1
        return self.value_index.scan(value, reverse=reverse)

    def _kind_count(self, kind: NodeKind) -> int:
        if kind is NodeKind.ELEMENT:
            # Elements = all name-index entries minus the reserved
            # namespaces: '#text'/'#comment', '?target' (PIs) and '@name'
            # (attributes).  '?' and '@' sort just below 'A', so one range
            # count covers both prefixes (element names start with a letter
            # or underscore, which sort above 'A').
            reserved = (
                self.name_index.count("#text")
                + self.name_index.count("#comment")
            )
            prefixed = self.name_index.tree.range_count(
                escape_text("?"), escape_text("A")
            )
            return len(self.name_index) - reserved - prefixed
        total = 0
        for record in self.node_index.scan(None, None):
            if record.kind is kind:
                total += 1
        return total

    # -- content helpers ------------------------------------------------------------

    def string_value(self, key: FlexKey, cursors: ScanCursors | None = None) -> str:
        """The XPath string-value of the node at ``key``.

        As with :meth:`axis`, passing one ``cursors`` to a run of nearby
        calls (a predicate's candidates, a result's nodes) lets each
        resume from the previous one's pinned leaves.
        """
        if cursors is None:
            cursors = ScanCursors(self)
        node_cursor = cursors.node_cursor()
        record = self.require(key, node_cursor)
        if record.kind in (
            NodeKind.TEXT,
            NodeKind.ATTRIBUTE,
            NodeKind.COMMENT,
            NodeKind.PROCESSING_INSTRUCTION,
        ):
            return record.value
        # The text nodes sit right behind their element in the clustered
        # node index: one run, resumed from the element's own leaf.
        text_keys = [
            text_key
            for entry_keys, _kinds in self.name_index.scan_runs(
                cursors.name_cursor(),
                "#text",
                lo=key.sort_bytes,
                hi=None if key.is_document() else key.subtree_upper_bound_bytes(),
                inclusive_lo=False,
            )
            for _name, text_key in entry_keys
        ]
        return "".join(
            [text.value for text in self.fetch_run(text_keys, node_cursor)]
        )

    def serialize_subtree(self, key: FlexKey) -> str:
        """Re-emit the XML text of the subtree rooted at ``key``."""
        from repro.mass.serialize import serialize_subtree

        return serialize_subtree(self, key)

    # -- updates -----------------------------------------------------------------------

    def insert_record(self, record: NodeRecord) -> None:
        """Insert one node; all three indexes (and thus statistics) update."""
        self._ensure_mutable()
        if self.node_index.get(record.key) is not None:
            raise StorageError(f"key {record.key.pretty()} already stored")
        parent = record.key.parent()
        if parent is not None and self.node_index.get(parent) is None:
            raise StorageError(f"parent {parent.pretty()} not stored")
        self.epoch += 1
        self.node_index.insert(record)
        index_name = index_name_for(record.kind, record.name)
        if index_name is not None:
            self.name_index.insert(index_name, record.key, record.kind)
        if record.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE) and record.value:
            self.value_index.insert(record.value, record.key, record.kind)

    def insert_element(
        self,
        parent: FlexKey,
        name: str,
        text: str = "",
        after: FlexKey | None = None,
    ) -> FlexKey:
        """Insert ``<name>text</name>`` under ``parent``.

        Placed after sibling ``after`` if given, else appended as the last
        child.  Returns the new element's key.  Demonstrates the no-relabel
        update path: only the new keys are written.
        """
        if after is not None:
            if after.parent() != parent:
                raise StorageError("'after' is not a child of 'parent'")
            next_sibling = self._next_sibling_key(after)
            key = after.sibling_between(next_sibling) if next_sibling else after.sibling_after()
        else:
            last = self._last_child_key(parent)
            key = last.sibling_after() if last is not None else parent.child(0)
        self.insert_record(NodeRecord(key, NodeKind.ELEMENT, name=name))
        if text:
            self.insert_record(NodeRecord(key.child(0), NodeKind.TEXT, value=text))
        return key

    def delete_subtree(self, key: FlexKey) -> int:
        """Delete the node at ``key`` and everything below it."""
        self._ensure_mutable()
        doomed = [self.require(key)]
        lo, hi = key, key.subtree_upper_bound()
        doomed.extend(self.node_index.scan(lo, hi, inclusive_lo=False))
        self.epoch += 1
        for record in doomed:
            self.node_index.delete(record.key)
            index_name = index_name_for(record.kind, record.name)
            if index_name is not None:
                self.name_index.delete(index_name, record.key)
            if record.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE) and record.value:
                self.value_index.delete(record.value, record.key)
        return len(doomed)

    def _last_child_key(self, parent: FlexKey) -> FlexKey | None:
        last = None
        lo = parent
        hi = None if parent.is_document() else parent.subtree_upper_bound()
        for record in self.node_index.scan(lo, hi, inclusive_lo=False):
            if record.key.depth == parent.depth + 1:
                last = record.key
        return last

    def _next_sibling_key(self, key: FlexKey) -> FlexKey | None:
        parent = key.parent()
        if parent is None:
            return None
        lo = key.subtree_upper_bound()
        hi = None if parent.is_document() else parent.subtree_upper_bound()
        for record in self.node_index.scan(lo, hi):
            if record.key.depth == key.depth:
                return record.key
        return None

    # -- reporting ------------------------------------------------------------------------

    def statistics(self) -> StoreStatistics:
        by_kind: dict[NodeKind, int] = {}
        for record in self.node_index.scan(None, None):
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        names = {name for (name, _key), _ in self.name_index.tree.items()}
        values = {value for (value, _key), _ in self.value_index.tree.items()}
        return StoreStatistics(
            total_nodes=len(self.node_index),
            nodes_by_kind=by_kind,
            distinct_names=len(names),
            distinct_values=len(values),
            pages=self.pages.live_pages,
            page_size=self.pages.page_size,
            node_index_height=self.node_index.tree.height(),
            name_index_height=self.name_index.tree.height(),
            value_index_height=self.value_index.tree.height(),
        )

    def reset_metrics(self) -> None:
        """Zero all per-query counters (store, pages, buffer, trees)."""
        self.metrics.reset()
        self.pages.stats.reset_io()
        self.buffer.stats.reset()
        for tree in (self.node_index.tree, self.name_index.tree, self.value_index.tree):
            tree.metrics.reset()

    def io_snapshot(self) -> dict[str, int]:
        """All work counters in one dict (for benchmark reporting)."""
        data = self.metrics.snapshot()
        data.update(
            {
                "pages_read": self.pages.stats.physical_reads,
                "logical_reads": self.pages.stats.logical_reads,
                "buffer_hits": self.buffer.stats.hits,
                "key_comparisons": (
                    self.node_index.tree.metrics.key_comparisons
                    + self.name_index.tree.metrics.key_comparisons
                    + self.value_index.tree.metrics.key_comparisons
                ),
                "entries_scanned": (
                    self.node_index.tree.metrics.entries_scanned
                    + self.name_index.tree.metrics.entries_scanned
                    + self.value_index.tree.metrics.entries_scanned
                ),
            }
        )
        data.update(self.counters)
        return data

    def io_totals(self) -> dict[str, int]:
        """Page I/O summed over every thread that read this store.

        ``io_snapshot`` reports the *calling thread's* page counters
        (which is what per-query metrics want); this is the cross-thread
        aggregate the serving metrics report.
        """
        return self.pages.stats.totals()

    @property
    def counters(self) -> dict[str, int]:
        """Cursor effectiveness counters, summed over the three trees.

        ``root_descents`` counts full root-to-leaf positionings;
        ``cursor_resumes`` counts scans that picked up from a pinned leaf
        instead.  A high resume share is the skip-ahead cursors working.
        """
        trees = (self.node_index.tree, self.name_index.tree, self.value_index.tree)
        return {
            "root_descents": sum(tree.metrics.root_descents for tree in trees),
            "cursor_resumes": sum(tree.metrics.cursor_resumes for tree in trees),
        }

    def __repr__(self) -> str:
        return f"<MassStore {self.name!r}: {len(self.node_index)} nodes>"
