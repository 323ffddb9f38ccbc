"""All 13 XPath axes as key-range computations over the MASS indexes.

This module is the heart of MASS's "multi-axis" claim: every axis reduces
to either pure FLEX-key arithmetic (parent, ancestor, self) or one
contiguous scan of the name index / node index (everything else), in the
direction the axis requires.  No structural joins, no per-step node-set
materialisation.

The generic entry point is :func:`axis_iter`.  It yields ``(key, record)``
pairs where ``record`` is ``None`` when the hit came from the name index —
the caller decides whether materialising the record is necessary, which is
how VAMANA avoids fetching data for nodes that only flow through a plan.

Counting twins (:func:`axis_count_upper`) provide the index-only COUNT
numbers the cost model consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.mass.btree import hand_back
from repro.mass.flexkey import FlexKey
from repro.mass.indexes import index_name_for_test, text_bounds
from repro.mass.records import NodeKind, NodeRecord
from repro.model import Axis, NodeTest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mass.store import MassStore

AxisHit = tuple[FlexKey, NodeRecord | None]

#: Node kinds that only the attribute / namespace axes may deliver.
_SPECIAL_KINDS = frozenset({NodeKind.ATTRIBUTE, NodeKind.NAMESPACE})

#: How many scanned entries a coalesced scan may advance between guard
#: checkpoints.  Small enough that a page budget can only be overshot by a
#: couple of leaves; large enough to amortize the checkpoint call.
_CHECKPOINT_EVERY = 64


class ScanCursors:
    """One lazily-created skip-ahead cursor per index, shared by an operator.

    A :class:`~repro.algebra.execution.StepOperator` issues long runs of
    range scans whose start points advance in document order, so every scan
    it makes through these cursors can usually resume from the previous
    scan's pinned leaf (see :class:`~repro.mass.btree.BTreeCursor`).
    """

    __slots__ = ("_store", "_name", "_node")

    def __init__(self, store: "MassStore"):
        self._store = store
        self._name = None
        self._node = None

    def name_cursor(self):
        if self._name is None:
            self._name = self._store.name_index.cursor()
        return self._name

    def node_cursor(self):
        if self._node is None:
            self._node = self._store.node_index.cursor()
        return self._node

    def fetch(self, key: FlexKey):
        """:meth:`MassStore.fetch` through the node cursor.

        Context nodes arrive in document order, so the record is almost
        always in the pinned leaf's neighbourhood — the lookup resumes
        instead of costing a root-to-leaf descent per context.
        """
        return self._store.fetch(key, self.node_cursor())


def axis_iter(
    store: "MassStore",
    context: FlexKey,
    axis: Axis,
    test: NodeTest,
    cursors: ScanCursors | None = None,
) -> Iterator[AxisHit]:
    """Iterate the nodes reached from ``context`` along ``axis``.

    Hits arrive in axis order (document order for forward axes, reverse
    document order for reverse axes) and satisfy ``test``.  Range scans
    position through ``cursors``; a caller issuing a run of nearby scans
    shares one :class:`ScanCursors` across them so each resumes from the
    previous scan's pinned leaf.  A one-off caller gets a fresh one.
    """
    if cursors is None:
        cursors = ScanCursors(store)
    return _HANDLERS[axis](store, context, axis, test, cursors)


def _record_matches(
    record: NodeRecord, axis: Axis, test: NodeTest, selfish: bool = False
) -> bool:
    """Axis membership + node test.

    Attribute/namespace nodes are reachable only via their dedicated axes
    — except as the *context node itself* on the self-including axes
    (``selfish=True``): ``self::node()`` of an attribute is the attribute.
    """
    if record.kind in _SPECIAL_KINDS and not selfish:
        if axis not in (Axis.ATTRIBUTE, Axis.NAMESPACE):
            return False
    if axis is Axis.ATTRIBUTE and record.kind is not NodeKind.ATTRIBUTE:
        return False
    if axis is Axis.NAMESPACE and record.kind is not NodeKind.NAMESPACE:
        return False
    return test.matches(record.kind, record.name, axis.principal_kind)


def _subtree_range(context: FlexKey) -> tuple[bytes, bytes | None]:
    """Range (exclusive of context itself) covering context's subtree.

    This is the flat byte-prefix range derived straight from the context's
    encoding — no sentinel key is materialised.
    """
    if context.is_document():
        return context.sort_bytes, None  # everything after the document key
    return context.sort_bytes, context.subtree_upper_bound_bytes()


# -- key-arithmetic axes -------------------------------------------------------


def _iter_self(store, context, axis, test, cursors):
    record = store.fetch(context)
    if record is not None and _record_matches(record, axis, test, selfish=True):
        yield context, record


def _iter_parent(store, context, axis, test, cursors):
    parent = context.parent()
    if parent is None:
        return
    index_name = index_name_for_test(test, axis.principal_kind)
    if index_name is not None:
        # A named parent is a point probe of the name index, not a record
        # fetch.  Parents of document-ordered contexts sit side by side in
        # the name run, so the shared cursor resumes from its pinned leaf.
        if store.name_index.kind_of(cursors.name_cursor(), index_name, parent) is not None:
            yield parent, None
        return
    record = store.fetch(parent)
    if record is not None and _record_matches(record, axis, test):
        yield parent, record


def _iter_ancestor(store, context, axis, test, cursors):
    for key in context.ancestors():
        record = store.fetch(key)
        if record is not None and _record_matches(record, axis, test):
            yield key, record


def _iter_ancestor_or_self(store, context, axis, test, cursors):
    yield from _iter_self(store, context, axis, test, cursors)
    yield from _iter_ancestor(store, context, axis, test, cursors)


# -- range-scan axes -----------------------------------------------------------


def _scan(
    store,
    axis: Axis,
    test: NodeTest,
    lo: bytes | None,
    hi: bytes | None,
    inclusive_lo: bool,
    cursors: ScanCursors,
    reverse: bool = False,
    depth: int | None = None,
    skip_ancestors_of: FlexKey | None = None,
) -> Iterator[AxisHit]:
    """One contiguous index scan with the per-axis filters applied.

    ``lo``/``hi`` are byte-prefix range bounds.  Uses the name index when
    the node test pins an index name (no record fetches at all — depth
    filtering is key arithmetic); otherwise scans the clustered node index
    and filters records.  Either way the scan positions through the shared
    cursor (leaf resume) instead of a fresh root descent.
    """
    index_name = index_name_for_test(test, axis.principal_kind)
    if index_name is not None:
        runs = store.name_index.scan_runs(
            cursors.name_cursor(), index_name, lo, hi, inclusive_lo, reverse
        )
        for entry_keys, kinds in runs:
            rest = iter(kinds)
            try:
                for (_name, key), kind in zip(entry_keys, rest):
                    if kind in _SPECIAL_KINDS and axis not in (Axis.ATTRIBUTE, Axis.NAMESPACE):
                        continue
                    if axis is Axis.ATTRIBUTE and kind is not NodeKind.ATTRIBUTE:
                        continue
                    if axis is Axis.NAMESPACE and kind is not NodeKind.NAMESPACE:
                        continue
                    if depth is not None and key.depth != depth:
                        continue
                    if skip_ancestors_of is not None and key.is_ancestor_of(skip_ancestors_of):
                        continue
                    yield key, None
            except BaseException:  # abandoned mid-run: charge what was taken
                hand_back(runs, rest)
                raise
        return
    runs = store.node_index.scan_runs(
        cursors.node_cursor(), lo, hi, inclusive_lo=inclusive_lo, reverse=reverse
    )
    for _keys, records in runs:
        rest = iter(records)
        try:
            for record in rest:
                key = record.key
                if depth is not None and key.depth != depth:
                    continue
                if skip_ancestors_of is not None and key.is_ancestor_of(skip_ancestors_of):
                    continue
                if _record_matches(record, axis, test):
                    yield key, record
        except BaseException:  # abandoned mid-run: charge what was taken
            hand_back(runs, rest)
            raise


def _iter_child(store, context, axis, test, cursors):
    lo, hi = _subtree_range(context)
    yield from _scan(
        store, axis, test, lo, hi, inclusive_lo=False, depth=context.depth + 1,
        cursors=cursors,
    )


def _iter_attribute(store, context, axis, test, cursors):
    lo, hi = _subtree_range(context)
    yield from _scan(
        store, axis, test, lo, hi, inclusive_lo=False, depth=context.depth + 1,
        cursors=cursors,
    )


def _iter_namespace(store, context, axis, test, cursors):
    lo, hi = _subtree_range(context)
    yield from _scan(
        store, axis, test, lo, hi, inclusive_lo=False, depth=context.depth + 1,
        cursors=cursors,
    )


def _iter_descendant(store, context, axis, test, cursors):
    lo, hi = _subtree_range(context)
    yield from _scan(store, axis, test, lo, hi, inclusive_lo=False, cursors=cursors)


def _iter_descendant_or_self(store, context, axis, test, cursors):
    yield from _iter_self(store, context, axis, test, cursors)
    yield from _iter_descendant(store, context, axis, test, cursors)


def _iter_following(store, context, axis, test, cursors):
    if context.is_document():
        return
    bound = context.subtree_upper_bound_bytes()
    yield from _scan(store, axis, test, bound, None, inclusive_lo=True, cursors=cursors)


def _iter_preceding(store, context, axis, test, cursors):
    if context.is_document():
        return
    yield from _scan(
        store,
        axis,
        test,
        None,
        context.sort_bytes,
        inclusive_lo=True,
        reverse=True,
        skip_ancestors_of=context,
        cursors=cursors,
    )


def _context_has_siblings(context: FlexKey, cursors: ScanCursors) -> bool:
    """Attribute and namespace nodes have no siblings (XPath 1.0 §2.2)."""
    record = cursors.fetch(context)
    return record is None or record.kind not in _SPECIAL_KINDS


def _iter_following_sibling(store, context, axis, test, cursors):
    parent = context.parent()
    if parent is None or not _context_has_siblings(context, cursors):
        return
    lo = context.subtree_upper_bound_bytes()
    hi = None if parent.is_document() else parent.subtree_upper_bound_bytes()
    yield from _scan(
        store, axis, test, lo, hi, inclusive_lo=True, depth=context.depth,
        cursors=cursors,
    )


def _iter_preceding_sibling(store, context, axis, test, cursors):
    parent = context.parent()
    if parent is None or not _context_has_siblings(context, cursors):
        return
    yield from _scan(
        store,
        axis,
        test,
        parent.sort_bytes,
        context.sort_bytes,
        inclusive_lo=False,
        reverse=True,
        depth=context.depth,
        cursors=cursors,
    )


_HANDLERS = {
    Axis.SELF: _iter_self,
    Axis.PARENT: _iter_parent,
    Axis.ANCESTOR: _iter_ancestor,
    Axis.ANCESTOR_OR_SELF: _iter_ancestor_or_self,
    Axis.CHILD: _iter_child,
    Axis.ATTRIBUTE: _iter_attribute,
    Axis.NAMESPACE: _iter_namespace,
    Axis.DESCENDANT: _iter_descendant,
    Axis.DESCENDANT_OR_SELF: _iter_descendant_or_self,
    Axis.FOLLOWING: _iter_following,
    Axis.PRECEDING: _iter_preceding,
    Axis.FOLLOWING_SIBLING: _iter_following_sibling,
    Axis.PRECEDING_SIBLING: _iter_preceding_sibling,
}


# -- batched scanning (block-at-a-time pipeline) -------------------------------

#: A scan span in byte-key space: ``(lo, hi, inclusive_lo)`` with ``hi=None``
#: for an open range.  Spans produced by :func:`coalesced_spans` are disjoint
#: and sorted.
ScanSpan = tuple[bytes, "bytes | None", bool]

#: Sentinel "covered" value: an earlier span was open-ended, so every later
#: context is inside already-scanned territory.
COVERED_ALL = object()


def coalesced_spans(
    store: "MassStore",
    axis: Axis,
    contexts: list[FlexKey],
    covered: "bytes | object | None" = None,
) -> tuple[list[ScanSpan], "bytes | object | None"]:
    """Coalesce a document-ordered context batch into disjoint scan spans.

    FLEX prefix ranges are nested or disjoint, never partially overlapping,
    so a context whose subtree range ends at or before the previous kept
    span's end (or before ``covered``, the high-water mark of earlier
    batches) contributes nothing new — the covering span's scan already
    emits its self hit and its whole subtree — and is dropped outright.
    This is only sound when the consumer deduplicates (coalescing collapses
    the duplicate hits per-context evaluation would emit), which the batch
    gate in the execution layer guarantees.

    ``axis`` must be DESCENDANT, DESCENDANT_OR_SELF or FOLLOWING.  For
    FOLLOWING the whole batch collapses to one open span starting at the
    lowest subtree top.  Returns ``(spans, covered)`` with the advanced
    high-water mark for the next batch.
    """
    spans: list[ScanSpan] = []
    if axis is Axis.FOLLOWING:
        if covered is COVERED_ALL:
            return spans, covered
        tops = [
            context.subtree_upper_bound_bytes()
            for context in contexts
            if not context.is_document()
        ]
        if tops:
            lo = min(tops)
            if not (isinstance(covered, bytes) and lo < covered):
                spans.append((lo, None, True))
            else:
                spans.append((covered, None, True))
            covered = COVERED_ALL
        return spans, covered
    inclusive = axis is Axis.DESCENDANT_OR_SELF
    for context in contexts:
        if covered is COVERED_ALL:
            break
        if context.is_document():
            # The document's subtree is everything after its key; the
            # document node itself has no name entry, so the self hit of
            # descendant-or-self cannot match an index-resolvable test.
            lo, hi, incl = context.sort_bytes, None, False
        else:
            lo, hi, incl = (
                context.sort_bytes,
                context.subtree_upper_bound_bytes(),
                inclusive,
            )
        if isinstance(covered, bytes) and hi is not None and hi <= covered:
            continue  # nested inside an already-kept span
        spans.append((lo, hi, incl))
        covered = COVERED_ALL if hi is None else hi
    return spans, covered


def scan_coalesced(
    store: "MassStore",
    axis: Axis,
    test: NodeTest,
    spans: list[ScanSpan],
    cursors: ScanCursors,
    guard=None,
) -> Iterator[FlexKey]:
    """Scan disjoint document-ordered spans, yielding matching keys.

    The scan consumes leaf runs; the guard is checkpointed between runs,
    once :data:`_CHECKPOINT_EVERY` entries have gone by, so a long span
    cannot outrun a resource limit between two ``next_block`` calls.
    When the node test pins an index name,
    the zig-zag skip applies: a span whose upper bound lies at or before
    the cursor's pinned position (which, spans being sorted and disjoint,
    is the first entry not yet returned) is proven empty and skipped with
    zero tree operations.
    """
    index_name = index_name_for_test(test, axis.principal_kind)
    since_checkpoint = 0
    if index_name is not None:
        cursor = cursors.name_cursor()
        for lo, hi, inclusive_lo in spans:
            low, high = text_bounds(index_name, lo, hi)
            if hi is not None and cursor.past(high):
                continue
            runs = cursor.scan_runs(low, high, inclusive_lo)
            for entry_keys, kinds in runs:
                since_checkpoint += len(kinds)
                if guard is not None and since_checkpoint >= _CHECKPOINT_EVERY:
                    guard.checkpoint()
                    since_checkpoint = 0
                rest = iter(kinds)
                try:
                    for (_name, key), kind in zip(entry_keys, rest):
                        if kind not in _SPECIAL_KINDS:
                            yield key
                except BaseException:  # abandoned mid-run
                    hand_back(runs, rest)
                    raise
        return
    cursor = cursors.node_cursor()
    for lo, hi, inclusive_lo in spans:
        runs = store.node_index.scan_runs(cursor, lo, hi, inclusive_lo=inclusive_lo)
        for _keys, records in runs:
            since_checkpoint += len(records)
            if guard is not None and since_checkpoint >= _CHECKPOINT_EVERY:
                guard.checkpoint()
                since_checkpoint = 0
            rest = iter(records)
            try:
                for record in rest:
                    if _record_matches(record, axis, test):
                        yield record.key
            except BaseException:  # abandoned mid-run
                hand_back(runs, rest)
                raise


# -- index-only counting -------------------------------------------------------


def axis_count_upper(
    store: "MassStore", context: FlexKey, axis: Axis, test: NodeTest
) -> int | None:
    """Index-only upper bound on the hits of one axis step, or None.

    For name-test steps this is the exact count of matching index entries
    in the relevant key range (exact for child-free ranges like descendant,
    an upper bound where a depth filter applies).  Returns None when only a
    data scan could answer, in which case the cost model falls back to the
    whole-store COUNT.
    """
    index_name = index_name_for_test(test, axis.principal_kind)
    if index_name is None:
        return None
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.CHILD, Axis.ATTRIBUTE):
        lo, hi = _subtree_range(context)
        count = store.name_index.count_between(index_name, lo, hi, inclusive_lo=False)
        if axis is Axis.DESCENDANT_OR_SELF:
            record = store.fetch(context)
            if record is not None and _record_matches(record, axis, test):
                count += 1
        return count
    if axis is Axis.FOLLOWING:
        if context.is_document():
            return 0
        return store.name_index.count_between(
            index_name, context.subtree_upper_bound_bytes(), None
        )
    if axis is Axis.PRECEDING:
        return store.name_index.count_between(index_name, None, context.sort_bytes)
    if axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        parent = context.parent()
        if parent is None:
            return 0
        if axis is Axis.FOLLOWING_SIBLING:
            lo = context.subtree_upper_bound_bytes()
            hi = None if parent.is_document() else parent.subtree_upper_bound_bytes()
            return store.name_index.count_between(index_name, lo, hi)
        # preceding-sibling: the parent's own entry must not count.
        return store.name_index.count_between(
            index_name, parent.sort_bytes, context.sort_bytes, inclusive_lo=False,
        )
    if axis in (Axis.SELF, Axis.PARENT):
        return 1
    if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
        return context.depth
    return None


def axis_count_exact(
    store: "MassStore", context: FlexKey, axis: Axis, test: NodeTest
) -> int | None:
    """Exact hit count of one axis step via O(log n) range counts, or None.

    This is the subset of :func:`axis_count_upper` that is provably exact:
    axes whose result is one contiguous name run with no depth filter
    (descendant, descendant-or-self, following) under an index-resolvable
    node test.  ``NodeSetValue.count()`` uses it to answer ``count(...)``
    without materializing a single key — the paper's O(log n) counting
    contract.  Child/attribute need a depth filter (upper bound only) and
    preceding's range includes ancestors, so those return None.
    """
    index_name = index_name_for_test(test, axis.principal_kind)
    if index_name is None:
        return None
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        lo, hi = _subtree_range(context)
        count = store.name_index.count_between(index_name, lo, hi, inclusive_lo=False)
        if axis is Axis.DESCENDANT_OR_SELF:
            record = store.fetch(context)
            if record is not None and _record_matches(record, axis, test, selfish=True):
                count += 1
        return count
    if axis is Axis.FOLLOWING:
        if context.is_document():
            return 0
        return store.name_index.count_between(
            index_name, context.subtree_upper_bound_bytes(), None
        )
    return None
