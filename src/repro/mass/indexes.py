"""The three clustered MASS indexes.

MASS keeps every document in three counted B+-trees:

* **node index** — FLEX key → :class:`NodeRecord`; clustered in document
  order, so any axis whose result is a key range becomes one sequential
  leaf walk.
* **name index** — ``(index name, FLEX key) → node kind``; one namespaced
  entry per named node (elements under their name, attributes under
  ``@name``, text under ``#text``, comments under ``#comment``, processing
  instructions under ``?target``).  Per-name counts and per-name subtree
  counts are O(log n) range counts.
* **value index** — ``(string value, FLEX key) → node kind``; one entry per
  text node and attribute value.  This is the index that lets VAMANA answer
  ``text() = 'Yung Flach'`` with a single lookup (where eXist falls back to
  tree traversal) and gives the cost model exact text counts (TC).

The composite keys order the string first, the FLEX key second, so all
entries for one name/value form one contiguous run.  Each tree searches an
order-preserving byte encoding of its keys (:func:`composite_sort_bytes`
for the composite indexes, :attr:`FlexKey.sort_bytes` for the node index),
so every search, scan bound and range count operates on flat ``bytes`` at
C speed.  Index-level range methods accept either FLEX keys or pre-encoded
byte bounds, so axis evaluation can hand over subtree prefix ranges
without re-deriving them.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from repro.mass.btree import BPlusTree, BTreeCursor, flatten_runs
from repro.mass.flexkey import FlexKey
from repro.mass.pages import BufferPool, PageManager
from repro.mass.records import NodeKind, NodeRecord
from repro.model import NodeTest, NodeTestKind

#: FLEX-key bounds accepted by the index range methods: a key, its
#: pre-encoded ``sort_bytes`` image, or None for an open end.
KeyBound = "FlexKey | bytes | None"


def index_name_for(kind: NodeKind, name: str) -> str | None:
    """The name-index namespace key for a node, or None if unindexed."""
    if kind is NodeKind.ELEMENT:
        return name
    if kind is NodeKind.ATTRIBUTE:
        return "@" + name
    if kind is NodeKind.TEXT:
        return "#text"
    if kind is NodeKind.COMMENT:
        return "#comment"
    if kind is NodeKind.PROCESSING_INSTRUCTION:
        return "?" + name
    return None


def index_name_for_test(test: NodeTest, principal: NodeKind) -> str | None:
    """The name-index key a node test maps to, or None if it needs a scan.

    ``*`` and ``node()`` cannot be served by a single name run; they return
    None and the axis machinery falls back to a node-index range scan.
    A targetless ``processing-instruction()`` likewise needs a scan.
    """
    if test.kind is NodeTestKind.NAME:
        if principal is NodeKind.ATTRIBUTE:
            return "@" + test.name
        if principal is NodeKind.ELEMENT:
            return test.name
        return None
    if test.kind is NodeTestKind.TEXT:
        return "#text"
    if test.kind is NodeTestKind.COMMENT:
        return "#comment"
    if test.kind is NodeTestKind.PROCESSING_INSTRUCTION and test.name:
        return "?" + test.name
    return None


# -- byte encodings ------------------------------------------------------------


def escape_text(text: str) -> bytes:
    """Order-preserving, self-terminating byte encoding of a string.

    UTF-8 is code-point order preserving; NUL content bytes are escaped as
    ``0x00 0xFF`` so the ``0x00`` terminator still sorts a prefix string
    below every extension.  The result can be concatenated with a FLEX
    key's ``sort_bytes`` (whose first byte is never ``0xFF``) to form a
    composite search key whose byte order equals tuple order.
    """
    raw = text.encode("utf-8")
    if b"\x00" in raw:
        raw = raw.replace(b"\x00", b"\x00\xff")
    return raw + b"\x00"


def text_prefix_upper(text: str) -> bytes:
    """Exclusive byte bound covering every composite entry for ``text``."""
    return escape_text(text + "\x00")


def composite_sort_bytes(key: tuple) -> bytes:
    """Byte search key of a ``(text, FlexKey)`` composite-index entry."""
    text, flex = key
    return escape_text(text) + flex.sort_bytes


#: Byte search key of a node-index key (``key.sort_bytes``, at C speed).
flex_sort_bytes = attrgetter("sort_bytes")


class NodeIndex:
    """FLEX key → node record, clustered in document order."""

    def __init__(self, manager: PageManager, buffer_pool: BufferPool):
        self.tree = BPlusTree(
            manager, buffer_pool, encode=flex_sort_bytes, entry_bytes=96
        )

    def freeze(self) -> None:
        """Reject further mutation (snapshot publication, see serving)."""
        self.tree.freeze()

    def bulk_load(self, records: list[NodeRecord]) -> None:
        self.tree.bulk_load([(record.key, record) for record in records])

    def insert(self, record: NodeRecord) -> None:
        self.tree.insert(record.key, record)

    def delete(self, key: FlexKey) -> bool:
        return self.tree.delete(key)

    def get(self, key: FlexKey) -> NodeRecord | None:
        return self.tree.get(key)

    def get_run(
        self, keys: Iterable[FlexKey], cursor: BTreeCursor | None = None
    ) -> Iterator[NodeRecord | None]:
        """:meth:`get` for every key in turn, one leaf at a time when the
        keys ascend (see :meth:`BTreeCursor.get_run`).  A ``cursor`` pinned
        near the first key saves the initial descent."""
        if cursor is None:
            cursor = self.cursor()
        return cursor.get_run(map(flex_sort_bytes, keys))

    def scan(
        self,
        lo: "FlexKey | bytes | None",
        hi: "FlexKey | bytes | None",
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
        reverse: bool = False,
    ) -> Iterator[NodeRecord]:
        """The records with keys in the range, one at a time."""
        return flatten_runs(
            self.scan_runs(self.cursor(), lo, hi, inclusive_lo, inclusive_hi, reverse),
            _run_values,
        )

    def count_range(
        self, lo: "FlexKey | bytes | None", hi: "FlexKey | bytes | None"
    ) -> int:
        return self.tree.range_count(_flex_bound(lo), _flex_bound(hi))

    def cursor(self) -> BTreeCursor:
        """A skip-ahead cursor over the node tree (see :class:`BTreeCursor`)."""
        return BTreeCursor(self.tree)

    def get_cursor(self, cursor: BTreeCursor, key: FlexKey) -> NodeRecord | None:
        """:meth:`get` positioned through ``cursor`` (resume-friendly)."""
        return cursor.get(key.sort_bytes)

    def scan_runs(
        self,
        cursor: BTreeCursor,
        lo: "FlexKey | bytes | None",
        hi: "FlexKey | bytes | None",
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
        reverse: bool = False,
    ) -> Iterator[tuple[list[FlexKey], list[NodeRecord]]]:
        """:meth:`scan` a leaf at a time — ``(keys, records)`` slices —
        positioned through ``cursor``, so runs of nearby ranges resume
        from its pinned leaf instead of re-descending (see
        :meth:`BTreeCursor.scan_runs` for the consumer's contract)."""
        runs = cursor.scan_runs_reverse if reverse else cursor.scan_runs
        return runs(_flex_bound(lo), _flex_bound(hi), inclusive_lo, inclusive_hi)

    def __len__(self) -> int:
        return len(self.tree)


class NameIndex:
    """(namespaced name, FLEX key) → node kind."""

    def __init__(self, manager: PageManager, buffer_pool: BufferPool):
        self.tree = BPlusTree(
            manager, buffer_pool, encode=composite_sort_bytes, entry_bytes=56
        )

    def freeze(self) -> None:
        """Reject further mutation (snapshot publication, see serving)."""
        self.tree.freeze()

    def bulk_load(self, entries: list[tuple[str, FlexKey, NodeKind]]) -> None:
        self.tree.bulk_load([((name, key), kind) for name, key, kind in entries])

    def insert(self, name: str, key: FlexKey, kind: NodeKind) -> None:
        self.tree.insert((name, key), kind)

    def delete(self, name: str, key: FlexKey) -> bool:
        return self.tree.delete((name, key))

    def count(self, name: str) -> int:
        """How many nodes carry this index name — O(log n), no data touched."""
        low, high = text_bounds(name)
        return self.tree.range_count(low, high)

    def count_between(
        self,
        name: str,
        lo: "FlexKey | bytes | None",
        hi: "FlexKey | bytes | None",
        inclusive_lo: bool = True,
    ) -> int:
        """Count entries for ``name`` with FLEX keys in [lo, hi)."""
        low, high = text_bounds(name, lo, hi)
        return self.tree.range_count(
            low, high, inclusive_lo=lo is None or inclusive_lo
        )

    def scan(
        self,
        name: str,
        lo: "FlexKey | bytes | None" = None,
        hi: "FlexKey | bytes | None" = None,
        inclusive_lo: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[FlexKey, NodeKind]]:
        """All keys for ``name`` within [lo, hi), forward or reverse."""
        return flatten_runs(
            self.scan_runs(self.cursor(), name, lo, hi, inclusive_lo, reverse),
            _run_flex_entries,
        )

    def cursor(self) -> BTreeCursor:
        """A skip-ahead cursor over the name tree (see :class:`BTreeCursor`)."""
        return BTreeCursor(self.tree)

    def scan_runs(
        self,
        cursor: BTreeCursor,
        name: str,
        lo: "FlexKey | bytes | None" = None,
        hi: "FlexKey | bytes | None" = None,
        inclusive_lo: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[list[tuple[str, FlexKey]], list[NodeKind]]]:
        """:meth:`scan` a leaf at a time — ``(entry keys, kinds)`` slices,
        each entry key a ``(name, FLEX key)`` pair — positioned through
        ``cursor`` for leaf resume (see :meth:`BTreeCursor.scan_runs` for
        the consumer's contract)."""
        low, high = text_bounds(name, lo, hi)
        runs = cursor.scan_runs_reverse if reverse else cursor.scan_runs
        return runs(low, high, inclusive_lo, False)

    def kind_of(self, cursor: BTreeCursor, name: str, key: FlexKey) -> NodeKind | None:
        """Point probe: the kind stored for ``(name, key)``, or None."""
        return cursor.get(escape_text(name) + key.sort_bytes)

    def first(self, name: str, at_or_after: FlexKey | None = None) -> FlexKey | None:
        """Seek the first key for ``name`` at/after a FLEX key (or None)."""
        for key, _kind in self.scan(name, lo=at_or_after):
            return key
        return None

    def distinct_names(self) -> Iterator[str]:
        """Every distinct index name, in order, via a skip-scan.

        Each name costs one O(log n) seek past its last entry, so the
        total work is proportional to the *vocabulary* size, never the
        entry count — the schema resolver depends on that bound.
        """
        entry = self.tree.first()
        while entry is not None:
            name = entry[0][0]
            yield name
            _low, high = text_bounds(name)
            entry = next(iter(self.tree.scan(high, None, True, False)), None)

    def __len__(self) -> int:
        return len(self.tree)


class ValueIndex:
    """(text value, FLEX key) → node kind, for text and attribute nodes."""

    def __init__(self, manager: PageManager, buffer_pool: BufferPool):
        self.tree = BPlusTree(
            manager, buffer_pool, encode=composite_sort_bytes, entry_bytes=72
        )

    def freeze(self) -> None:
        """Reject further mutation (snapshot publication, see serving)."""
        self.tree.freeze()

    def bulk_load(self, entries: list[tuple[str, FlexKey, NodeKind]]) -> None:
        self.tree.bulk_load([((value, key), kind) for value, key, kind in entries])

    def insert(self, value: str, key: FlexKey, kind: NodeKind) -> None:
        self.tree.insert((value, key), kind)

    def delete(self, value: str, key: FlexKey) -> bool:
        return self.tree.delete((value, key))

    def text_count(self, value: str) -> int:
        """TC(value): exact occurrence count — O(log n), index-only."""
        return self.tree.range_count(escape_text(value), text_prefix_upper(value))

    def scan(
        self,
        value: str,
        lo: "FlexKey | bytes | None" = None,
        hi: "FlexKey | bytes | None" = None,
        reverse: bool = False,
    ) -> Iterator[tuple[FlexKey, NodeKind]]:
        low, high = text_bounds(value, lo, hi)
        cursor = BTreeCursor(self.tree)
        runs = cursor.scan_runs_reverse if reverse else cursor.scan_runs
        return flatten_runs(runs(low, high, True, False), _run_flex_entries)

    def scan_value_range(
        self, low_value: str | None, high_value: str | None, inclusive: bool = True
    ) -> Iterator[tuple[str, FlexKey, NodeKind]]:
        """Entries for values in a string range (supports range predicates)."""
        lo, hi = _value_range_bounds(low_value, high_value, inclusive)
        for (value, key), kind in self.tree.scan(lo, hi):
            yield value, key, kind

    def count_value_range(
        self, low_value: str | None, high_value: str | None, inclusive: bool = True
    ) -> int:
        return self.tree.range_count(
            *_value_range_bounds(low_value, high_value, inclusive)
        )

    def __len__(self) -> int:
        return len(self.tree)


_FLEX_OF = itemgetter(1)


def _run_values(_keys: list, values: Iterator) -> Iterator:
    """A node-index run's entries: the records."""
    return values


def _run_flex_entries(keys: list[tuple], values: Iterator) -> Iterator[tuple]:
    """A composite-index run's entries: ``(FLEX key, stored value)``."""
    return zip(map(_FLEX_OF, keys), values)


def _flex_bound(bound: "FlexKey | bytes | None") -> bytes | None:
    """A FLEX-key range bound in search-key space."""
    if bound is None or isinstance(bound, bytes):
        return bound
    return bound.sort_bytes


def text_bounds(
    text: str,
    lo: "FlexKey | bytes | None" = None,
    hi: "FlexKey | bytes | None" = None,
) -> tuple[bytes, bytes]:
    """Composite [lo, hi) search bounds for ``text`` entries in a key range."""
    prefix = escape_text(text)
    low = prefix if lo is None else prefix + _flex_bound(lo)
    high = text_prefix_upper(text) if hi is None else prefix + _flex_bound(hi)
    return low, high


def _value_range_bounds(
    low_value: str | None, high_value: str | None, inclusive: bool
) -> tuple[bytes | None, bytes | None]:
    """Search bounds covering every entry for values in a string range."""
    lo = None if low_value is None else escape_text(low_value)
    if high_value is None:
        return lo, None
    return lo, text_prefix_upper(high_value) if inclusive else escape_text(high_value)
