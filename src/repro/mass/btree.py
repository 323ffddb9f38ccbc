"""A counted B+-tree with paged nodes and bidirectional range scans.

This is the index structure behind all three MASS indexes.  Two features
beyond a textbook B+-tree matter for VAMANA:

* **Subtree counts.**  Every node knows how many entries live beneath it, so
  :meth:`BPlusTree.range_count` answers "how many keys in [lo, hi)?" in
  O(log n) by walking only the two boundary paths — never touching the leaf
  data in between.  This is MASS's "compute count on the index level without
  going to data", and it is what makes VAMANA's cost estimation cheap enough
  to run before every query.
* **Reverse scans.**  Leaves are doubly linked, so reverse axes (preceding,
  preceding-sibling, ancestor verification scans) cost the same as forward
  ones.

Every node lives on a page; traversals route through the owning store's
buffer pool so that benchmarks can report pages touched per query.

Search keys
-----------

The tree separates *logical* keys (what callers insert and scans yield)
from *search* keys (what descents and node searches compare).  The
order-preserving ``encode`` function maps one to the other (FLEX keys
encode to :attr:`FlexKey.sort_bytes`, composite index keys to escaped byte
strings); each node keeps a parallel array of byte search keys and searches
it with the stdlib ``bisect`` C implementation.  The ``key_comparisons``
counter is advanced by the calibrated comparison count of a binary search
(``len(keys).bit_length()``).  Point operations (``get``/``insert``/
``delete``) take logical keys and encode them once; range operations
(``scan``/``scan_reverse``/``rank``/``range_count``) take bounds already in
search-key space, because their callers derive them as byte prefixes
(subtree ranges) rather than from a logical key.
"""

from __future__ import annotations

from bisect import bisect_left as _c_bisect_left, bisect_right as _c_bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import StorageError
from repro.mass.pages import BufferPool, Page, PageKind, PageManager

#: Simulated bytes per entry used to derive node fan-out from the page size.
DEFAULT_ENTRY_BYTES = 48


@dataclass(slots=True)
class TreeMetrics:
    """Counters a single tree accumulates across operations.

    ``root_descents`` counts full root-to-leaf positioning walks (point
    lookups, scan starts); ``cursor_resumes`` counts the positionings a
    :class:`BTreeCursor` answered from its pinned leaf instead.  Their
    ratio is the skip-ahead machinery's effectiveness measure.
    """

    key_comparisons: int = 0
    node_visits: int = 0
    entries_scanned: int = 0
    root_descents: int = 0
    cursor_resumes: int = 0

    def reset(self) -> None:
        self.key_comparisons = 0
        self.node_visits = 0
        self.entries_scanned = 0
        self.root_descents = 0
        self.cursor_resumes = 0


class _Leaf:
    __slots__ = ("keys", "skeys", "values", "next", "prev", "page")

    def __init__(self, page: Page):
        self.keys: list[Any] = []
        self.skeys: list[bytes] = []  # parallel search keys
        self.values: list[Any] = []
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None
        self.page = page

    @property
    def count(self) -> int:
        return len(self.keys)


class _Internal:
    __slots__ = ("separators", "children", "counts", "page")

    def __init__(self, page: Page):
        # children[i] holds search keys < separators[i]; children[-1] the rest.
        self.separators: list[Any] = []
        self.children: list[Any] = []
        self.counts: list[int] = []
        self.page = page

    @property
    def count(self) -> int:
        return sum(self.counts)


class BPlusTree:
    """Counted B+-tree mapping comparable keys to values.

    Keys must be unique; composite indexes append the FLEX key to the index
    key to guarantee this.  ``order`` (maximum entries per node) is derived
    from the page size unless given explicitly.  ``encode`` maps a logical
    key to a byte search key whose lexicographic order equals the logical
    order; node searches run on flat byte arrays at C speed.
    """

    def __init__(
        self,
        manager: PageManager,
        buffer_pool: BufferPool,
        encode: Callable[[Any], bytes],
        order: int | None = None,
        entry_bytes: int = DEFAULT_ENTRY_BYTES,
    ):
        self._manager = manager
        self._buffer = buffer_pool
        if order is None:
            order = max(4, manager.page_size // entry_bytes)
        if order < 4:
            raise StorageError(f"B+-tree order must be >= 4, got {order}")
        self._order = order
        self._encode = encode
        self.metrics = TreeMetrics()
        self._root: _Leaf | _Internal = self._new_leaf()
        self._size = 0
        #: Structural modification counter: bumped by insert/delete/bulk_load.
        #: Cursors snapshot it and refuse to resume from a stale pin.
        self._mods = 0
        #: Snapshot isolation: a frozen tree rejects every structural
        #: mutation, so ``_mods`` can never move again and pinned-leaf
        #: cursors stay valid for as long as the snapshot is held — the
        #: property concurrent readers rely on (:mod:`repro.serving`).
        self._frozen = False

    # -- snapshot freezing ----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Make the tree immutable: insert/delete/bulk_load now raise."""
        self._frozen = True

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise StorageError(
                "tree is frozen: it belongs to a published store snapshot"
            )

    # -- node/page plumbing -------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        page = self._manager.allocate(PageKind.LEAF)
        leaf = _Leaf(page)
        page.payload = leaf
        return leaf

    def _new_internal(self) -> _Internal:
        page = self._manager.allocate(PageKind.INTERNAL)
        node = _Internal(page)
        page.payload = node
        return node

    def _visit(self, node: _Leaf | _Internal) -> None:
        self.metrics.node_visits += 1
        self._buffer.touch(node.page)

    def _update_page_usage(self, node: _Leaf | _Internal) -> None:
        entries = len(node.keys) if isinstance(node, _Leaf) else len(node.children)
        node.page.used_bytes = entries * DEFAULT_ENTRY_BYTES
        self._manager.mark_write(node.page)

    # -- comparison helpers (instrumented binary search) ---------------------

    def _bisect_left(self, skeys: list[bytes], skey: bytes) -> int:
        # C-speed byte search; charge the calibrated comparison count a
        # binary search over n keys performs.
        self.metrics.key_comparisons += len(skeys).bit_length()
        return _c_bisect_left(skeys, skey)

    def _bisect_right(self, skeys: list[bytes], skey: bytes) -> int:
        self.metrics.key_comparisons += len(skeys).bit_length()
        return _c_bisect_right(skeys, skey)

    # -- public: size -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        return self._order

    def height(self) -> int:
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    # -- public: point operations --------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        skey = self._encode(key)
        leaf, index = self._find_leaf(skey)
        skeys = leaf.skeys
        if index < len(skeys) and skeys[index] == skey:
            self.metrics.entries_scanned += 1
            return leaf.values[index]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert a new entry; replaces the value if the key exists."""
        self._ensure_mutable()
        self._mods += 1
        split = self._insert_into(self._root, key, self._encode(key), value)
        if split is not None:
            separator, right = split
            new_root = self._new_internal()
            new_root.separators = [separator]
            new_root.children = [self._root, right]
            new_root.counts = [_node_count(self._root), _node_count(right)]
            self._update_page_usage(new_root)
            self._root = new_root

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns True if it was present.

        Underflowed nodes are left slightly under-full rather than eagerly
        rebalanced — deletes are rare in this workload and counts stay
        exact either way.
        """
        self._ensure_mutable()
        self._mods += 1
        removed = self._delete_from(self._root, self._encode(key))
        if removed:
            if isinstance(self._root, _Internal) and len(self._root.children) == 1:
                old = self._root
                self._root = old.children[0]
                self._buffer.forget(old.page)
                self._manager.free(old.page)
        return removed

    # -- public: ordered access ----------------------------------------------

    def first(self) -> tuple[Any, Any] | None:
        if not self._size:
            return None
        node = self._root
        while isinstance(node, _Internal):
            self._visit(node)
            node = node.children[0]
        self._visit(node)
        return node.keys[0], node.values[0]

    def last(self) -> tuple[Any, Any] | None:
        if not self._size:
            return None
        node = self._root
        while isinstance(node, _Internal):
            self._visit(node)
            node = node.children[-1]
        self._visit(node)
        return node.keys[-1], node.values[-1]

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Forward range scan over [lo, hi) by default.

        Bounds are in search-key space; ``None`` bounds are open.  The
        iterator touches each visited leaf page once and charges one
        entry-scan per yielded entry.  A one-off :class:`BTreeCursor`
        does the walking (nothing is pinned yet, so it descends once).
        """
        return BTreeCursor(self).scan(lo, hi, inclusive_lo, inclusive_hi)

    def scan_reverse(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Descending scan of the same range as :meth:`scan`."""
        return BTreeCursor(self).scan_reverse(lo, hi, inclusive_lo, inclusive_hi)

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.scan()

    # -- public: counting ------------------------------------------------------

    def rank(self, skey: bytes, inclusive: bool = False) -> int:
        """Number of stored search keys < ``skey`` (<= if ``inclusive``).

        O(log n): one root-to-leaf descent adding up the counts of skipped
        siblings.  No leaf data outside the boundary path is touched.
        """
        bis = _c_bisect_right if inclusive else _c_bisect_left
        return self._boundary_rank(self._root, skey, bis)

    def range_count(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> int:
        """Count keys in the range (search-key bounds) without fetching them.

        A two-sided range is answered with one joint descent: while both
        boundary paths pass through the same child, their skipped-sibling
        counts cancel in ``rank(hi) - rank(lo)``, so the shared prefix of
        the two descents is walked (and its pages touched) once instead of
        twice.
        """
        if lo is not None and hi is not None:
            return self._range_count_joint(lo, hi, inclusive_lo, inclusive_hi)
        high_rank = self._size if hi is None else self.rank(hi, inclusive=inclusive_hi)
        low_rank = 0 if lo is None else self.rank(lo, inclusive=not inclusive_lo)
        return max(0, high_rank - low_rank)

    def _range_count_joint(
        self, lo: bytes, hi: bytes, inclusive_lo: bool, inclusive_hi: bool
    ) -> int:
        """Single-descent counted-tree range count."""
        bis_lo = _c_bisect_right if not inclusive_lo else _c_bisect_left
        bis_hi = _c_bisect_right if inclusive_hi else _c_bisect_left
        touch = self._buffer.touch
        metrics = self.metrics
        node = self._root
        visits = 0
        comparisons = 0
        while isinstance(node, _Internal):
            visits += 1
            touch(node.page)
            separators = node.separators
            comparisons += 2 * len(separators).bit_length()
            lo_index = bis_lo(separators, lo)
            hi_index = bis_hi(separators, hi)
            if lo_index != hi_index:
                # Paths diverge here: everything strictly between the two
                # boundary children is in-range; finish each side alone.
                between = sum(node.counts[lo_index:hi_index])
                metrics.node_visits += visits
                metrics.key_comparisons += comparisons
                low_rank = self._boundary_rank(node.children[lo_index], lo, bis_lo)
                high_rank = self._boundary_rank(node.children[hi_index], hi, bis_hi)
                return max(0, between + high_rank - low_rank)
            node = node.children[lo_index]
        visits += 1
        touch(node.page)
        skeys = node.skeys
        comparisons += 2 * len(skeys).bit_length()
        metrics.node_visits += visits
        metrics.key_comparisons += comparisons
        return max(0, bis_hi(skeys, hi) - bis_lo(skeys, lo))

    def _boundary_rank(
        self, node: "_Leaf | _Internal", skey: bytes, bis: Callable
    ) -> int:
        """Rank of ``skey`` within one boundary subtree.

        C bisect over flat byte arrays with hoisted locals and one batched
        metrics update per descent.
        """
        touch = self._buffer.touch
        rank = 0
        visits = 0
        comparisons = 0
        while isinstance(node, _Internal):
            visits += 1
            touch(node.page)
            separators = node.separators
            comparisons += len(separators).bit_length()
            child_index = bis(separators, skey)
            if child_index:
                rank += sum(node.counts[:child_index])
            node = node.children[child_index]
        touch(node.page)
        skeys = node.skeys
        metrics = self.metrics
        metrics.node_visits += visits + 1
        metrics.key_comparisons += comparisons + len(skeys).bit_length()
        return rank + bis(skeys, skey)

    # -- public: bulk load -------------------------------------------------------

    def bulk_load(self, items: Iterator[tuple[Any, Any]] | list[tuple[Any, Any]]) -> None:
        """Build the tree bottom-up from key-sorted unique items.

        Replaces current content.  Loading a document this way produces
        ~69%-full leaves like a real clustered bulk load would.
        """
        self._ensure_mutable()
        self._mods += 1
        pairs = list(items)
        encode = self._encode
        skeys = [encode(key) for key, _ in pairs]
        for index in range(1, len(skeys)):
            if not skeys[index - 1] < skeys[index]:
                raise StorageError(
                    "bulk_load input not strictly sorted: "
                    f"{pairs[index - 1][0]!r} !< {pairs[index][0]!r}"
                )
        self._dispose(self._root)
        self._size = 0
        if not pairs:
            self._root = self._new_leaf()
            return
        per_leaf = max(2, (self._order * 2) // 3)
        leaves: list[_Leaf] = []
        previous: _Leaf | None = None
        for start in range(0, len(pairs), per_leaf):
            chunk = pairs[start : start + per_leaf]
            leaf = self._new_leaf()
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [value for _, value in chunk]
            leaf.skeys = skeys[start : start + per_leaf]
            leaf.prev = previous
            if previous is not None:
                previous.next = leaf
            self._update_page_usage(leaf)
            leaves.append(leaf)
            previous = leaf
        self._size = len(pairs)
        level: list[_Leaf | _Internal] = leaves
        per_node = max(2, (self._order * 2) // 3)
        while len(level) > 1:
            parents: list[_Internal] = []
            for start in range(0, len(level), per_node):
                group = level[start : start + per_node]
                parent = self._new_internal()
                parent.children = list(group)
                parent.separators = [self._subtree_min(child) for child in group[1:]]
                parent.counts = [_node_count(child) for child in group]
                self._update_page_usage(parent)
                parents.append(parent)
            level = parents
        self._root = level[0]

    # -- internal: descent ---------------------------------------------------------

    def _find_leaf(self, skey: bytes, right: bool = False) -> tuple[_Leaf, int]:
        """Descend to the leaf for ``skey``; returns (leaf, slot index).

        The leaf slot is the bisect-left position, or bisect-right when
        ``right`` is set (used by exclusive/inclusive scan bounds).
        """
        self.metrics.root_descents += 1
        # Hoisted locals, batched metrics — see _boundary_rank.
        touch = self._buffer.touch
        node = self._root
        visits = 1
        comparisons = 0
        while isinstance(node, _Internal):
            touch(node.page)
            separators = node.separators
            comparisons += len(separators).bit_length()
            node = node.children[_c_bisect_right(separators, skey)]
            visits += 1
        touch(node.page)
        skeys = node.skeys
        metrics = self.metrics
        metrics.node_visits += visits
        metrics.key_comparisons += comparisons + len(skeys).bit_length()
        slot = (_c_bisect_right if right else _c_bisect_left)(skeys, skey)
        return node, slot

    def _leftmost_leaf(self) -> _Leaf:
        self.metrics.root_descents += 1
        node = self._root
        while isinstance(node, _Internal):
            self._visit(node)
            node = node.children[0]
        self._visit(node)
        return node

    def _rightmost_leaf(self) -> _Leaf:
        self.metrics.root_descents += 1
        node = self._root
        while isinstance(node, _Internal):
            self._visit(node)
            node = node.children[-1]
        self._visit(node)
        return node

    def _subtree_min(self, node: _Leaf | _Internal) -> bytes:
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.skeys[0]

    # -- internal: insert ------------------------------------------------------------

    def _insert_into(
        self, node: _Leaf | _Internal, key: Any, skey: bytes, value: Any
    ) -> tuple[bytes, _Leaf | _Internal] | None:
        """Recursive insert; returns (separator, new right sibling) on split."""
        self._visit(node)
        if isinstance(node, _Leaf):
            skeys = node.skeys
            index = self._bisect_left(skeys, skey)
            if index < len(skeys) and skeys[index] == skey:
                node.values[index] = value
                self._manager.mark_write(node.page)
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            skeys.insert(index, skey)
            self._size += 1
            self._update_page_usage(node)
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)
        child_index = self._bisect_right(node.separators, skey)
        had = _node_count(node.children[child_index])
        split = self._insert_into(node.children[child_index], key, skey, value)
        node.counts[child_index] += _node_count(node.children[child_index]) - had
        if split is not None:
            separator, right = split
            node.separators.insert(child_index, separator)
            node.children.insert(child_index + 1, right)
            node.counts[child_index] = _node_count(node.children[child_index])
            node.counts.insert(child_index + 1, _node_count(right))
        self._update_page_usage(node)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = self._new_leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.skeys = leaf.skeys[middle:]
        leaf.skeys = leaf.skeys[:middle]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        self._update_page_usage(leaf)
        self._update_page_usage(right)
        return right.skeys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        middle = len(node.children) // 2
        right = self._new_internal()
        separator = node.separators[middle - 1]
        right.separators = node.separators[middle:]
        right.children = node.children[middle:]
        right.counts = node.counts[middle:]
        node.separators = node.separators[: middle - 1]
        node.children = node.children[:middle]
        node.counts = node.counts[:middle]
        self._update_page_usage(node)
        self._update_page_usage(right)
        return separator, right

    # -- internal: delete ----------------------------------------------------------------

    def _delete_from(self, node: _Leaf | _Internal, skey: Any) -> bool:
        self._visit(node)
        if isinstance(node, _Leaf):
            skeys = node.skeys
            index = self._bisect_left(skeys, skey)
            if index >= len(skeys) or skeys[index] != skey:
                return False
            del node.keys[index]
            del node.values[index]
            del skeys[index]
            self._size -= 1
            self._update_page_usage(node)
            return True
        child_index = self._bisect_right(node.separators, skey)
        child = node.children[child_index]
        removed = self._delete_from(child, skey)
        if removed:
            node.counts[child_index] -= 1
            if _node_count(child) == 0 and len(node.children) > 1:
                self._unlink_empty_child(node, child_index)
            self._update_page_usage(node)
        return removed

    def _unlink_empty_child(self, node: _Internal, child_index: int) -> None:
        child = node.children[child_index]
        if isinstance(child, _Leaf):
            if child.prev is not None:
                child.prev.next = child.next
            if child.next is not None:
                child.next.prev = child.prev
        node.children.pop(child_index)
        node.counts.pop(child_index)
        if child_index < len(node.separators):
            node.separators.pop(child_index)
        else:
            node.separators.pop()
        self._buffer.forget(child.page)
        self._manager.free(child.page)

    # -- internal: teardown -----------------------------------------------------------------

    def _dispose(self, node: _Leaf | _Internal) -> None:
        if isinstance(node, _Internal):
            for child in node.children:
                self._dispose(child)
        self._buffer.forget(node.page)
        self._manager.free(node.page)

    # -- diagnostics ---------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate ordering, linkage and counts; raises StorageError if broken.

        Used by property tests after randomized insert/delete sequences.
        Checks run in search-key space, which must mirror logical order.
        """
        total, _first, _last = self._check_node(self._root, None, None)
        if total != self._size:
            raise StorageError(f"size mismatch: counted {total}, recorded {self._size}")
        # Leaf chain must enumerate exactly the sorted key set.
        chained = [self._encode(key) for key, _ in self.scan()]
        if chained != sorted(chained):
            raise StorageError("leaf chain out of order")
        if len(chained) != self._size:
            raise StorageError("leaf chain length mismatch")

    def _check_node(self, node: _Leaf | _Internal, lo: Any, hi: Any) -> tuple[int, Any, Any]:
        if isinstance(node, _Leaf):
            skeys = node.skeys
            if [self._encode(key) for key in node.keys] != skeys:
                raise StorageError("leaf search keys out of sync with keys")
            for earlier, later in zip(skeys, skeys[1:]):
                if not earlier < later:
                    raise StorageError("leaf keys not strictly sorted")
            for skey in skeys:
                if lo is not None and skey < lo:
                    raise StorageError("leaf key below subtree bound")
                if hi is not None and not skey < hi:
                    raise StorageError("leaf key above subtree bound")
            if not skeys:
                return 0, None, None
            return len(skeys), skeys[0], skeys[-1]
        total = 0
        for index, child in enumerate(node.children):
            child_lo = node.separators[index - 1] if index > 0 else lo
            child_hi = node.separators[index] if index < len(node.separators) else hi
            count, _cf, _cl = self._check_node(child, child_lo, child_hi)
            if count != node.counts[index]:
                raise StorageError(
                    f"count mismatch: child has {count}, parent records {node.counts[index]}"
                )
            total += count
        return total, None, None


class BTreeCursor:
    """A pinned-leaf range scanner that resumes instead of re-descending.

    A plain :meth:`BPlusTree.scan` starts every range with a full
    root-to-leaf descent.  Axis evaluation, however, issues long runs of
    *nearby* ranges — one per context node, in document order — so the
    next range's start almost always lives in the leaf where the previous
    scan stopped (or where it *started*: sibling axes re-scan overlapping
    tails, which is what the seek anchor catches).  The cursor pins
    ``(leaf, slot)`` after every operation and answers the next ``seek``
    by bisecting the pinned, anchor, or directly adjacent leaves; only
    when the target is further away does it fall back to a descent.

    Resumes and descents are tallied in :class:`TreeMetrics`
    (``cursor_resumes`` / ``root_descents``).  A structural modification
    (insert, delete, bulk load) bumps the tree's ``_mods`` stamp and
    silently invalidates the pin — the next positioning simply descends,
    so a cursor can never observe unlinked leaves.  At the store level
    this is the same event that bumps ``MassStore.epoch``.

    Cursors serve *forward and reverse* scans and are single-consumer: a
    scan generator writes its stopping position back into the cursor, so
    interleaving two live scans from one cursor would corrupt the pin
    (each scan stamps a token and only the newest writes back).

    Bulk reads go through the two *leaf-run kernels*: :meth:`get_run`
    (point look-ups for a sequence of keys) and :meth:`scan_runs` /
    :meth:`scan_runs_reverse` (a range as one slice per leaf).  Both
    touch a page, and update the counters, once per leaf instead of once
    per entry, and both re-check ``_mods`` after every yield.  ``scan`` /
    ``scan_reverse`` are the entry-at-a-time view of the run generators.
    """

    __slots__ = ("_tree", "_leaf", "_index", "_anchor", "_mods", "_token")

    def __init__(self, tree: BPlusTree):
        self._tree = tree
        self._leaf: _Leaf | None = None
        self._index = 0
        self._anchor: _Leaf | None = None  # leaf where the last seek landed
        self._mods = -1
        self._token = 0

    # -- positioning ---------------------------------------------------------

    def _pin(self, leaf: _Leaf | None, index: int) -> None:
        self._leaf = leaf
        self._index = index
        self._mods = self._tree._mods

    def _resume(self, skey: Any, right: bool) -> tuple[_Leaf, int] | None:
        """Position for ``skey`` from the pinned neighbourhood, or None."""
        tree = self._tree
        if self._mods != tree._mods:
            return None
        seen: list[_Leaf] = []
        for base in (self._leaf, self._anchor):
            if base is None:
                continue
            for leaf in (base, base.next, base.prev):
                if leaf is None or not leaf.keys or leaf in seen:
                    continue
                seen.append(leaf)
                skeys = leaf.skeys
                if skeys[0] <= skey <= skeys[-1]:
                    tree._visit(leaf)
                    bis = tree._bisect_right if right else tree._bisect_left
                    return leaf, bis(skeys, skey)
        return None

    def seek(self, skey: Any, right: bool = False) -> tuple[_Leaf, int]:
        """Pin the position of the first entry >= ``skey`` (> if ``right``).

        Bounds are in search-key space.
        """
        self._token += 1
        position = self._resume(skey, right)
        if position is None:
            position = self._tree._find_leaf(skey, right=right)
        else:
            self._tree.metrics.cursor_resumes += 1
        leaf, index = position
        self._anchor = leaf
        self._pin(leaf, index)
        return position

    def get(self, skey: Any, default: Any = None) -> Any:
        """Point lookup through the cursor — :meth:`BPlusTree.get` that
        resumes from the pinned neighbourhood instead of descending."""
        if not self._tree._size:
            return default
        leaf, index = self.seek(skey)
        skeys = leaf.skeys
        if index < len(skeys) and skeys[index] == skey:
            return leaf.values[index]
        return default

    def past(self, skey: Any) -> bool:
        """True when the pinned entry already sits at/past ``skey``.

        Lets callers skip a whole range with zero tree operations when the
        cursor's position proves it empty — the cheap half of the zig-zag.
        """
        leaf = self._leaf
        if leaf is None or self._mods != self._tree._mods:
            return False
        skeys = leaf.skeys
        if self._index < len(skeys):
            return skeys[self._index] >= skey
        return False

    # -- leaf-run kernels -----------------------------------------------------

    def get_run(self, skeys: Iterable[bytes], default: Any = None) -> Iterator[Any]:
        """Point look-ups for a sequence of search keys, one leaf at a time.

        Yields ``tree.get``'s answer (the value, or ``default``) for every
        key, in the order given.  Any order is correct; ascending order is
        fast: the kernel positions once (:meth:`seek` — pinned-neighbourhood
        resume, else descent), bisects each further key *inside the current
        leaf from the previous slot*, hops to ``leaf.next`` when the key
        lies there, and positions afresh only across a gap.  Each leaf
        visited costs one page touch and one counter update; hits are
        charged to ``entries_scanned`` like :meth:`BPlusTree.get` charges
        them.

        The tree's ``_mods`` stamp is re-checked after every yield, so a
        generator that outlives an insert or delete re-positions instead of
        reading a leaf that may have been split or unlinked.  The cursor is
        left pinned at the last key's position.
        """
        tree = self._tree
        metrics = tree.metrics
        leaf: _Leaf | None = None
        lkeys: list[bytes] = []
        lvalues: list[Any] = []
        first = last = b""
        slot = size = 0
        mods = -1  # tree stamps are >= 0: the first key always positions
        token = self._token
        lookups = hits = 0
        try:
            for skey in skeys:
                if size and first <= skey <= last and mods == tree._mods:
                    slot = _c_bisect_left(
                        lkeys, skey, slot if lkeys[slot] <= skey else 0
                    )
                    lookups += 1
                else:
                    # Leaving the leaf: one counter update for its look-ups.
                    metrics.key_comparisons += lookups * (size.bit_length() + 3)
                    metrics.entries_scanned += hits
                    lookups = hits = 0
                    following = leaf.next if mods == tree._mods else None
                    if (
                        size
                        and following is not None
                        and following.skeys
                        and last < skey <= following.skeys[-1]
                    ):
                        leaf = following
                        tree._visit(leaf)
                        slot = _c_bisect_left(leaf.skeys, skey)
                        lookups = 1
                    elif leaf is None:
                        leaf, slot = self.seek(skey)
                        token = self._token
                    else:
                        leaf, slot = tree._find_leaf(skey)  # across a gap
                    mods = tree._mods
                    lkeys = leaf.skeys
                    lvalues = leaf.values
                    size = len(lkeys)
                    if size:
                        first = lkeys[0]
                        last = lkeys[-1]
                        if slot == size:
                            slot -= 1  # past the leaf's last key: a miss
                if size and lkeys[slot] == skey:
                    hits += 1
                    yield lvalues[slot]
                else:
                    yield default
        finally:
            metrics.key_comparisons += lookups * (size.bit_length() + 3)
            metrics.entries_scanned += hits
            if leaf is not None and mods == tree._mods and token == self._token:
                self._pin(leaf, slot)

    def scan_runs(
        self,
        lo: Any = None,
        hi: Any = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[list[Any], list[Any]]]:
        """Forward range scan yielding one ``(keys, values)`` slice per leaf.

        The range is :meth:`scan`'s.  Each leaf's share of it is resolved
        with one comparison against the leaf's last key (plus one bisect in
        the leaf where the range ends) instead of one comparison per entry;
        the slices are copies, so the consumer may keep them across tree
        modifications.  ``entries_scanned`` is charged per run.  A consumer
        that stops *inside* a run hands the rest back with
        :func:`hand_back`, and is then charged (and the cursor pinned)
        exactly as the entry-at-a-time scan would have been; one that
        simply drops the generator is charged the whole run it was handed.

        The cursor is left pinned where the scan stops (bound hit,
        exhaustion, or abandonment), ready to resume the next range.  If
        the tree is modified while a run is out, the scan re-descends to just
        past the last entry it handed over.
        """
        tree = self._tree
        if not tree._size:
            return
        if lo is None:
            leaf: _Leaf | None = tree._leftmost_leaf()
            index = 0
            self._token += 1
            self._anchor = leaf
            self._pin(leaf, index)
        else:
            leaf, index = self.seek(lo, right=not inclusive_lo)
        token = self._token
        mods = tree._mods
        metrics = tree.metrics
        bisect_hi = _c_bisect_right if inclusive_hi else _c_bisect_left
        try:
            while leaf is not None:
                skeys = leaf.skeys
                stop = len(skeys)
                ends_here = False
                if hi is not None and index < stop:
                    metrics.key_comparisons += 1
                    last = skeys[-1]
                    if (last > hi) if inclusive_hi else (last >= hi):
                        metrics.key_comparisons += (stop - index).bit_length()
                        stop = bisect_hi(skeys, hi, index)
                        ends_here = True
                if index < stop:
                    start, index = index, stop
                    resume_after = skeys[stop - 1]
                    metrics.entries_scanned += stop - start
                    left = yield leaf.keys[start:stop], leaf.values[start:stop]
                    if left is not None:
                        # Stopped inside the run: un-charge what was handed
                        # back and pin at the last entry taken, where the
                        # entry-at-a-time scan would be.
                        metrics.entries_scanned -= left
                        index = max(stop - left - 1, start)
                        return
                    if tree._mods != mods:
                        mods = tree._mods
                        leaf, index = tree._find_leaf(resume_after, right=True)
                        continue
                if ends_here:
                    return
                leaf = leaf.next
                index = 0
                if leaf is not None:
                    tree._visit(leaf)
        finally:
            # Write the stopping position back — unless a newer scan/seek
            # already moved the cursor (an abandoned generator finalizing
            # late must not clobber it) or the tree changed under the run
            # still out (the leaf may be unlinked by now).
            if token == self._token and mods == tree._mods and leaf is not None:
                self._pin(leaf, index)

    def scan_runs_reverse(
        self,
        lo: Any = None,
        hi: Any = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[list[Any], list[Any]]]:
        """:meth:`scan_runs` over the same range, descending: leaves from
        right to left, each slice reversed."""
        tree = self._tree
        if not tree._size:
            return
        if hi is None:
            leaf: _Leaf | None = tree._rightmost_leaf()
            index = len(leaf.keys) - 1
            self._token += 1
            self._anchor = leaf
            self._pin(leaf, index)
        else:
            leaf, index = self.seek(hi, right=inclusive_hi)
            index -= 1
        token = self._token
        mods = tree._mods
        metrics = tree.metrics
        bisect_lo = _c_bisect_left if inclusive_lo else _c_bisect_right
        try:
            while leaf is not None:
                skeys = leaf.skeys
                start = 0
                ends_here = False
                if lo is not None and index >= 0:
                    metrics.key_comparisons += 1
                    first = skeys[0]
                    if (first < lo) if inclusive_lo else (first <= lo):
                        metrics.key_comparisons += (index + 1).bit_length()
                        start = bisect_lo(skeys, lo, 0, index + 1)
                        ends_here = True
                if start <= index:
                    top, index = index, start - 1
                    resume_before = skeys[start]
                    metrics.entries_scanned += top - index
                    left = yield (
                        leaf.keys[start : top + 1][::-1],
                        leaf.values[start : top + 1][::-1],
                    )
                    if left is not None:
                        metrics.entries_scanned -= left
                        index = min(start + left, top)
                        return
                    if tree._mods != mods:
                        mods = tree._mods
                        leaf, index = tree._find_leaf(resume_before)
                        index -= 1
                        continue
                if ends_here:
                    return
                leaf = leaf.prev
                if leaf is not None:
                    tree._visit(leaf)
                    index = len(leaf.keys) - 1
        finally:
            if token == self._token and mods == tree._mods and leaf is not None:
                self._pin(leaf, max(index, 0))

    # -- scanning ------------------------------------------------------------

    def scan(
        self,
        lo: Any = None,
        hi: Any = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """:meth:`scan_runs` an entry at a time: ``(key, value)`` pairs."""
        return flatten_runs(self.scan_runs(lo, hi, inclusive_lo, inclusive_hi), zip)

    def scan_reverse(
        self,
        lo: Any = None,
        hi: Any = None,
        inclusive_lo: bool = True,
        inclusive_hi: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """:meth:`scan_runs_reverse` an entry at a time."""
        return flatten_runs(
            self.scan_runs_reverse(lo, hi, inclusive_lo, inclusive_hi), zip
        )


def hand_back(runs: Iterator, rest: Iterator) -> None:
    """End a run generator whose consumer stops inside the run in hand.

    ``rest`` is the iterator the consumer was walking the run's values
    with: whatever it still holds was not taken, and is neither charged
    nor skipped by the cursor pin (see :meth:`BTreeCursor.scan_runs`).
    """
    try:
        runs.send(len(list(rest)))
    except StopIteration:
        pass


def flatten_runs(
    runs: Iterator[tuple[list[Any], list[Any]]],
    entries: Callable[[list[Any], Iterator[Any]], Iterable[Any]],
) -> Iterator[Any]:
    """The entry-at-a-time view of a run generator.

    ``entries(keys, values)`` maps one run to the entries to yield — one
    per index entry, pulling ``values`` (an iterator) in step.  Abandoning
    the view mid-run hands the rest back to the kernel, so counters and
    the cursor pin match what was consumed.
    """
    for keys, values in runs:
        rest = iter(values)
        try:
            yield from entries(keys, rest)
        except BaseException:
            hand_back(runs, rest)
            raise


def _node_count(node: _Leaf | _Internal) -> int:
    return node.count
