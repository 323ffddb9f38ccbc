"""Property tests for the leaf-run kernels (``get_run`` / ``scan_runs``).

Order-4 trees, so every few keys cross a leaf boundary.  The reference
for both kernels is the sorted key list itself: ``get_run`` must agree
with ``tree.get`` key by key, and the flattened runs must be exactly the
entries an entry-at-a-time scan of the same bounds yields — including
what it charges and where it leaves the cursor when abandoned half way.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mass.btree import BPlusTree, BTreeCursor, hand_back
from repro.mass.pages import BufferPool, PageManager

from tests.mass.test_btree import bound, int_key

KEYS = st.lists(st.integers(0, 400), unique=True, min_size=0, max_size=120)
BOUND = st.one_of(st.none(), st.integers(-5, 405))


def make_tree(keys=(), order: int = 4) -> BPlusTree:
    manager = PageManager()
    tree = BPlusTree(manager, BufferPool(manager, capacity=None), int_key, order=order)
    for key in keys:
        tree.insert(key, f"v{key}")
    return tree


def expected_range(keys, lo, hi, inclusive_lo, inclusive_hi, reverse=False):
    """The entries a scan of these bounds must yield, from first principles."""
    chosen = [
        key
        for key in sorted(keys)
        if (lo is None or (key >= lo if inclusive_lo else key > lo))
        and (hi is None or (key <= hi if inclusive_hi else key < hi))
    ]
    if reverse:
        chosen.reverse()
    return [(key, f"v{key}") for key in chosen]


def runs_of(cursor, reverse):
    return cursor.scan_runs_reverse if reverse else cursor.scan_runs


def flatten(runs):
    return [pair for keys, values in runs for pair in zip(keys, values)]


def leaf_count(tree: BPlusTree) -> int:
    """Leaves in the chain, counted without moving any counter."""
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    count = 0
    while node is not None:
        count += 1
        node = node.next
    return count


# -- get_run -------------------------------------------------------------------


class TestGetRun:
    @settings(max_examples=150, deadline=None)
    @given(
        keys=KEYS,
        probes=st.lists(st.integers(-5, 405), max_size=80),
        order=st.sampled_from(["ascending", "shuffled", "descending"]),
        seed=st.integers(0, 10_000),
    )
    def test_agrees_with_get_in_any_order(self, keys, probes, order, seed):
        """Ascending, shuffled, duplicated and absent keys alike."""
        tree = make_tree(keys)
        probes = probes + probes[:5]  # duplicates
        if order == "ascending":
            probes.sort()
        elif order == "descending":
            probes.sort(reverse=True)
        else:
            random.Random(seed).shuffle(probes)
        found = list(BTreeCursor(tree).get_run(map(int_key, probes)))
        assert found == [tree.get(key) for key in probes]

    @settings(max_examples=100, deadline=None)
    @given(
        keys=KEYS,
        edits=st.lists(
            st.tuples(st.booleans(), st.integers(0, 400)), min_size=1, max_size=60
        ),
    )
    def test_agrees_after_random_inserts_and_deletes(self, keys, edits):
        tree = make_tree(keys)
        for insert, key in edits:
            if insert:
                tree.insert(key, f"v{key}")
            else:
                tree.delete(key)
        tree.check_invariants()
        probes = list(range(-2, 403))
        found = list(BTreeCursor(tree).get_run(map(int_key, probes)))
        assert found == [tree.get(key) for key in probes]

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 400), unique=True, min_size=8, max_size=120),
        pause=st.integers(1, 60),
        fresh=st.lists(st.integers(0, 400), min_size=1, max_size=12),
        doomed=st.lists(st.integers(0, 400), max_size=12),
    )
    def test_modification_between_two_next_calls(self, keys, pause, fresh, doomed):
        """A live generator re-positions after an insert/delete: every
        key looked up after the change sees the post-state."""
        tree = make_tree(keys)
        probes = sorted(keys)
        pause = min(pause, len(probes) - 1)
        live = BTreeCursor(tree).get_run(map(int_key, probes))
        before = list(islice(live, pause))
        assert before == [f"v{key}" for key in probes[:pause]]
        for key in fresh:
            tree.insert(key, f"v{key}")  # splits leaves under the generator
        for key in doomed:
            tree.delete(key)  # may unlink the leaf it stood in
        after = list(live)
        assert after == [tree.get(key) for key in probes[pause:]]

    def test_default_for_absent_keys_and_empty_tree(self):
        missing = object()
        assert list(BTreeCursor(make_tree()).get_run([int_key(1)], missing)) == [missing]
        tree = make_tree([10, 20])
        found = list(BTreeCursor(tree).get_run(map(int_key, [5, 10, 15, 20, 25]), missing))
        assert found == [missing, "v10", missing, "v20", missing]

    def test_ascending_run_walks_leaves_not_the_root(self):
        """N document-ordered look-ups touch <= leaves spanned + height
        pages and make far fewer than N/10 root descents."""
        tree = make_tree(order=8)
        tree.bulk_load([(key, key) for key in range(2_000)])
        probes = list(range(100, 1_900, 2))
        spanned = len({id(tree._find_leaf(int_key(key))[0]) for key in probes})
        tree.metrics.reset()
        tree._manager.stats.reset_io()
        assert list(BTreeCursor(tree).get_run(map(int_key, probes))) == probes
        assert tree.metrics.entries_scanned == len(probes)
        assert tree.metrics.root_descents == 1 < len(probes) / 10
        assert tree._manager.stats.logical_reads <= spanned + tree.height()

    def test_cursor_is_left_pinned_at_the_last_key(self):
        tree = make_tree(range(0, 200, 2))
        cursor = BTreeCursor(tree)
        list(cursor.get_run(map(int_key, [10, 12, 50])))
        tree.metrics.reset()
        assert cursor.get(int_key(52)) == "v52"  # same leaf or its neighbour
        assert tree.metrics.root_descents == 0
        assert tree.metrics.cursor_resumes == 1


# -- scan_runs -----------------------------------------------------------------


class TestScanRuns:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=KEYS,
        lo=BOUND,
        hi=BOUND,
        inclusive_lo=st.booleans(),
        inclusive_hi=st.booleans(),
        reverse=st.booleans(),
    )
    def test_flattened_runs_equal_the_scan(
        self, keys, lo, hi, inclusive_lo, inclusive_hi, reverse
    ):
        tree = make_tree(keys)
        want = expected_range(keys, lo, hi, inclusive_lo, inclusive_hi, reverse)
        bounds = (bound(lo), bound(hi), inclusive_lo, inclusive_hi)
        runs = list(runs_of(BTreeCursor(tree), reverse)(*bounds))
        assert flatten(runs) == want
        assert all(keys_ and len(keys_) == len(values) for keys_, values in runs)
        scan = tree.scan_reverse if reverse else tree.scan
        assert list(scan(*bounds)) == want
        # One charge per entry handed over, however it was packaged.
        tree.metrics.reset()
        list(scan(*bounds))
        assert tree.metrics.entries_scanned == len(want)

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 400), unique=True, min_size=1, max_size=120),
        lo=BOUND,
        hi=BOUND,
        inclusive_lo=st.booleans(),
        inclusive_hi=st.booleans(),
        reverse=st.booleans(),
        take=st.integers(0, 40),
        next_lo=BOUND,
    )
    def test_early_abandonment_then_resumed_scan(
        self, keys, lo, hi, inclusive_lo, inclusive_hi, reverse, take, next_lo
    ):
        """Abandoning a scan charges exactly what was pulled, and the next
        scan through the same cursor is still right."""
        tree = make_tree(keys)
        want = expected_range(keys, lo, hi, inclusive_lo, inclusive_hi, reverse)
        cursor = BTreeCursor(tree)
        scan = cursor.scan_reverse if reverse else cursor.scan
        tree.metrics.reset()
        live = scan(bound(lo), bound(hi), inclusive_lo, inclusive_hi)
        pulled = list(islice(live, take))
        live.close()
        assert pulled == want[:take]
        assert tree.metrics.entries_scanned == len(pulled)
        # The pin (wherever the scan stopped) must not corrupt what follows.
        again = list(cursor.scan(bound(next_lo), None))
        assert again == expected_range(keys, next_lo, None, True, False)

    def test_hand_back_pins_where_the_entry_scan_would(self):
        """Taking k entries of a run leaves the cursor on the k-th, so
        ``past`` answers as it does after an entry-at-a-time scan."""
        tree = make_tree(order=8)
        tree.bulk_load([(key, key) for key in range(100)])
        by_entry, by_run = BTreeCursor(tree), BTreeCursor(tree)
        live = by_entry.scan(int_key(10), None)
        list(islice(live, 3))
        live.close()
        runs = by_run.scan_runs(int_key(10), None)
        _keys, values = next(runs)
        rest = iter(values)
        assert list(islice(rest, 3)) == [10, 11, 12]
        hand_back(runs, rest)
        assert (by_run._leaf, by_run._index) == (by_entry._leaf, by_entry._index)
        assert by_run.past(int_key(12)) and not by_run.past(int_key(13))

    def test_dropped_generator_is_charged_the_whole_run(self):
        tree = make_tree(order=8)
        tree.bulk_load([(key, key) for key in range(100)])
        tree.metrics.reset()
        runs = BTreeCursor(tree).scan_runs()
        keys, _values = next(runs)
        runs.close()
        assert tree.metrics.entries_scanned == len(keys)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_page_touch_per_leaf(self, reverse):
        tree = make_tree(order=8)
        tree.bulk_load([(key, key) for key in range(500)])
        tree._manager.stats.reset_io()
        runs = list(runs_of(BTreeCursor(tree), reverse)())
        assert len(runs) == leaf_count(tree)
        assert tree._manager.stats.logical_reads == len(runs) + tree.height() - 1

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 400), unique=True, min_size=8, max_size=120),
        fresh=st.lists(st.integers(0, 400), min_size=1, max_size=12),
        doomed=st.lists(st.integers(0, 400), max_size=12),
        reverse=st.booleans(),
    )
    def test_modification_while_a_run_is_out(self, keys, fresh, doomed, reverse):
        """Every run handed over is consistent, no entry comes twice, and
        entries untouched by the change that lie ahead all still come."""
        tree = make_tree(keys)
        runs = runs_of(BTreeCursor(tree), reverse)()
        first_keys, _values = next(runs)
        edge = first_keys[-1]
        for key in fresh:
            tree.insert(key, f"v{key}")
        for key in doomed:
            tree.delete(key)
        tree.check_invariants()
        rest = flatten(runs)
        seen = first_keys + [key for key, _value in rest]
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen, reverse=reverse)
        ahead = [
            key
            for key, _value in tree.scan()
            if (key < edge if reverse else key > edge)
        ]
        if reverse:
            ahead.reverse()
        assert [key for key, _value in rest] == ahead

