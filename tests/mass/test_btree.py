"""Counted B+-tree unit and property tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.mass.btree import BPlusTree
from repro.mass.pages import BufferPool, PageManager


def int_key(key: int) -> bytes:
    """Order-preserving byte image of a (possibly negative) test key."""
    return (key + 2**31).to_bytes(4, "big")


def bound(key: int | None) -> bytes | None:
    """A scan/count bound in search-key space (None stays open)."""
    return None if key is None else int_key(key)


def make_tree(order: int = 8, capacity: int | None = None) -> BPlusTree:
    manager = PageManager()
    pool = BufferPool(manager, capacity=capacity)
    return BPlusTree(manager, pool, encode=int_key, order=order)


@pytest.fixture
def thousand():
    tree = make_tree()
    for key in range(1000):
        tree.insert(key, key * 2)
    return tree


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert list(tree.scan()) == []
        assert list(tree.scan_reverse()) == []
        assert tree.first() is None and tree.last() is None
        assert tree.range_count() == 0
        tree.check_invariants()

    def test_single_entry(self):
        tree = make_tree()
        tree.insert(7, "v")
        assert tree.get(7) == "v"
        assert len(tree) == 1
        assert tree.first() == (7, "v") == tree.last()

    def test_replace_value(self):
        tree = make_tree()
        tree.insert(5, "old")
        tree.insert(5, "new")
        assert tree.get(5) == "new"
        assert len(tree) == 1

    def test_contains(self, thousand):
        assert 500 in thousand
        assert 1000 not in thousand

    def test_get_default(self, thousand):
        assert thousand.get(5000, "fallback") == "fallback"

    def test_order_validation(self):
        manager = PageManager()
        with pytest.raises(StorageError):
            BPlusTree(manager, BufferPool(manager), encode=int_key, order=2)

    def test_order_derived_from_page_size(self):
        manager = PageManager(page_size=4096)
        tree = BPlusTree(manager, BufferPool(manager), encode=int_key, entry_bytes=64)
        assert tree.order == 64

    def test_height_grows(self):
        tree = make_tree(order=4)
        heights = set()
        for key in range(200):
            tree.insert(key)
            heights.add(tree.height())
        assert max(heights) >= 3


class TestScans:
    def test_full_forward_scan_sorted(self, thousand):
        keys = [key for key, _ in thousand.scan()]
        assert keys == list(range(1000))

    def test_full_reverse_scan(self, thousand):
        keys = [key for key, _ in thousand.scan_reverse()]
        assert keys == list(range(999, -1, -1))

    def test_range_default_half_open(self, thousand):
        assert [k for k, _ in thousand.scan(bound(10), bound(15))] == [10, 11, 12, 13, 14]

    def test_range_exclusive_lo(self, thousand):
        assert [k for k, _ in thousand.scan(bound(10), bound(15), inclusive_lo=False)] == [11, 12, 13, 14]

    def test_range_inclusive_hi(self, thousand):
        assert [k for k, _ in thousand.scan(bound(10), bound(15), inclusive_hi=True)] == list(range(10, 16))

    def test_reverse_range(self, thousand):
        assert [k for k, _ in thousand.scan_reverse(bound(10), bound(15))] == [14, 13, 12, 11, 10]

    def test_reverse_range_bounds_flags(self, thousand):
        got = [k for k, _ in thousand.scan_reverse(bound(10), bound(15), inclusive_lo=False, inclusive_hi=True)]
        assert got == [15, 14, 13, 12, 11]

    def test_scan_open_lo(self, thousand):
        assert [k for k, _ in thousand.scan(hi=bound(3))] == [0, 1, 2]

    def test_scan_open_hi(self, thousand):
        assert [k for k, _ in thousand.scan(lo=bound(997))] == [997, 998, 999]

    def test_scan_missing_bounds_keys(self, thousand):
        """Bounds need not be stored keys."""
        tree = make_tree()
        for key in range(0, 100, 10):
            tree.insert(key)
        assert [k for k, _ in tree.scan(bound(5), bound(35))] == [10, 20, 30]
        assert [k for k, _ in tree.scan_reverse(bound(5), bound(35))] == [30, 20, 10]

    def test_empty_range(self, thousand):
        assert list(thousand.scan(bound(500), bound(500))) == []

    def test_scan_values(self, thousand):
        assert [v for _, v in thousand.scan(bound(0), bound(3))] == [0, 2, 4]


class TestCounting:
    def test_rank(self, thousand):
        assert thousand.rank(bound(0)) == 0
        assert thousand.rank(bound(500)) == 500
        assert thousand.rank(bound(500), inclusive=True) == 501
        assert thousand.rank(bound(10_000)) == 1000

    def test_range_count_matches_scan(self, thousand):
        rng = random.Random(7)
        for _ in range(50):
            lo = rng.randint(-10, 1010)
            hi = rng.randint(-10, 1010)
            if lo > hi:
                lo, hi = hi, lo
            expected = len(list(thousand.scan(bound(lo), bound(hi))))
            assert thousand.range_count(bound(lo), bound(hi)) == expected

    def test_count_does_not_touch_interior_leaves(self):
        """The counted descent must visit O(height) nodes, not O(n)."""
        tree = make_tree(order=8)
        tree.bulk_load([(key, None) for key in range(10_000)])
        tree.metrics.reset()
        tree.range_count(bound(100), bound(9_900))
        assert tree.metrics.node_visits <= 4 * tree.height()
        assert tree.metrics.entries_scanned == 0

    def test_count_open_bounds(self, thousand):
        assert thousand.range_count() == 1000
        assert thousand.range_count(lo=bound(990)) == 10
        assert thousand.range_count(hi=bound(10)) == 10

    def test_count_inclusive_hi(self, thousand):
        assert thousand.range_count(bound(0), bound(9), inclusive_hi=True) == 10


class TestDelete:
    def test_delete_present(self, thousand):
        assert thousand.delete(500)
        assert thousand.get(500) is None
        assert len(thousand) == 999
        thousand.check_invariants()

    def test_delete_absent(self, thousand):
        assert not thousand.delete(5000)
        assert len(thousand) == 1000

    def test_delete_all(self):
        tree = make_tree(order=4)
        for key in range(100):
            tree.insert(key)
        for key in range(100):
            assert tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0
        assert list(tree.scan()) == []

    def test_counts_stay_exact_after_deletes(self, thousand):
        for key in range(0, 1000, 2):
            thousand.delete(key)
        assert thousand.range_count(bound(0), bound(1000)) == 500
        assert thousand.rank(bound(501)) == 250

    def test_delete_then_reinsert(self, thousand):
        thousand.delete(500)
        thousand.insert(500, "back")
        assert thousand.get(500) == "back"
        thousand.check_invariants()

    def test_reverse_scan_after_heavy_deletes(self):
        tree = make_tree(order=4)
        for key in range(200):
            tree.insert(key)
        for key in range(0, 200, 3):
            tree.delete(key)
        expected = sorted(set(range(200)) - set(range(0, 200, 3)), reverse=True)
        assert [k for k, _ in tree.scan_reverse()] == expected


class TestBulkLoad:
    def test_bulk_load_round_trip(self):
        tree = make_tree()
        tree.bulk_load([(key, str(key)) for key in range(5000)])
        tree.check_invariants()
        assert len(tree) == 5000
        assert tree.get(4321) == "4321"

    def test_bulk_load_replaces(self, thousand):
        thousand.bulk_load([(1, "one")])
        assert len(thousand) == 1
        assert thousand.get(1) == "one"

    def test_bulk_load_empty(self):
        tree = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0
        tree.check_invariants()

    def test_bulk_load_rejects_unsorted(self):
        tree = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(2, None), (1, None)])

    def test_bulk_load_rejects_duplicates(self):
        tree = make_tree()
        with pytest.raises(StorageError):
            tree.bulk_load([(1, None), (1, None)])

    def test_insert_after_bulk_load(self):
        tree = make_tree()
        tree.bulk_load([(key, None) for key in range(0, 100, 2)])
        for key in range(1, 100, 2):
            tree.insert(key)
        tree.check_invariants()
        assert [k for k, _ in tree.scan()] == list(range(100))

    def test_bulk_load_frees_old_pages(self):
        manager = PageManager()
        tree = BPlusTree(manager, BufferPool(manager), encode=int_key, order=8)
        for key in range(1000):
            tree.insert(key)
        pages_before = manager.live_pages
        tree.bulk_load([(key, None) for key in range(10)])
        assert manager.live_pages < pages_before


class TestPaging:
    def test_buffer_pool_hits(self):
        tree = make_tree(order=8)
        tree.bulk_load([(key, None) for key in range(10_000)])
        pool = tree._buffer
        pool.stats.reset()
        for _ in range(10):
            tree.get(5000)
        assert pool.stats.hits > 0

    def test_cold_cache_counts_physical_reads(self):
        manager = PageManager()
        pool = BufferPool(manager, capacity=0)
        tree = BPlusTree(manager, pool, encode=int_key, order=8)
        tree.bulk_load([(key, None) for key in range(1000)])
        manager.stats.reset_io()
        tree.get(500)
        assert manager.stats.physical_reads == manager.stats.logical_reads > 0

    def test_lru_eviction(self):
        manager = PageManager()
        pool = BufferPool(manager, capacity=4)
        tree = BPlusTree(manager, pool, encode=int_key, order=4)
        tree.bulk_load([(key, None) for key in range(500)])
        pool.stats.reset()
        list(tree.scan())
        assert pool.stats.evictions > 0
        assert pool.resident_pages <= 4


class TestRandomized:
    def test_random_against_dict(self):
        rng = random.Random(99)
        tree = make_tree(order=6)
        model: dict[int, int] = {}
        for step in range(3000):
            key = rng.randint(0, 400)
            if rng.random() < 0.6:
                tree.insert(key, step)
                model[key] = step
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        tree.check_invariants()
        assert sorted(model.items()) == list(tree.scan())

    @given(st.lists(st.integers(0, 200), max_size=80), st.lists(st.integers(0, 200), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_insert_delete_property(self, inserts, deletes):
        tree = make_tree(order=4)
        model: dict[int, None] = {}
        for key in inserts:
            tree.insert(key)
            model[key] = None
        for key in deletes:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        tree.check_invariants()
        assert [key for key, _ in tree.scan()] == sorted(model)

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=120, unique=True),
        st.integers(-10, 1010),
        st.integers(-10, 1010),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_count_property(self, keys, lo, hi):
        tree = make_tree(order=5)
        tree.bulk_load([(key, None) for key in sorted(keys)])
        if lo > hi:
            lo, hi = hi, lo
        expected = sum(1 for key in keys if lo <= key < hi)
        assert tree.range_count(bound(lo), bound(hi)) == expected
