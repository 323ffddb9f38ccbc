"""BTreeCursor: resume-instead-of-redescend scans over the counted B+-tree."""

from __future__ import annotations

from repro.mass.btree import BPlusTree, BTreeCursor
from repro.mass.pages import BufferPool, PageManager

from tests.mass.test_btree import bound, int_key


def make_tree(order: int = 8, entries: int = 1000) -> BPlusTree:
    manager = PageManager()
    pool = BufferPool(manager, capacity=None)
    tree = BPlusTree(manager, pool, encode=int_key, order=order)
    for key in range(entries):
        tree.insert(key, key * 2)
    return tree


class TestScanEquivalence:
    def test_full_scan_matches_tree_scan(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        assert list(cursor.scan(None, None)) == list(tree.scan(None, None))

    def test_bounded_scans_match_tree_scan(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        for lo, hi, ilo, ihi in [
            (100, 200, True, False),
            (100, 200, False, True),
            (0, 1000, True, False),
            (999, None, True, False),
            (None, 5, True, False),
            (500, 500, True, True),
            (700, 600, True, False),  # empty range
        ]:
            expected = list(
                tree.scan(bound(lo), bound(hi), inclusive_lo=ilo, inclusive_hi=ihi)
            )
            got = list(
                cursor.scan(bound(lo), bound(hi), inclusive_lo=ilo, inclusive_hi=ihi)
            )
            assert got == expected, (lo, hi, ilo, ihi)

    def test_reverse_scans_match_tree_scan_reverse(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        for lo, hi, ilo, ihi in [
            (100, 200, True, False),
            (100, 200, False, True),
            (None, 50, True, True),
            (950, None, True, False),
        ]:
            expected = list(
                tree.scan_reverse(
                    bound(lo), bound(hi), inclusive_lo=ilo, inclusive_hi=ihi
                )
            )
            got = list(
                cursor.scan_reverse(
                    bound(lo), bound(hi), inclusive_lo=ilo, inclusive_hi=ihi
                )
            )
            assert got == expected, (lo, hi, ilo, ihi)

    def test_empty_tree_scans_nothing(self):
        manager = PageManager()
        tree = BPlusTree(
            manager, BufferPool(manager, capacity=None), encode=int_key, order=8
        )
        cursor = BTreeCursor(tree)
        assert list(cursor.scan(None, None)) == []
        assert list(cursor.scan_reverse(None, None)) == []


class TestResume:
    def test_nearby_ranges_resume_without_descending(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        tree.metrics.reset()
        # One descent to position, then a run of adjacent short ranges —
        # exactly the shape axis evaluation produces.
        for lo in range(100, 400, 3):
            list(cursor.scan(bound(lo), bound(lo + 3)))
        assert tree.metrics.cursor_resumes > 0
        # The first range descends; nearly every later one resumes.
        assert tree.metrics.root_descents <= 5

    def test_distant_seek_falls_back_to_descent(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        list(cursor.scan(bound(0), bound(3)))
        tree.metrics.reset()
        list(cursor.scan(bound(900), bound(903)))  # far from the pinned leaf
        assert tree.metrics.root_descents == 1

    def test_past_skips_covered_range(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        list(cursor.scan(bound(500), bound(510)))
        # Cursor is pinned at >= 510; any range ending at or before that
        # bound is provably behind it.
        assert cursor.past(bound(505))
        assert cursor.past(bound(510))
        assert not cursor.past(bound(900))

    def test_fresh_cursor_is_never_past(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        assert not cursor.past(bound(0))


class TestInvalidation:
    def test_insert_invalidates_pin(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        list(cursor.scan(bound(100), bound(110)))
        tree.insert(105, -1)  # bumps _mods
        assert not cursor.past(bound(100))
        tree.metrics.reset()
        list(cursor.scan(bound(110), bound(120)))
        assert tree.metrics.cursor_resumes == 0
        assert tree.metrics.root_descents >= 1

    def test_scan_after_modification_stays_correct(self):
        tree = make_tree(entries=200)
        cursor = BTreeCursor(tree)
        list(cursor.scan(bound(50), bound(60)))
        for key in range(200, 260):
            tree.insert(key, key * 2)
        tree.delete(55)
        expected = list(tree.scan(bound(40), bound(240)))
        assert list(cursor.scan(bound(40), bound(240))) == expected

    def test_abandoned_scan_does_not_clobber_newer_position(self):
        tree = make_tree()
        cursor = BTreeCursor(tree)
        stale = cursor.scan(bound(100), bound(900))
        next(stale)  # partially consumed, then abandoned
        list(cursor.scan(bound(500), bound(510)))  # newer scan repositions the cursor
        del stale  # finalizer runs; token mismatch must keep the new pin
        assert cursor.past(bound(505))
        assert not cursor.past(bound(900))
