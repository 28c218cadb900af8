"""Unit tests for the packed vertical-bitmap index (``repro.db.vertical``)."""

import time

import pytest

from repro.db import io
from repro.db.counting import CountingDeadline, get_counter
from repro.db.disk import DiskTransactionDatabase
from repro.db.roaring import ChunkedIntIndex, RoaringIndex
from repro.db.snapshot import (
    load_snapshot,
    snapshot_database,
    write_partitioned_snapshot,
)
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import (
    HAVE_NUMPY,
    IntBitmapIndex,
    LruPrefixCache,
    PackedBitmapIndex,
    PackedCounter,
    PrefixIntersector,
    build_index,
    build_vertical,
    popcount,
)

TRANSACTIONS = [[1, 2, 3], [1, 2], [2, 3], [3], []]
GROUND_TRUTH = {
    (): 5,
    (1,): 2,
    (2,): 3,
    (3,): 3,
    (1, 2): 2,
    (1, 3): 1,
    (2, 3): 2,
    (1, 2, 3): 1,
    (9,): 0,
    (1, 9): 0,
}


def both_indexes():
    indexes = [IntBitmapIndex.from_transactions(TRANSACTIONS)]
    if HAVE_NUMPY:
        indexes.append(PackedBitmapIndex.from_transactions(TRANSACTIONS))
    return indexes


@pytest.mark.parametrize("index", both_indexes(), ids=lambda i: type(i).__name__)
class TestIndexCounts:
    def test_ground_truth(self, index):
        candidates = list(GROUND_TRUTH)
        assert index.counts(candidates) == [GROUND_TRUTH[c] for c in candidates]

    def test_num_rows(self, index):
        assert index.num_rows == len(TRANSACTIONS)

    def test_tiny_chunks_agree(self, index):
        candidates = list(GROUND_TRUTH)
        expected = index.counts(candidates)
        assert index.counts(candidates, chunk_size=1) == expected
        assert index.counts(candidates, chunk_size=3) == expected

    def test_empty_candidate_list(self, index):
        assert index.counts([]) == []

    def test_deadline_check_is_invoked(self, index):
        calls = []
        index.counts(list(GROUND_TRUTH), deadline_check=lambda: calls.append(1))
        assert calls


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
class TestPackedIndex:
    def test_round_trip_matches_int_bitmaps(self):
        packed = PackedBitmapIndex.from_transactions(TRANSACTIONS)
        plain = IntBitmapIndex.from_transactions(TRANSACTIONS)
        candidates = list(GROUND_TRUTH)
        assert packed.counts(candidates) == plain.counts(candidates)

    def test_from_database_reuses_item_bitmaps(self):
        db = TransactionDatabase(TRANSACTIONS)
        index = PackedBitmapIndex.from_database(db)
        assert index.counts([(2, 3)]) == [2]

    def test_long_candidate_from_mfcs(self):
        # pass-1 MFCS candidates can span the whole universe
        universe = list(range(200))
        index = PackedBitmapIndex.from_transactions(
            [universe, universe[:50]], universe
        )
        assert index.counts([tuple(universe)]) == [1]

    def test_shared_prefix_path_matches_generic(self):
        # >=256 candidates of length 3 routes through the levelwise
        # prefix-dedup path; verify against the naive engine
        transactions = [[t % 7, t % 5 + 10, t % 3 + 20] for t in range(100)]
        db = TransactionDatabase(transactions)
        candidates = sorted(
            {
                (a, b + 10, c + 20)
                for a in range(7)
                for b in range(5)
                for c in range(3)
            }
        ) * 2
        expected = get_counter("naive").count(db, candidates)
        index = PackedBitmapIndex.from_database(db)
        actual = dict(zip(candidates, index.counts(candidates)))
        assert actual == expected

    def test_non_table_items_fall_back_to_dict_mapping(self):
        # huge item ids exceed MAX_TABLE_ITEM: the O(1) lookup table is
        # skipped but counting still works
        huge = PackedBitmapIndex.MAX_TABLE_ITEM + 5
        index = PackedBitmapIndex.from_transactions([[1, huge], [huge]])
        assert index._row_table is None
        assert index.counts([(1,), (huge,), (1, huge)]) == [1, 2, 1]


HUGE = PackedBitmapIndex.MAX_TABLE_ITEM + 5

#: name -> (rows, explicit universe or None).  64/65 rows straddle the
#: packing word boundary; 130 rows span three words.
BUILDER_CASES = {
    "rows-0": ([], None),
    "empty-baskets": ([[], [1, 2], [], [2]], None),
    **{
        "rows-%d" % n: (
            [[t % 3, 3 + t % 5] if t % 7 else [] for t in range(n)], None
        )
        for n in (1, 63, 64, 65, 130)
    },
    "zero-support-universe": ([[1, 4], [4], []], [0, 1, 2, 4, 9]),
    "huge-ids": ([[1, HUGE], [HUGE], [HUGE + 1, 2]], None),
}


def reference_bitmaps(rows, universe):
    """Brute force: bit ``t`` of item ``i`` iff ``i in rows[t]``."""
    if universe is None:
        universe = {item for row in rows for item in row}
    return {
        item: sum(1 << t for t, row in enumerate(rows) if item in row)
        for item in sorted(universe)
    }


def on_disk(tmp_path, rows, universe):
    # blank lines are skipped by the basket format and a basket file
    # cannot name zero-support items, so the disk database sees the
    # non-empty rows over the occurring items
    stored = [row for row in rows if row]
    path = tmp_path / "db.dat"
    io.save(TransactionDatabase(stored), path)
    return DiskTransactionDatabase(path).vertical(), stored, None


def snapshot_backed(tmp_path, rows, universe, **partitions):
    path = snapshot_database(
        TransactionDatabase(rows, universe), tmp_path / "db.snap", **partitions
    )
    db = DiskTransactionDatabase(tmp_path / "absent.dat", snapshot=path)
    return db.vertical(), rows, universe


def v2_writer(tmp_path, rows, universe):
    items = universe if universe is not None else {i for row in rows for i in row}
    path = write_partitioned_snapshot(
        tmp_path / "db.snap", items, len(rows), iter(rows), partition_rows=64
    )
    return load_snapshot(path).vertical(), rows, universe


#: consumer -> (tmp_path, rows, universe) -> (view, rows it saw, universe)
VIEW_CONSUMERS = {
    "memory": lambda tmp, rows, universe: (
        TransactionDatabase(rows, universe).vertical(), rows, universe
    ),
    "disk": on_disk,
    "snapshot-v1": snapshot_backed,
    "snapshot-v2": lambda tmp, rows, universe: snapshot_backed(
        tmp, rows, universe, partition_rows=64
    ),
    "v2-writer": v2_writer,
}

INDEX_CLASSES = {
    "packed": PackedBitmapIndex,
    "int": IntBitmapIndex,
    "roaring": RoaringIndex,
    "chunked": ChunkedIntIndex,
}


@pytest.mark.parametrize("case", BUILDER_CASES)
@pytest.mark.parametrize("consumer", sorted(VIEW_CONSUMERS) + sorted(INDEX_CLASSES))
def test_vertical_view_matches_reference(consumer, case, tmp_path):
    """Every consumer of the builder agrees with per-row membership."""
    rows, universe = BUILDER_CASES[case]
    if consumer in INDEX_CLASSES:
        if consumer in ("packed", "roaring") and not HAVE_NUMPY:
            pytest.skip("requires NumPy")
        index = INDEX_CLASSES[consumer].from_view(build_vertical(rows, universe))
        items = sorted(reference_bitmaps(rows, universe)) + [-1]  # -1: unknown
        candidates = [()] + [(a,) for a in items] + [
            (a, b) for a in items for b in items if a < b
        ]
        want = [sum(1 for row in rows if set(c) <= set(row)) for c in candidates]
        assert index.num_rows == len(rows)
        assert index.counts(candidates) == want
        return
    view, seen, universe = VIEW_CONSUMERS[consumer](tmp_path, rows, universe)
    expected = reference_bitmaps(seen, universe)
    stride = 8 * max(1, (len(seen) + 63) // 64)
    assert view.universe == tuple(expected)
    assert view.num_rows == len(seen)
    assert view.int_bitmaps() == expected
    assert bytes(view.buffer) == b"".join(
        value.to_bytes(stride, "little") for value in expected.values()
    )
    assert view.item_counts() == {
        item: popcount(value) for item, value in expected.items()
    }
    if HAVE_NUMPY:
        assert view.matrix().tobytes() == bytes(view.buffer)


def test_item_outside_the_universe_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="outside the universe"):
        build_vertical([[1], [1, 5]], universe=[1, 2])
    with pytest.raises(ValueError, match="outside the universe"):
        write_partitioned_snapshot(
            tmp_path / "bad.snap", [1, 2], 2, iter([[1], [1, 5]])
        )


class TestPrefixIntersector:
    def lookup(self, item):
        return {1: 0b0111, 2: 0b0011, 3: 0b0101}.get(item)

    def test_intersections_and_reuse(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection((1, 2)) == 0b0011
        assert cache.intersection((1, 2, 3)) == 0b0001
        # (1, 2) was reused from the stack; only item 3 was combined anew
        assert cache.reused == 2
        assert cache.intersections == 3

    def test_unknown_item_poisons_candidate_only(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection((1, 9)) is None
        assert cache.intersection((2,)) == 0b0011

    def test_empty_candidate_is_top(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection(()) == 0b1111


class TestLruPrefixCache:
    def lookup(self, item):
        return {1: 0b0111, 2: 0b0011, 3: 0b0101, 4: 0b1001}.get(item)

    def make(self, capacity=4096):
        return LruPrefixCache(
            self.lookup, lambda a, b: a & b, 0b1111,
            capacity_per_level=capacity,
        )

    def test_results_match_direct_intersection(self):
        cache = self.make()
        assert cache.intersection((1, 2)) == 0b0011
        assert cache.intersection((1, 2, 3)) == 0b0001
        assert cache.intersection((1, 9)) is None
        assert cache.intersection(()) == 0b1111

    def test_cache_persists_across_batches(self):
        cache = self.make()
        cache.intersection((1, 2))
        hits_before = cache.hits
        # a later batch reuses the stored (1, 2) prefix: two hits
        assert cache.intersection((1, 2, 4)) == 0b0001
        assert cache.hits == hits_before + 2
        assert cache.misses == 3  # items 1, 2, 4 combined exactly once

    def test_eviction_bounds_each_level(self):
        cache = self.make(capacity=2)
        for prefix in ((1, 2), (1, 3), (1, 4)):
            cache.intersection(prefix)
        assert cache.evictions == 1
        # level 1 holds only (1,); level 2 holds the 2 most recent
        assert cache.size == 3
        # the evicted (1, 2) is recomputed: misses, not hits
        misses_before = cache.misses
        cache.intersection((1, 2))
        assert cache.misses == misses_before + 1

    def test_lru_order_refreshes_on_hit(self):
        cache = self.make(capacity=2)
        cache.intersection((1, 2))
        cache.intersection((1, 3))
        cache.intersection((1, 2))  # refresh (1, 2)
        cache.intersection((1, 4))  # evicts (1, 3), not (1, 2)
        hits_before = cache.hits
        cache.intersection((1, 2))
        assert cache.hits == hits_before + 2

    def test_cached_none_is_not_a_miss_sentinel_conflict(self):
        cache = self.make()
        assert cache.intersection((9,)) is None
        misses_before = cache.misses
        assert cache.intersection((9,)) is None  # served from cache
        assert cache.misses == misses_before

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            self.make(capacity=0)

    def test_clear(self):
        cache = self.make()
        cache.intersection((1, 2))
        cache.clear()
        assert cache.size == 0


class TestBuildIndex:
    def test_force_python(self):
        index = build_index(TRANSACTIONS, force_python=True)
        assert isinstance(index, IntBitmapIndex)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
    def test_prefers_numpy(self):
        index = build_index(TRANSACTIONS)
        assert isinstance(index, PackedBitmapIndex)


class TestPackedCounter:
    def test_index_cached_per_database(self):
        counter = PackedCounter()
        db = TransactionDatabase(TRANSACTIONS)
        counter.count(db, [(1,)])
        first = counter._index
        counter.count(db, [(2,)])
        assert counter._index is first
        other = TransactionDatabase([[5]])
        counter.count(other, [(5,)])
        assert counter._index is not first

    def test_force_python_counter_matches(self):
        db = TransactionDatabase(TRANSACTIONS)
        candidates = list(GROUND_TRUTH)
        assert (
            PackedCounter(force_python=True).count(db, candidates)
            == GROUND_TRUTH
        )

    def test_expired_deadline_aborts(self):
        counter = PackedCounter()
        counter.deadline = time.perf_counter() - 1.0
        with pytest.raises(CountingDeadline):
            counter.count(TransactionDatabase(TRANSACTIONS), [(1,)])


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount((1 << 200) - 1) == 200


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
class TestFusedTiledKernel:
    """Cache-blocked fused AND+popcount vs the reference index.

    The fused path only engages on wide matrices (``num_words >=
    FUSED_MIN_WORDS``), so these tests lower the threshold on one
    *instance* and shrink ``TILE_WORDS`` below ``num_words`` to force
    multiple tiles — including a ragged final tile — then compare against
    ``IntBitmapIndex`` ground truth.
    """

    ROWS = 300  # 5 words: tile=3 gives one full tile + a ragged one

    def _db(self):
        transactions = [
            sorted({t % 7, t % 11 + 10, t % 3 + 30, (t * 13) % 5 + 40})
            for t in range(self.ROWS)
        ]
        return TransactionDatabase(transactions)

    def _fused_index(self, db):
        index = PackedBitmapIndex.from_database(db)
        assert index.num_words == (self.ROWS + 63) // 64
        index.FUSED_MIN_WORDS = 1
        index.TILE_WORDS = 3
        return index

    def test_matches_reference_without_prefix_plan(self):
        # a short candidate list stays below the plan threshold (256),
        # exercising the in-place column-AND branch of the fused loop
        db = self._db()
        index = self._fused_index(db)
        candidates = [
            (),
            (0,),
            (0, 10),
            (0, 10, 30),
            (1, 12, 31, 42),
            (99,),
            (0, 99),
        ]
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected

    def test_matches_reference_with_prefix_plan(self):
        # >=256 same-length candidates route through the hoisted prefix
        # plan, replayed per word tile
        db = self._db()
        index = self._fused_index(db)
        candidates = sorted(
            {
                (a, b + 10, c + 30)
                for a in range(7)
                for b in range(11)
                for c in range(3)
            }
        ) * 2
        assert len(candidates) >= 256
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected

    def test_prefix_accounting_still_reported(self):
        db = self._db()
        index = self._fused_index(db)
        candidates = sorted(
            {(a, b + 10, 30) for a in range(7) for b in range(11)}
        ) * 4
        index.counts(candidates)
        assert index.prefix_hits > 0
        assert index.prefix_misses > 0

    def test_tile_larger_than_matrix_is_one_tile(self):
        db = self._db()
        index = self._fused_index(db)
        index.TILE_WORDS = 10 ** 6
        candidates = [(0,), (0, 10), (1, 12, 31)]
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected
