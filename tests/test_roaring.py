"""Differential suite for the compressed counting tier.

The roaring engine is a fallback ladder — roaring (NumPy hybrid
containers), packed, chunked-int ``bitmap``, and plain ``python`` — and
the whole point of the ladder is that every rung returns *byte-identical*
counts, so the tier choice is purely a performance decision.  These tests
pin that: randomized databases shaped to exercise every container kind
(sparse array columns, dense bitmap spans, clustered run columns), plus
the degenerate shapes the container ops special-case — empty columns,
all-ones columns, single-row chunks, duplicate candidates, and
candidates naming items that occur nowhere.
"""

import random

import pytest

from repro.db.roaring import (
    ARRAY_MAX,
    CHUNK_SIZE,
    ChunkedIntIndex,
    RoaringCounter,
    RoaringIndex,
    TIER_LADDER,
)
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY

NUM_TRIALS = 8


def ladder_counters():
    return {tier: lambda t=tier: RoaringCounter(force_tier=t) for t in TIER_LADDER}


def random_database(rng):
    """Small random db with a universe wider than the occurring items."""
    num_items = rng.randint(1, 24)
    transactions = []
    for _ in range(rng.randint(0, 80)):
        size = rng.randint(0, min(10, num_items))
        transactions.append(rng.sample(range(num_items), size))
    return TransactionDatabase(
        transactions, universe=range(num_items + rng.randint(0, 3))
    )


def random_candidates(rng, db):
    universe = list(db.universe) or [0]
    candidates = []
    for _ in range(rng.randint(0, 50)):
        size = rng.randint(0, min(6, len(universe)))
        candidates.append(tuple(sorted(rng.sample(universe, size))))
    candidates.append(())
    candidates.append((max(universe) + 17,))
    candidates.append((universe[0], max(universe) + 17))
    if candidates and candidates[0]:
        candidates.append(candidates[0])  # duplicate of an earlier candidate
    return candidates


@pytest.mark.parametrize("tier", sorted(TIER_LADDER))
def test_randomised_ladder_equivalence_with_naive(tier):
    rng = random.Random(7041)
    for trial in range(NUM_TRIALS):
        db = random_database(rng)
        candidates = random_candidates(rng, db)
        expected = get_counter("naive").count(db, candidates)
        actual = RoaringCounter(force_tier=tier).count(db, candidates)
        assert actual == expected, "trial %d: tier %s diverged" % (trial, tier)


def multi_container_database():
    """A multi-chunk db whose columns hit all three container kinds.

    Item 0 is dense (bitmap span), item 1 is one solid run, item 2 is
    all-ones, items 3+ are a sparse tail; the row count crosses a chunk
    boundary so span arithmetic and absent-chunk skipping both fire.
    """
    rng = random.Random(11)
    num_rows = CHUNK_SIZE + 4096
    baskets = []
    for row in range(num_rows):
        basket = {2}  # all-ones column
        if rng.random() < 0.5:
            basket.add(0)
        if CHUNK_SIZE // 2 <= row < CHUNK_SIZE // 2 + 9000:
            basket.add(1)
        basket.add(rng.randint(3, 300))
        baskets.append(sorted(basket))
    return TransactionDatabase(baskets, universe=range(302))


def test_ladder_identical_on_multi_container_database():
    db = multi_container_database()
    rng = random.Random(13)
    candidates = []
    for _ in range(400):
        size = rng.randint(1, 4)
        candidates.append(tuple(sorted(rng.sample(range(0, 40), size))))
    candidates += [(), (2,), (0, 1, 2), (300, 301), (301,)]
    candidates.append(candidates[0])
    reference = None
    for tier in TIER_LADDER:
        counts = RoaringCounter(force_tier=tier).count(db, candidates)
        if reference is None:
            reference = counts
        else:
            assert counts == reference, "tier %s diverged" % tier
    # the all-ones column must count every row
    assert reference[(2,)] == len(db)


@pytest.mark.skipif(not HAVE_NUMPY, reason="roaring rung needs NumPy")
def test_container_kinds_match_column_shapes():
    db = multi_container_database()
    index = RoaringIndex.from_database(db)
    mix = index.container_counts()
    assert mix["bitmap"] >= 1  # the dense item-0 column
    assert mix["run"] >= 2  # the solid-run and all-ones columns
    assert mix["array"] >= 200  # the sparse tail
    # compression must beat the flat packed layout on this shape
    assert index.compressed_bytes() < index.dense_bytes()


@pytest.mark.skipif(not HAVE_NUMPY, reason="roaring rung needs NumPy")
def test_empty_and_all_ones_columns():
    num_rows = CHUNK_SIZE + 77  # cross a chunk boundary
    baskets = [[0] for _ in range(num_rows)]
    baskets[5] = [0, 2]
    db = TransactionDatabase(baskets, universe=range(4))
    index = RoaringIndex.from_database(db)
    candidates = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    counts = dict(zip(candidates, index.counts(candidates)))
    assert counts[(0,)] == num_rows
    assert counts[(1,)] == 0  # empty column: never stored
    assert counts[(2,)] == 1
    assert counts[(0, 1)] == 0
    assert counts[(0, 2)] == 1
    assert counts[(1, 2)] == 0
    assert counts[(0, 1, 2)] == 0


def test_forced_tier_steps_down_without_numpy(monkeypatch):
    import repro.db.roaring as roaring_module

    monkeypatch.setattr(roaring_module, "HAVE_NUMPY", False)
    counter = RoaringCounter(force_tier="roaring")
    db = TransactionDatabase([[0, 1], [1]], universe=range(3))
    counts = counter.count(db, [(0,), (1,), (0, 1)])
    assert counts == {(0,): 1, (1,): 2, (0, 1): 1}
    assert counter.tier == "bitmap"
    packed_counter = RoaringCounter(force_tier="packed")
    packed_counter.count(db, [(0,)])
    assert packed_counter.tier == "python"


def test_unknown_tier_rejected():
    with pytest.raises(ValueError):
        RoaringCounter(force_tier="zram")


def test_tier_resolution_follows_density():
    dense_db = TransactionDatabase(
        [[0, 1, 2] for _ in range(64)], universe=range(3)
    )
    sparse_rows = [[i % 97] for i in range(2000)]
    sparse_db = TransactionDatabase(sparse_rows, universe=range(97))
    dense_counter = RoaringCounter()
    dense_counter.count(dense_db, [(0,)])
    sparse_counter = RoaringCounter()
    sparse_counter.count(sparse_db, [(0,)])
    if HAVE_NUMPY:
        assert dense_counter.tier == "packed"
        assert sparse_counter.tier == "roaring"
    else:
        assert dense_counter.tier == "python"
        assert sparse_counter.tier == "bitmap"
    assert dense_counter.density > sparse_counter.density


def test_chunked_int_index_skips_absent_chunks():
    num_rows = 3 * CHUNK_SIZE
    baskets = [[] for _ in range(num_rows)]
    baskets[10] = [0]
    baskets[2 * CHUNK_SIZE + 5] = [0, 1]
    db = TransactionDatabase(baskets, universe=range(2))
    index = ChunkedIntIndex.from_database(db)
    # only the two occupied chunks are stored
    assert set(index._columns[0].chunks) == {0, 2}
    assert set(index._columns[1].chunks) == {2}
    counts = index.counts([(0,), (1,), (0, 1)])
    assert counts == [2, 1, 1]


def test_prefix_cache_accounting_and_reset():
    db = TransactionDatabase(
        [[0, 1, 2], [0, 1], [1, 2], [0, 2]], universe=range(3)
    )
    # pin a walk-based rung: the packed tier's blocked kernel only starts
    # sharing prefixes once blocks are large enough to be worth planning
    counter = RoaringCounter(force_tier="roaring")
    counter.count(db, [(0, 1), (0, 1, 2), (0, 2)])
    assert counter.prefix_cache_hits > 0
    assert counter.prefix_cache_misses > 0
    counter.reset()
    assert counter.prefix_cache_hits == 0
    assert counter.prefix_cache_misses == 0
