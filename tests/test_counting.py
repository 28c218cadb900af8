"""Unit tests for the counting engines (repro.db.counting)."""

import random

import pytest

from repro.db import counting
from repro.db.counting import (
    AUTO_PACKED_MIN_ROWS,
    available_engines,
    engine_decision,
    get_counter,
)
from repro.db.transaction_db import TransactionDatabase


def small_db():
    return TransactionDatabase(
        [[1, 2, 3], [1, 2], [2, 3], [1, 2, 3, 4], [4]], universe=range(1, 6)
    )


CANDIDATES = [(1,), (2,), (5,), (1, 2), (1, 4), (2, 3), (1, 2, 3), (1, 2, 3, 4)]
EXPECTED = {
    (1,): 3, (2,): 4, (5,): 0, (1, 2): 3, (1, 4): 1, (2, 3): 3,
    (1, 2, 3): 2, (1, 2, 3, 4): 1,
}


class TestAllEngines:
    @pytest.mark.parametrize("engine", available_engines())
    def test_counts_match_ground_truth(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), CANDIDATES) == EXPECTED

    @pytest.mark.parametrize("engine", available_engines())
    def test_empty_candidates_cost_nothing(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), []) == {}
        assert counter.passes == 0
        assert counter.records_read == 0

    @pytest.mark.parametrize("engine", available_engines())
    def test_pass_accounting(self, engine):
        counter = get_counter(engine)
        db = small_db()
        counter.count(db, [(1,)])
        counter.count(db, [(2,), (1, 2)])
        assert counter.passes == 2
        assert counter.records_read == 2 * len(db)
        assert counter.itemsets_counted == 3

    @pytest.mark.parametrize("engine", available_engines())
    def test_reset(self, engine):
        counter = get_counter(engine)
        counter.count(small_db(), [(1,)])
        counter.reset()
        assert counter.passes == 0
        assert counter.records_read == 0
        assert counter.itemsets_counted == 0

    @pytest.mark.parametrize("engine", available_engines())
    def test_duplicate_candidates_counted_once(self, engine):
        counter = get_counter(engine)
        counts = counter.count(small_db(), [(1,), (1,)])
        assert counts == {(1,): 3}
        assert counter.itemsets_counted == 1

    @pytest.mark.parametrize("engine", available_engines())
    def test_empty_itemset_supported_by_all_transactions(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), [()]) == {(): 5}

    @pytest.mark.parametrize("engine", available_engines())
    def test_mixed_lengths_single_pass(self, engine):
        counter = get_counter(engine)
        counts = counter.count(small_db(), [(1,), (1, 2, 3), (2, 3)])
        assert counter.passes == 1
        assert counts[(1, 2, 3)] == 2

    @pytest.mark.parametrize("engine", available_engines())
    def test_randomised_agreement_with_naive_scan(self, engine):
        rng = random.Random(3)
        transactions = [
            rng.sample(range(1, 15), rng.randint(0, 8)) for _ in range(60)
        ]
        db = TransactionDatabase(transactions, universe=range(1, 15))
        candidates = [
            tuple(sorted(rng.sample(range(1, 15), rng.randint(1, 4))))
            for _ in range(40)
        ]
        counts = get_counter(engine).count(db, candidates)
        for candidate in candidates:
            assert counts[candidate] == db.support_count(candidate), (
                engine, candidate,
            )


class TestFactory:
    def test_default_engine(self):
        assert get_counter().name == "bitmap"
        assert get_counter("auto").name == "bitmap"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown counting engine"):
            get_counter("btree")

    def test_available_engines_is_sorted(self):
        engines = available_engines()
        assert engines == sorted(engines)
        assert {"naive", "bitmap", "hashtree"} <= set(engines)


def sparse_db(rows):
    """~1.25% column density: the shape ``auto`` once routed to roaring."""
    rng = random.Random(rows)
    return TransactionDatabase(
        [rng.sample(range(200), rng.randint(1, 4)) for _ in range(rows)],
        universe=range(200),
    )


class TestEngineDecision:
    @pytest.mark.parametrize(
        "rows, name, have_numpy, expected",
        [
            (4200, "auto", True, "packed"),
            (4200, None, True, "packed"),
            (4200, "auto", False, "bitmap"),
            (AUTO_PACKED_MIN_ROWS, "auto", True, "packed"),
            (AUTO_PACKED_MIN_ROWS - 1, "auto", True, "bitmap"),
            (300, "auto", False, "bitmap"),
            (4200, "roaring", True, "roaring"),
            (4200, "roaring", False, "roaring"),
            (300, "packed", True, "packed"),
            (300, "naive", False, "naive"),
        ],
    )
    def test_rule(self, monkeypatch, rows, name, have_numpy, expected):
        db = sparse_db(rows)
        monkeypatch.setattr(counting, "HAVE_NUMPY", have_numpy)

        def no_probe():
            raise AssertionError("engine_decision must not measure the data")

        monkeypatch.setattr(db, "item_support_counts", no_probe)
        decision = engine_decision(db, name)
        assert decision.engine == expected
        if name in (None, "auto"):
            assert decision.evidence["rows"] == rows
            assert set(decision.evidence) == {"rows", "reason"}
        else:
            assert decision.evidence == {"reason": "explicit"}


class TestBitmapPrefixCache:
    def test_warm_start_across_passes(self):
        counter = get_counter("bitmap")
        db = small_db()
        counter.count(db, [(1, 2)])
        hits_before = counter.prefix_cache_hits
        # the 2-prefix of pass 3 is exactly the pass-2 candidate
        counter.count(db, [(1, 2, 3)])
        assert counter.prefix_cache_hits >= hits_before + 2

    def test_new_database_invalidates_cache(self):
        counter = get_counter("bitmap")
        counter.count(small_db(), [(1, 2)])
        other = TransactionDatabase([[1], [1, 2]], universe=range(1, 6))
        assert counter.count(other, [(1, 2)])[(1, 2)] == 1
        assert counter.count(other, [(1,)])[(1,)] == 2

    def test_eviction_accounting_with_tiny_capacity(self):
        counter = get_counter("bitmap")
        counter.CACHE_CAPACITY_PER_LEVEL = 1
        db = small_db()
        counter.count(db, [(1, 2), (2, 3), (3, 4)])
        assert counter.prefix_cache_evictions > 0
        # exactness is unaffected by evictions
        assert counter.count(db, CANDIDATES) == EXPECTED

    def test_obs_metrics_emitted(self):
        from repro.obs.instrument import Instrumentation

        counter = get_counter("bitmap")
        counter.obs = obs = Instrumentation()
        counter.count(small_db(), [(1, 2), (1, 2, 3)])
        assert obs.metrics.counter("prefix_cache.misses").value > 0
        assert obs.metrics.gauge("engine.prefix_cache.size").value > 0

    def test_reset_clears_cache_state(self):
        counter = get_counter("bitmap")
        db = small_db()
        counter.count(db, [(1, 2)])
        counter.reset()
        assert counter.prefix_cache_hits == 0
        assert counter.prefix_cache_misses == 0
        assert counter._cache is None
        assert counter.count(db, [(1, 2)])[(1, 2)] == 3
