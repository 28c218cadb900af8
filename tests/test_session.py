"""Resident sessions, the cross-threshold cache, and warm-start seeding.

The load-bearing property is *exact reuse*: a session answering from its
cache and a warm-started MFCS must produce byte-identical results to a
cold one-shot mine at the same threshold.  The randomized ladder here
drives that differentially on both the serial and shm engines.
"""

import random

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.bitset import ItemUniverse
from repro.core.kernel import BitmaskKernel, TupleKernel
from repro.core.pincer import PincerSearch, pincer_search
from repro.core.session import MiningSession, SessionClosedError
from repro.core.supportcache import CachedSupportCounter, SupportCache
from repro.db import io
from repro.db.base import EngineClosedError, SupportCounter
from repro.db.counting import get_counter
from repro.db.disk import DiskTransactionDatabase
from repro.db.parallel import AdaptiveShardScheduler
from repro.db.snapshot import default_snapshot_path
from repro.db.transaction_db import TransactionDatabase
from repro.obs import capture


def random_db(seed: int, num_items: int = 24, rows: int = 300):
    rng = random.Random(seed)
    items = list(range(1, num_items + 1))
    return TransactionDatabase(
        [
            rng.sample(items, rng.randint(2, max(3, num_items // 3)))
            for _ in range(rows)
        ]
    )


class TestSupportCache:
    def test_put_get_roundtrip(self):
        cache = SupportCache(ItemUniverse(range(10)))
        cache.put((1, 2), 7)
        assert cache.get((1, 2)) == 7
        assert cache.get((1, 3)) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_partition_splits_and_dedups(self):
        cache = SupportCache(ItemUniverse(range(10)))
        cache.put((1,), 5)
        hits, misses = cache.partition([(1,), (2,), (1,), (2,)])
        assert hits == {(1,): 5}
        assert misses == [(2,)]

    def test_rotation_never_corrupts(self):
        rng = random.Random(11)
        cache = SupportCache(ItemUniverse(range(40)), max_entries=50)
        reference = {}
        for _ in range(3000):
            key = tuple(sorted(rng.sample(range(40), rng.randint(1, 4))))
            value = rng.randint(0, 10_000)
            cache.put(key, value)
            reference[key] = value
            probe = rng.choice(list(reference))
            got = cache.get(probe)
            # bounded cache may have evicted, but must never be wrong
            assert got is None or got == reference[probe]
        assert cache.rotations > 0
        assert len(cache) <= cache.max_entries

    def test_foreign_items_dropped_at_rotation(self):
        universe = ItemUniverse(range(5))
        cache = SupportCache(universe)
        cache.put((99,), 3)  # not in the universe: young-only
        cache.put((1,), 2)
        assert cache.get((99,)) == 3
        compressed = cache._compress_young()
        assert set(compressed) == {universe.try_mask_of((1,))}


class TestCachedCounter:
    def test_all_hit_batch_bills_no_pass(self):
        db = random_db(1)
        cache = SupportCache(ItemUniverse(db.universe))
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        first = counter.count(db, [(1,), (2,)])
        passes = counter.passes
        second = counter.count(db, [(1,), (2,)])
        assert second == first
        assert counter.passes == passes  # no pass billed on the repeat

    def test_partial_hit_forwards_only_misses(self):
        db = random_db(2)
        cache = SupportCache(ItemUniverse(db.universe))
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        counter.count(db, [(1,)])
        before = counter.inner.itemsets_counted
        merged = counter.count(db, [(1,), (2,)])
        assert set(merged) == {(1,), (2,)}
        assert counter.inner.itemsets_counted == before + 1

    def test_results_match_uncached_engine(self):
        db = random_db(3)
        cache = SupportCache(ItemUniverse(db.universe))
        cached = CachedSupportCounter(get_counter("bitmap"), cache)
        plain = get_counter("bitmap")
        batch = [(i,) for i in db.universe] + [(1, 2), (2, 3)]
        assert cached.count(db, batch) == plain.count(db, batch)
        # and again, now fully from cache
        assert cached.count(db, batch) == plain.count(db, batch)

    def test_delegation_reads_and_writes_inner(self):
        inner = get_counter("bitmap")
        counter = CachedSupportCounter(
            inner, SupportCache(ItemUniverse(range(4)))
        )
        counter.deadline = 123.0
        assert inner.deadline == 123.0
        assert counter.name == inner.name
        counter.close()
        assert inner.closed

    def test_cache_metrics_emitted(self, tmp_path):
        db = random_db(4)
        obs = capture(metrics_path=str(tmp_path / "metrics.json"))
        cache = SupportCache(ItemUniverse(db.universe))
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        counter.obs = obs
        counter.count(db, [(1,), (2,)])
        counter.count(db, [(1,), (2,)])
        counters = obs.metrics.to_dict()["counters"]
        assert counters["cache.hits"] == 2
        assert counters["cache.misses"] == 2
        obs.finish()


class TestEngineLifetime:
    @pytest.mark.parametrize("engine", ["bitmap", "packed"])
    def test_close_is_idempotent_and_seals(self, engine):
        db = random_db(5)
        counter = get_counter(engine)
        counter.count(db, [(1,)])
        counter.close()
        counter.close()  # idempotent
        with pytest.raises(EngineClosedError):
            counter.count(db, [(1,)])

    def test_base_close_guard(self):
        counter = SupportCounter()
        counter.close()
        counter.close()
        with pytest.raises(EngineClosedError):
            counter.count(random_db(6), [(1,)])


class TestSchedulerReset:
    def test_reset_query_clears_miner_rate_only(self):
        scheduler = AdaptiveShardScheduler(num_workers=2)
        scheduler.note_miner_rate(5000.0)
        scheduler.observe("rows", 100, 0.5)
        assert scheduler._miner_rate is not None
        scheduler.reset_query()
        assert scheduler._miner_rate is None
        # per-mode EWMAs describe the machine, not the query: they stay
        assert scheduler._rates["rows"] is not None

    def test_begin_query_reaches_shm_scheduler(self):
        from repro.db.shm import ShmShardedCounter

        db = random_db(7, rows=600)
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(db, [(1,), (2,)])
            counter.note_pass_rate(1234.0)
            if counter._scheduler is not None:
                assert counter._scheduler._miner_rate is not None
                counter.begin_query()
                assert counter._scheduler._miner_rate is None


class TestMakeMfcsFrom:
    @pytest.mark.parametrize(
        "kernel", [TupleKernel(), BitmaskKernel(range(1, 8))]
    )
    def test_seed_keeps_only_maximal_members(self, kernel):
        mfcs = kernel.make_mfcs_from([(1, 2), (1, 2, 3), (4,)])
        assert sorted(mfcs) == [(1, 2, 3), (4,)]

    def test_empty_seed_is_empty(self):
        assert len(TupleKernel().make_mfcs_from([])) == 0


class TestMiningSession:
    def test_results_equal_cold_across_thresholds(self):
        db = random_db(8)
        with MiningSession(db, engine="bitmap") as session:
            for support in (0.02, 0.08, 0.04, 0.08, 0.02):
                warm = session.mine(support)
                cold = pincer_search(db, support)
                assert warm.mfs == cold.mfs
                assert warm.min_support_count == cold.min_support_count

    def test_repeat_query_is_mostly_cached(self):
        db = random_db(9)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.05)
            passes = session.counter.passes
            result = session.mine(0.05)
            assert session.counter.passes <= passes + 1
            assert result.mfs == pincer_search(db, 0.05).mfs

    def test_close_is_idempotent_then_queries_raise(self):
        session = MiningSession(random_db(10), engine="bitmap")
        session.mine(0.1)
        session.close()
        session.close()
        with pytest.raises(SessionClosedError):
            session.mine(0.1)

    def test_estimate_cost_cheapens_after_warmup(self):
        db = random_db(11)
        with MiningSession(db, engine="bitmap") as session:
            cold = session.estimate_cost(0.05)
            assert not cold["warm"]
            session.mine(0.05)
            warm = session.estimate_cost(0.05)
            assert warm["warm"]
            assert warm["singletons_known"]
            higher = session.estimate_cost(0.2)
            assert higher["warm"]  # family at 0.05 seeds 0.2
            lower = session.estimate_cost(0.01)
            assert not lower["warm"]  # nothing mined at or below 0.01

    def test_stats_shape(self):
        with MiningSession(random_db(12), engine="bitmap") as session:
            session.mine(0.1)
            stats = session.stats()
            assert stats["queries"] == 1
            assert stats["cache"]["entries"] > 0
            assert stats["mined_thresholds"]

    def test_rules_reuse_session_counter(self):
        db = random_db(13)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.05)
            passes = session.counter.inner.passes
            rules = session.rules(0.05, min_confidence=0.5)
            # warm re-mine + per-level expansion: a handful of passes at
            # most, far from a cold restart's full ladder
            assert session.counter.inner.passes <= passes + 4
            assert isinstance(rules, list)


ENGINES = ["bitmap", "shm"]


class TestRequestContext:
    def test_mine_fills_timings_and_span_sink(self, tmp_path):
        db = random_db(11)
        obs = capture(trace_path=str(tmp_path / "t.jsonl"))
        with MiningSession(db, engine="bitmap", obs=obs) as session:
            spans = []
            timings = {}
            session.mine(
                0.05, request_id="req-9", span_sink=spans, timings=timings
            )
        obs.finish()
        assert timings["queue_wait_s"] >= 0.0
        assert spans, "bound sink must collect the query's closed spans"
        assert all(
            e["attrs"]["request_id"] == "req-9" for e in spans
        )
        assert "run" in {e["name"] for e in spans}

    def test_counting_rate_calibrates_from_cache_misses(self):
        db = random_db(13)
        with MiningSession(db, engine="bitmap") as session:
            assert session.rate.rate is None
            session.mine(0.05)  # cold: counted passes feed the EWMA
            calibrated = session.rate.rate
            assert calibrated is not None and calibrated > 0
            session.mine(0.05)  # all-cached repeat must not inflate it
            assert session.rate.rate == calibrated
            assert session.stats()["counting_rate"] is not None


class TestWarmStartRandomized:
    """ISSUE satellite: for any dataset and s1 < s2, warm-started MFS at
    s2 is byte-identical to cold MFS at s2, serial and shm engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_warm_equals_cold_at_higher_threshold(self, engine, seed):
        rng = random.Random(seed)
        db = random_db(seed, num_items=rng.randint(10, 30), rows=400)
        s1 = rng.uniform(0.01, 0.06)
        s2 = s1 + rng.uniform(0.01, 0.1)
        cold = PincerSearch(engine=engine).mine(db, s2)
        with MiningSession(db, engine=engine) as session:
            session.mine(s1)  # warms cache + seeds the ledger
            warm = session.mine(s2)
        assert sorted(warm.mfs) == sorted(cold.mfs)
        assert warm.min_support_count == cold.min_support_count
        for member in warm.mfs:
            assert warm.supports[member] == cold.supports[member]

    @pytest.mark.parametrize("seed", [17, 29])
    def test_downward_query_reuses_classifications(self, seed):
        db = random_db(seed)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.08)
            hits_before = session.cache.hits
            low = session.mine(0.02)
        assert session.cache.hits > hits_before
        assert sorted(low.mfs) == sorted(pincer_search(db, 0.02).mfs)

    def test_explicit_seed_matches_cold(self):
        db = random_db(31)
        low = pincer_search(db, 0.02)
        cold = pincer_search(db, 0.06)
        seeded = pincer_search(db, 0.06, initial_mfcs=sorted(low.mfs))
        assert sorted(seeded.mfs) == sorted(cold.mfs)


class TestWarmPricedKeep:
    """A warm query keeps its MFCS when rebuilding would cost more.

    On a scattered database the cold query's pass 2 finds few frequent
    pairs and abandons with an empty MFS.  A warm query just above it
    classifies its seed in pass 1, so its MFS is non-empty from then on:
    abandoning would rebuild every pair of frequent items, while keeping
    costs the few pass-2 exclusions plus a handful of MFCS elements.
    """

    @pytest.fixture(scope="class")
    def scattered_db(self):
        from repro.datagen.configs import SCATTERED, scaled
        from repro.datagen.quest import generate

        return generate(scaled(SCATTERED["T10.I4.D100K"], 1000))

    @pytest.mark.parametrize("kernel", ["bitmask", "tuple"])
    def test_warm_query_above_cold_threshold_keeps_mfcs(
        self, scattered_db, kernel
    ):
        cold_count = scattered_db.absolute_support(0.01)
        with MiningSession(
            scattered_db, engine="bitmap", kernel=kernel
        ) as session:
            cold = session.mine(min_count=cold_count)
            warm = session.mine(min_count=cold_count + 1)
        assert cold.stats.abandon_reason == "frequent-ratio"
        assert cold.stats.abandon_pass == 2
        # kept to the end: no abandonment, hence no completion sweep
        assert warm.stats.abandon_pass is None
        assert warm.stats.abandon_reason is None
        assert sum(p.mfcs_candidates for p in warm.stats.passes) > 0
        pure = PincerSearch(adaptive=False).mine(
            scattered_db, min_count=cold_count + 1
        )
        assert warm.mfs == pure.mfs


class TestPerQueryPolicy:
    """Each query of a session runs on its own copy of the policy, and a
    warm query's pass 1 bills nothing for its infrequent singletons."""

    @pytest.fixture(scope="class")
    def prefix_db(self):
        from repro.datagen.configs import SCATTERED, scaled
        from repro.datagen.quest import generate

        return generate(scaled(SCATTERED["T10.I4.D100K"], 500))

    @staticmethod
    def outcomes(db, counts, **options):
        with MiningSession(db, engine="bitmap", **options) as session:
            return [
                (result.stats.abandon_pass, result.stats.abandon_reason)
                for result in (
                    session.mine(min_count=count) for count in counts
                )
            ]

    def test_policy_prototype_is_not_shared_across_queries(self, prefix_db):
        prototype = AdaptivePolicy()
        shared = self.outcomes(prefix_db, (10, 12, 14), policy=prototype)
        assert shared == self.outcomes(prefix_db, (10, 12, 14))
        assert shared == [(2, "frequent-ratio"), (None, None), (None, None)]
        assert not prototype.abandoned

    def test_warm_pass_one_keeps_mfcs(self, prefix_db):
        with MiningSession(prefix_db, engine="bitmap") as session:
            for count in (10, 11, 12, 13):
                session.mine(min_count=count)
            warm = session.mine(min_count=14)
        assert len(warm.stats.passes) == 1
        assert warm.stats.abandon_pass is None
        assert warm.stats.abandon_reason is None
        pure = PincerSearch(adaptive=False).mine(prefix_db, min_count=14)
        assert warm.mfs == pure.mfs


class TestSnapshotBackedSession:
    """A session opened on a snapshot never parses the basket file."""

    @pytest.mark.parametrize("engine", ["auto", "roaring"])
    def test_auto_open_reads_no_baskets(self, tmp_path, engine):
        # >= 4096 sparse rows: ``roaring`` measures column density (and
        # picks its roaring rung with NumPy) from the snapshot's matrix
        rng = random.Random(5)
        db = TransactionDatabase(
            [rng.sample(range(200), rng.randint(1, 4)) for _ in range(4200)]
        )
        basket = tmp_path / "db.dat"
        io.save(db, basket)
        DiskTransactionDatabase(basket).snapshot()
        snap_db = DiskTransactionDatabase.from_snapshot(
            default_snapshot_path(basket)
        )
        with MiningSession(snap_db, engine=engine) as session:
            assert snap_db.records_streamed == 0
            with MiningSession(
                DiskTransactionDatabase(basket), engine=engine
            ) as from_baskets:
                assert session.decision == from_baskets.decision
            result = session.mine(0.01)
        assert snap_db.records_streamed == 0
        assert sorted(result.mfs) == sorted(pincer_search(db, 0.01).mfs)
