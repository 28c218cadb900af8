"""Algorithm-level tests for Pincer-Search (repro.core.pincer)."""

import json
from itertools import combinations

import pytest

from repro.core.adaptive import AdaptivePolicy, AlwaysMaintain, NeverMaintain
from repro.core.pincer import PincerSearch, pincer_search, resolve_threshold
from repro.core.result import MiningResult
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase


def toy_db():
    # frequent at 50% (threshold 2 of 4): {1,2,3} and all its subsets
    return TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3, 4]])


class TestBasicMining:
    def test_finds_single_maximal_itemset(self):
        result = pincer_search(toy_db(), 0.5)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_min_count_equivalent_to_fraction(self):
        by_fraction = pincer_search(toy_db(), 0.5)
        by_count = pincer_search(toy_db(), min_count=2)
        assert by_fraction.mfs == by_count.mfs

    def test_everything_infrequent_gives_empty_mfs(self):
        db = TransactionDatabase([[1], [2], [3], [4]])
        assert pincer_search(db, 0.9).mfs == frozenset()

    def test_whole_universe_frequent_in_one_pass(self):
        db = TransactionDatabase([[1, 2, 3]] * 4)
        result = pincer_search(db, 1.0, adaptive=False)
        assert set(result.mfs) == {(1, 2, 3)}
        # the initial MFCS element is counted frequent immediately
        assert result.stats.num_passes == 1
        assert result.stats.total_maximal_found_in_mfcs == 1

    def test_empty_database(self):
        result = pincer_search(TransactionDatabase([]), 0.5)
        assert result.mfs == frozenset()
        assert result.stats.num_passes == 0

    def test_database_with_empty_transactions_only(self):
        result = pincer_search(TransactionDatabase([[], []]), 0.5)
        assert result.mfs == frozenset()

    def test_zero_support_universe_items_are_ignored(self):
        db = TransactionDatabase([[1, 2], [1, 2]], universe=range(1, 30))
        result = pincer_search(db, 0.5)
        assert set(result.mfs) == {(1, 2)}

    def test_singleton_database(self):
        db = TransactionDatabase([[5]])
        assert set(pincer_search(db, 1.0).mfs) == {(5,)}


class TestResultContents:
    def test_supports_cover_mfs_members(self):
        result = pincer_search(toy_db(), 0.5)
        for member in result.mfs:
            assert result.supports[member] == toy_db().support_count(member)

    def test_result_metadata(self):
        result = pincer_search(toy_db(), 0.5)
        assert result.num_transactions == 4
        assert result.min_support_count == 2
        assert result.min_support == 0.5
        assert result.algorithm == "pincer-search"

    def test_pure_variant_is_named_distinctly(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        assert result.algorithm == "pincer-search-pure"

    def test_stats_passes_record_counting_work(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        assert result.stats.num_passes >= 1
        assert result.stats.total_candidates >= 4  # at least C_1


class TestParameterValidation:
    def test_requires_exactly_one_threshold(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db())
        with pytest.raises(ValueError):
            pincer_search(toy_db(), 0.5, min_count=2)

    def test_rejects_nonpositive_min_count(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db(), min_count=0)

    def test_resolve_threshold_on_empty_db(self):
        db = TransactionDatabase([])
        count, fraction = resolve_threshold(db, None, 3)
        assert count == 3
        assert fraction == 1.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db(), 1.5)


class TestEngineAndCounterInjection:
    @pytest.mark.parametrize("engine", ["naive", "bitmap", "hashtree"])
    def test_all_engines_same_answer(self, engine):
        result = pincer_search(toy_db(), 0.5, engine=engine)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_explicit_counter_records_passes(self):
        counter = get_counter("bitmap")
        miner = PincerSearch(adaptive=False)
        result = miner.mine(toy_db(), 0.5, counter=counter)
        assert counter.passes == result.stats.num_passes
        assert counter.records_read == result.stats.records_read


class TestPolicies:
    def test_never_maintain_matches_pure(self):
        never = pincer_search(toy_db(), 0.5, policy=NeverMaintain())
        pure = pincer_search(toy_db(), 0.5, adaptive=False)
        assert never.mfs == pure.mfs

    def test_never_maintain_counts_no_mfcs_candidates(self):
        result = pincer_search(toy_db(), 0.5, policy=NeverMaintain())
        assert all(
            stats.mfcs_candidates == 0 for stats in result.stats.passes
        )
        assert result.stats.total_maximal_found_in_mfcs == 0

    def test_abandonment_midway_still_correct(self):
        db = TransactionDatabase(
            [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2], [3, 4], [5, 6], [5, 6]]
        )
        policy = AdaptivePolicy(futile_passes=1, min_passes=1,
                                abandon_length_cap=50)
        result = pincer_search(db, 2 / 6, policy=policy)
        pure = pincer_search(db, 2 / 6, adaptive=False)
        assert result.mfs == pure.mfs

    def test_observation2_prunes_mfs_subsets(self):
        # with a concentrated database the pure pincer discovers the long
        # maximal itemset top-down and never counts its subsets bottom-up
        db = TransactionDatabase([[1, 2, 3, 4, 5]] * 9 + [[1, 6]])
        result = pincer_search(db, 0.5, adaptive=False)
        assert (1, 2, 3, 4, 5) in result.mfs
        pruned = sum(
            stats.pruned_as_mfs_subsets for stats in result.stats.passes
        )
        assert pruned > 0 or result.stats.num_passes <= 2


class TestPricedAbandonment:
    @staticmethod
    def concentrated_db():
        # every 3-subset of 12 items twice (no 4-subset co-occurs) plus a
        # 6-item block twice: the block is found maximal top-down in
        # pass 3, then pass 4 counts C(12, 4) = 495 infrequent 4-itemsets
        # whose exclusions (plus 12 MFCS elements) outprice rebuilding
        # from level 1 (C(18, 2) = 153 pairs, 339 counted frequents)
        rows = [list(triple) for triple in combinations(range(1, 13), 3)]
        rows.append(list(range(101, 107)))
        return TransactionDatabase(rows * 2)

    def test_abandons_priced_before_the_update(self, tmp_path):
        from repro.obs import capture

        db = self.concentrated_db()
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        result = PincerSearch().mine(db, min_count=2, obs=obs)
        obs.finish()
        assert result.stats.abandon_reason == "priced"
        assert result.stats.abandon_pass == 4
        with open(trace_path, encoding="utf-8") as handle:
            spans = [
                event for event in map(json.loads, handle)
                if event["type"] == "span"
            ]
        (run,) = [span for span in spans if span["name"] == "run"]
        assert run["attrs"]["abandon_reason"] == "priced"
        assert run["attrs"]["abandon_pass"] == 4
        passes = {
            span["attrs"]["k"]: span["span"]
            for span in spans if span["name"] == "pass"
        }
        updated = {
            span["parent"] for span in spans if span["name"] == "mfcs_gen"
        }
        assert passes[3] in updated
        assert passes[4] not in updated
        pure = pincer_search(db, min_count=2, adaptive=False)
        assert result.mfs == pure.mfs
        assert pure.stats.abandon_reason is None

    def test_stats_name_every_abandonment(self):
        never = pincer_search(toy_db(), 0.5, policy=NeverMaintain())
        assert never.stats.abandon_reason == "never-maintain"
        assert never.stats.abandon_pass == 0
        kept = pincer_search(toy_db(), 0.5, adaptive=False)
        assert kept.stats.abandon_reason is None
        assert kept.stats.abandon_pass is None


class TestPruneUncoveredExtension:
    def test_same_answer_with_extension(self):
        with_extension = pincer_search(
            toy_db(), 0.5, adaptive=False, prune_uncovered=True
        )
        without = pincer_search(toy_db(), 0.5, adaptive=False)
        assert with_extension.mfs == without.mfs

    def test_extension_never_counts_more(self):
        db = TransactionDatabase(
            [[1, 2, 3, 4], [1, 2, 3], [2, 3, 4], [1, 3, 4], [1, 2, 4]] * 2
            + [[5, 6]] * 3
        )
        plain = pincer_search(db, 0.3, adaptive=False)
        extended = pincer_search(
            db, 0.3, adaptive=False, prune_uncovered=True
        )
        assert extended.mfs == plain.mfs
        assert (
            extended.stats.total_candidates <= plain.stats.total_candidates
        )

    def test_flag_is_exposed(self):
        assert PincerSearch(prune_uncovered=True).prune_uncovered
        assert not PincerSearch().prune_uncovered


class TestPassAccounting:
    def test_passes_equal_database_reads(self):
        counter = get_counter("bitmap")
        result = PincerSearch(adaptive=False).mine(
            toy_db(), 0.5, counter=counter
        )
        assert result.stats.num_passes == counter.passes

    def test_candidates_after_pass2_excludes_early_passes(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        total = result.stats.total_candidates
        late = result.stats.candidates_after_pass2
        early = sum(
            stats.total_candidates
            for stats in result.stats.passes
            if stats.pass_number <= 2
        )
        assert total == late + early
