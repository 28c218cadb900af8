"""Unit tests for the adaptivity policy (repro.core.adaptive)."""

import pytest

from repro.core.adaptive import AdaptivePolicy, AlwaysMaintain, NeverMaintain


class TestDefaults:
    def test_fresh_policy_keeps_mfcs(self):
        policy = AdaptivePolicy()
        assert policy.keep_mfcs(1, 10, 100, 0)
        assert not policy.abandoned

    def test_caps_are_exposed_for_updates(self):
        policy = AdaptivePolicy(mfcs_size_cap=7, mfcs_work_cap=99)
        assert policy.update_size_cap == 7
        assert policy.update_work_cap == 99


class TestTriggers:
    def test_size_cap_abandons(self):
        policy = AdaptivePolicy(mfcs_size_cap=5)
        assert not policy.keep_mfcs(2, 6, 1000, 0)
        assert policy.abandoned

    def test_ratio_cap_abandons(self):
        policy = AdaptivePolicy(mfcs_ratio_cap=2.0)
        assert not policy.keep_mfcs(2, 50, 10, 0)
        assert policy.abandoned

    def test_futility_counts_consecutive_empty_passes(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1)
        assert policy.keep_mfcs(1, 5, 100, 0)   # streak 1
        assert not policy.keep_mfcs(2, 5, 100, 0)  # streak 2 -> abandon

    def test_futility_resets_on_discovery(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1)
        assert policy.keep_mfcs(1, 5, 100, 0)
        assert policy.keep_mfcs(2, 5, 100, 3)   # found maximal: reset
        assert policy.keep_mfcs(3, 5, 100, 0)
        assert not policy.keep_mfcs(4, 5, 100, 0)

    def test_futility_waits_for_min_passes(self):
        policy = AdaptivePolicy(futile_passes=1, min_passes=4)
        for pass_number in range(1, 4):
            assert policy.keep_mfcs(pass_number, 5, 100, 0)
        assert not policy.keep_mfcs(4, 5, 100, 0)

    def test_futility_disabled_with_zero(self):
        policy = AdaptivePolicy(futile_passes=0)
        for pass_number in range(1, 30):
            assert policy.keep_mfcs(pass_number, 5, 100, 0)

    def test_abandonment_is_permanent(self):
        policy = AdaptivePolicy(mfcs_size_cap=1)
        assert not policy.keep_mfcs(1, 5, 100, 0)
        # even a pass that would look fine stays abandoned
        assert not policy.keep_mfcs(2, 1, 100, 5)

    def test_forced_abandon(self):
        policy = AdaptivePolicy()
        policy.abandon()
        assert policy.abandoned
        assert not policy.keep_mfcs(1, 1, 100, 5)


class TestPricing:
    """With a non-empty MFS, keep/abandon compares keep and rebuild prices."""

    @staticmethod
    def after_pass1(**overrides):
        # pass 1: 5 frequent singletons of 9 -> rebuild = C(5, 2) = 10;
        # MFS still empty, so the old triggers (all quiet here) decide
        policy = AdaptivePolicy(**overrides)
        assert policy.keep_after_classification(1, 5, 9, mfcs_size=1)
        assert policy.rebuild_price == 10
        return policy

    def test_frequent_counts_accumulate(self):
        policy = self.after_pass1()
        # all 4 pass-2 candidates frequent: Σ = 9, still under C(5, 2)
        assert policy.keep_after_classification(2, 4, 4, mfs_size=1)
        assert policy.rebuild_price == 10
        assert policy.keep_after_classification(3, 6, 6, mfs_size=1)
        assert policy.rebuild_price == 15

    def test_keep_equal_to_rebuild_keeps(self):
        policy = self.after_pass1()
        # |S_2| + infrequent MFCS + |MFCS| = 6 + 2 + 2 = 10 == rebuild
        assert policy.keep_after_classification(
            2, 0, 6, mfcs_size=2, mfs_size=1, infrequent_mfcs=2
        )
        assert not policy.abandoned
        assert policy.keep_mfcs(2, 10, 0, 0, mfs_size=1)
        assert not policy.abandoned

    def test_keep_over_rebuild_abandons_before_update(self):
        policy = self.after_pass1()
        assert not policy.keep_after_classification(
            2, 0, 6, mfcs_size=3, mfs_size=1, infrequent_mfcs=2
        )
        assert policy.abandoned
        assert policy.abandon_reason == "priced"

    def test_mfcs_over_rebuild_abandons_after_generation(self):
        policy = self.after_pass1()
        assert not policy.keep_mfcs(2, 11, 1000, 0, mfs_size=1)
        assert policy.abandon_reason == "priced"

    def test_prices_replace_the_old_triggers(self):
        # 0 of 200 pass-2 candidates frequent and |MFCS| over the ratio
        # cap: both old triggers would fire, but keeping is cheaper
        policy = AdaptivePolicy()
        assert policy.keep_after_classification(1, 50, 60, mfcs_size=1)
        assert policy.keep_after_classification(
            2, 0, 200, mfcs_size=30, mfs_size=5, infrequent_mfcs=3
        )
        assert policy.keep_mfcs(2, 30, 0, 0, mfs_size=5)
        assert not policy.abandoned

    def test_empty_mfs_defers_to_old_triggers(self):
        # the same pass abandons on the frequent ratio when no maximal
        # itemset is known: the sweep then only resumes at level k
        policy = AdaptivePolicy()
        assert policy.keep_after_classification(1, 50, 60, mfcs_size=1)
        assert not policy.keep_after_classification(
            2, 0, 200, mfcs_size=30, infrequent_mfcs=3
        )
        assert policy.abandon_reason == "frequent-ratio"
        policy = AdaptivePolicy()
        assert not policy.keep_mfcs(2, 30, 0, 0)
        assert policy.abandon_reason == "ratio-cap"

    def test_length_cap_blocks_priced_abandonment(self):
        policy = self.after_pass1(abandon_length_cap=10)
        assert policy.keep_after_classification(
            2, 0, 6, longest_maximal=11, mfcs_size=1000, mfs_size=1,
            infrequent_mfcs=1000,
        )
        assert policy.keep_mfcs(2, 1000, 0, 0, 11, mfs_size=1)
        assert not policy.abandoned

    def test_pass_one_bills_no_infrequent_singletons(self):
        # a warm query knows its MFS at pass 1: 6 of 9 singletons are
        # infrequent, but excluding them splits no element, so keeping
        # costs |infrequent MFCS| + |MFCS| = 1 + 2 against C(3, 2) = 3
        policy = AdaptivePolicy()
        assert policy.keep_after_classification(
            1, 3, 9, mfcs_size=2, mfs_size=1, infrequent_mfcs=1
        )
        assert not policy.abandoned
        assert not policy.keep_after_classification(
            2, 0, 6, mfcs_size=2, mfs_size=1, infrequent_mfcs=1
        )
        assert policy.abandon_reason == "priced"

    def test_always_maintain_ignores_prices(self):
        policy = AlwaysMaintain()
        assert policy.keep_after_classification(1, 2, 9, mfcs_size=1)
        assert policy.keep_after_classification(
            2, 0, 6, mfcs_size=1000, mfs_size=1, infrequent_mfcs=1000
        )
        assert policy.keep_mfcs(2, 1000, 0, 0, mfs_size=1)
        assert not policy.abandoned


class TestLengthGuard:
    def test_long_maximal_blocks_all_triggers(self):
        policy = AdaptivePolicy(
            mfcs_size_cap=1, mfcs_ratio_cap=0.001, futile_passes=1,
            min_passes=1, abandon_length_cap=10,
        )
        # every trigger condition holds, but a 15-item maximal was found
        assert policy.keep_mfcs(5, 1000, 1, 0, longest_maximal=15)
        assert not policy.abandoned

    def test_short_maximal_does_not_block(self):
        policy = AdaptivePolicy(mfcs_size_cap=1, abandon_length_cap=10)
        assert not policy.keep_mfcs(5, 1000, 1, 0, longest_maximal=3)

    def test_length_guard_resets_futility_streak(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1,
                                abandon_length_cap=5)
        assert policy.keep_mfcs(1, 5, 100, 0)            # streak 1
        assert policy.keep_mfcs(2, 5, 100, 0, longest_maximal=9)
        assert policy.keep_mfcs(3, 5, 100, 0)            # streak restarts
        assert not policy.keep_mfcs(4, 5, 100, 0)


class TestValidation:
    def test_rejects_bad_size_cap(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mfcs_size_cap=0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mfcs_ratio_cap=0)

    def test_rejects_bad_pass_thresholds(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(min_passes=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(futile_passes=-1)


class TestFixedPolicies:
    def test_always_maintain_never_gives_up(self):
        policy = AlwaysMaintain()
        for pass_number in range(1, 40):
            assert policy.keep_mfcs(pass_number, 10 ** 6, 0, 0)
        assert policy.update_size_cap is None
        assert policy.update_work_cap is None

    def test_always_maintain_refuses_forced_abandon(self):
        with pytest.raises(AssertionError):
            AlwaysMaintain().abandon()

    def test_never_maintain_starts_abandoned(self):
        policy = NeverMaintain()
        assert policy.abandoned
        assert not policy.keep_mfcs(0, 1, 0, 0)


class TestPassRateEstimator:
    def test_none_until_first_observation(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator()
        assert estimator.rate is None
        assert estimator.observe(0, 1.0) is None     # nothing counted
        assert estimator.observe(100, 0.0) is None   # clock too coarse

    def test_first_observation_sets_rate_exactly(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator()
        assert estimator.observe(500, 0.5) == 1000.0

    def test_ewma_smooths_subsequent_passes(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator(alpha=0.5)
        estimator.observe(1000, 1.0)   # 1000 c/s
        assert estimator.observe(3000, 1.0) == 2000.0  # (1000+3000)/2

    def test_alpha_validation(self):
        from repro.core.adaptive import PassRateEstimator

        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                PassRateEstimator(alpha=bad)

    def test_miner_feeds_engine_note_pass_rate(self):
        # the pincer miner times every engine.count and forwards the
        # smoothed rate through SupportCounter.note_pass_rate
        from repro.core.pincer import PincerSearch
        from repro.db.counting import get_counter
        from repro.db.transaction_db import TransactionDatabase

        rates = []
        engine = get_counter("bitmap")
        engine.note_pass_rate = rates.append
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3]] * 5)
        PincerSearch().mine(db, 0.2, counter=engine)
        assert rates
        assert all(r is None or r > 0.0 for r in rates)
