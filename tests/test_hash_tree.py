"""Tests for the Apriori hash tree."""

import random

import pytest

from repro.db.hash_tree import HashTree


def brute_counts(candidates, transactions):
    return {
        candidate: sum(
            1 for t in transactions if set(candidate) <= t
        )
        for candidate in candidates
    }


class TestHashTree:
    def test_counts_simple(self):
        candidates = [(1, 2), (1, 3), (2, 3)]
        transactions = [frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({3})]
        tree = HashTree(candidates)
        assert tree.counts_by_itemset(transactions) == {
            (1, 2): 2, (1, 3): 1, (2, 3): 1,
        }

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            HashTree([(1,), (1, 2)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HashTree([], branch=1)
        with pytest.raises(ValueError):
            HashTree([], leaf_capacity=0)

    def test_empty_tree(self):
        tree = HashTree([])
        assert len(tree) == 0
        assert tree.count_database([frozenset({1})]) == []

    def test_short_transactions_skipped(self):
        tree = HashTree([(1, 2, 3)])
        assert tree.counts_by_itemset([frozenset({1, 2})]) == {(1, 2, 3): 0}

    def test_splitting_under_small_leaf_capacity(self):
        candidates = [(i, i + 1, i + 2) for i in range(1, 40)]
        tree = HashTree(candidates, branch=4, leaf_capacity=2)
        depth, leaves = tree.depth_profile()
        assert depth >= 1
        assert leaves > 1
        transactions = [frozenset(range(1, 15))]
        counts = tree.counts_by_itemset(transactions)
        assert counts == brute_counts(candidates, transactions)

    def test_no_double_counting_through_hash_collisions(self):
        # items 1 and 9 collide modulo 8: a transaction containing both
        # reaches the same subtree twice but must count each candidate once
        candidates = [(1, 9)]
        tree = HashTree(candidates, branch=8, leaf_capacity=1)
        assert tree.counts_by_itemset([frozenset({1, 9})]) == {(1, 9): 1}

    def test_randomised_against_brute_force(self):
        rng = random.Random(17)
        for k in (1, 2, 3, 4):
            population = list(range(1, 25))
            candidates = list(
                {
                    tuple(sorted(rng.sample(population, k)))
                    for _ in range(50)
                }
            )
            transactions = [
                frozenset(rng.sample(population, rng.randint(0, 12)))
                for _ in range(80)
            ]
            tree = HashTree(candidates, branch=5, leaf_capacity=3)
            assert tree.counts_by_itemset(transactions) == brute_counts(
                candidates, transactions
            )

