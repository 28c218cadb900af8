"""Unit tests for the transaction database (repro.db.transaction_db)."""

import pytest

from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY, FlatBaskets, build_vertical


class TestConstruction:
    def test_universe_inferred_from_transactions(self):
        db = TransactionDatabase([[2, 1], [3]])
        assert db.universe == (1, 2, 3)

    def test_explicit_universe_preserved(self):
        db = TransactionDatabase([[1]], universe=range(1, 6))
        assert db.universe == (1, 2, 3, 4, 5)
        assert db.num_items == 5

    def test_explicit_universe_validates_items(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[9]], universe=[1, 2])

    def test_transactions_are_frozensets(self):
        db = TransactionDatabase([[1, 1, 2]])
        assert db[0] == frozenset({1, 2})

    def test_empty_database(self):
        db = TransactionDatabase([])
        assert len(db) == 0
        assert db.universe == ()
        assert db.average_transaction_size() == 0.0

    def test_empty_transactions_are_kept(self):
        db = TransactionDatabase([[], [1]])
        assert len(db) == 2

    def test_equality(self):
        assert TransactionDatabase([[1]]) == TransactionDatabase([[1]])
        assert TransactionDatabase([[1]]) != TransactionDatabase([[2]])

    def test_repr(self):
        assert repr(TransactionDatabase([[1, 2]])) == (
            "TransactionDatabase(|D|=1, |I|=2)"
        )


class TestSupport:
    def test_support_count(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3]])
        assert db.support_count([1, 2]) == 2
        assert db.support_count([1, 3]) == 1
        assert db.support_count([4]) == 0

    def test_support_of_empty_itemset(self):
        db = TransactionDatabase([[1], [2]])
        assert db.support_count([]) == 2

    def test_fractional_support(self):
        db = TransactionDatabase([[1, 2], [1], [2]])
        assert db.support([1]) == pytest.approx(2 / 3)

    def test_fractional_support_of_empty_db(self):
        assert TransactionDatabase([]).support([1]) == 0.0

    def test_absolute_support_rounds_up(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.absolute_support(0.25) == 3
        assert db.absolute_support(0.3) == 3
        assert db.absolute_support(1.0) == 10

    def test_absolute_support_is_at_least_one(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.absolute_support(0.0) == 1

    def test_absolute_support_validates_fraction(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[1]]).absolute_support(1.5)

    def test_item_support_counts_cover_zero_items(self):
        db = TransactionDatabase([[1], [1, 2]], universe=[1, 2, 3])
        assert db.item_support_counts() == {1: 2, 2: 1, 3: 0}


class TestBitmaps:
    def test_bitmaps_encode_transaction_positions(self):
        db = TransactionDatabase([[1], [1, 2], [2]])
        bitmaps = db.item_bitmaps()
        assert bitmaps[1] == 0b011
        assert bitmaps[2] == 0b110

    def test_bitmaps_are_cached(self):
        db = TransactionDatabase([[1]])
        assert db.item_bitmaps() is db.item_bitmaps()

    def test_zero_support_items_have_empty_bitmaps(self):
        db = TransactionDatabase([[1]], universe=[1, 2])
        assert db.item_bitmaps()[2] == 0


class TestHelpers:
    def test_from_itemset_supports(self):
        db = TransactionDatabase.from_itemset_supports({(1, 2): 2, (3,): 1})
        assert len(db) == 3
        assert db.support_count([1, 2]) == 2

    def test_from_itemset_supports_rejects_negative(self):
        with pytest.raises(ValueError):
            TransactionDatabase.from_itemset_supports({(1,): -1})

    def test_restricted_to(self):
        db = TransactionDatabase([[1, 2, 3], [2, 4]])
        projected = db.restricted_to([2, 3])
        assert projected.universe == (2, 3)
        assert projected[0] == frozenset({2, 3})
        assert projected[1] == frozenset({2})

    def test_sample(self):
        db = TransactionDatabase([[1], [2], [3]])
        picked = db.sample([0, 2])
        assert len(picked) == 2
        assert picked[1] == frozenset({3})
        assert picked.universe == db.universe

    def test_occurring_items_excludes_zero_support(self):
        db = TransactionDatabase([[1], [3]], universe=[1, 2, 3])
        assert db.occurring_items() == (1, 3)

    def test_average_transaction_size(self):
        db = TransactionDatabase([[1, 2], [1, 2, 3, 4]])
        assert db.average_transaction_size() == 3.0


@pytest.mark.skipif(not HAVE_NUMPY, reason="flat baskets need NumPy")
class TestFlatBaskets:
    """A database over the parser's flat arrays equals one over rows."""

    @staticmethod
    def flat(rows):
        import numpy as np

        items = np.array([item for row in rows for item in row], dtype=np.int64)
        offsets = np.cumsum([0] + [len(row) for row in rows])
        return FlatBaskets(items, offsets)

    ROWS = [[3, 1, 3], [], [7], [1, -2, 7]]

    def test_matches_row_database(self):
        db = TransactionDatabase(self.flat(self.ROWS))
        reference = TransactionDatabase(self.ROWS)
        assert len(db) == 4 and db._rows is None
        assert db.universe == reference.universe == (-2, 1, 3, 7)
        assert db.item_support_counts() == reference.item_support_counts()
        assert db.average_transaction_size() == 1.5
        assert db.occurring_items() == reference.occurring_items()
        assert db._rows is None
        assert db == reference

    def test_explicit_universe(self):
        db = TransactionDatabase(self.flat(self.ROWS), universe=range(-2, 9))
        assert db.item_support_counts()[5] == 0
        assert db.occurring_items() == (-2, 1, 3, 7)
        assert bytes(db.vertical().buffer) == bytes(
            TransactionDatabase(self.ROWS, universe=range(-2, 9))
            .vertical().buffer
        )
        with pytest.raises(ValueError, match="transaction 2 "):
            TransactionDatabase(self.flat(self.ROWS), universe=[1, 3])

    def test_build_rejects_items_outside_the_universe(self):
        with pytest.raises(ValueError, match="transaction 3 contains item -2"):
            build_vertical(self.flat(self.ROWS), universe=[1, 3, 7])
        with pytest.raises(ValueError, match="num_rows"):
            build_vertical(self.flat(self.ROWS), num_rows=5)
