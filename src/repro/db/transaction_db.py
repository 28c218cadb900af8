"""In-memory transaction database.

This is the substrate every miner in the library runs on.  A database is a
bag of transactions, each a set of integer items (paper Section 2.1).  The
store is *horizontal* (one row per transaction) because that is what the
levelwise algorithms scan; a *vertical* bitmap view (one bitmap per item,
bit ``t`` set iff transaction ``t`` contains the item) is built lazily, in
one linear pass, for the vertical counting engines
(:func:`repro.db.vertical.build_vertical`).  A database read by the NumPy
basket parse holds flat arrays instead (:class:`~repro.db.vertical.FlatBaskets`):
its vertical view is scattered straight from them, and the horizontal
rows are built only if something asks for rows.

Support thresholds: the paper defines support as a *fraction* of the
transactions.  :meth:`TransactionDatabase.absolute_support` converts a
user-facing fraction into the absolute transaction count the counters
compare against, rounding up so that "support above the threshold" matches
the usual ``count >= ceil(fraction * |D|)`` convention.
"""

from __future__ import annotations

from math import ceil
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .._types import Itemset
from .vertical import FlatBaskets, VerticalView, build_vertical


class TransactionDatabase:
    """A set of transactions over an integer item universe.

    Parameters
    ----------
    transactions:
        Any iterable of item iterables, normalised at construction to one
        ``frozenset`` of ints per transaction; or :class:`FlatBaskets`,
        the flat arrays of the NumPy basket parse.  Flat baskets stay
        flat: the universe comes from a ``bincount`` (``np.unique`` for
        ids too large to index a table), the vertical view is scattered
        straight from the arrays, and the per-row frozensets are built
        only when something asks for rows (iteration, indexing,
        ``transactions``, equality, ``support_count``, ``restricted_to``,
        ``sample``).  Empty transactions are kept (they count toward
        ``|D|`` but support nothing, matching the benchmark generator
        which can emit size-0 baskets only if asked to).
    universe:
        Optional explicit item universe.  When omitted, the universe is the
        set of items that occur in at least one transaction.  An explicit
        universe matters when reproducing the paper's setup where ``N=1000``
        items exist but only some occur.
    """

    def __init__(
        self,
        transactions: Union[Iterable[Iterable[int]], FlatBaskets],
        universe: Optional[Iterable[int]] = None,
    ) -> None:
        self._flat: Optional[FlatBaskets] = None
        #: per-row frozensets; None until asked for when built from flat arrays
        self._rows: Optional[List[FrozenSet[int]]] = None
        if isinstance(transactions, FlatBaskets):
            self._flat = transactions
            self._num_rows = transactions.num_rows
            occurring = transactions.distinct_items().tolist()
        else:
            self._rows = [frozenset(transaction) for transaction in transactions]
            self._num_rows = len(self._rows)
            occurring = sorted(set().union(*self._rows))
        if universe is None:
            self._universe: Itemset = tuple(occurring)
        else:
            self._universe = tuple(sorted(set(universe)))
            outside = set(occurring).difference(self._universe)
            if outside:
                position = next(
                    position
                    for position, transaction in enumerate(self)
                    if not outside.isdisjoint(transaction)
                )
                raise ValueError(
                    "transaction %d contains items outside the universe"
                    % position
                )
        self._vertical: Optional[VerticalView] = None
        self._bitmaps: Optional[Dict[int, int]] = None
        self._item_counts: Optional[Dict[int, int]] = None

    def _row_list(self) -> List[FrozenSet[int]]:
        """The per-row frozensets, built from the flat arrays on first use."""
        if self._rows is None:
            self._rows = self._flat.rows()
        return self._rows

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_rows

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self._row_list())

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self._row_list()[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._row_list() == other._row_list()
        )

    def __repr__(self) -> str:
        return "TransactionDatabase(|D|=%d, |I|=%d)" % (
            self._num_rows,
            len(self._universe),
        )

    @property
    def transactions(self) -> Sequence[FrozenSet[int]]:
        """The transactions, in insertion order."""
        return self._row_list()

    @property
    def universe(self) -> Itemset:
        """All items of the database, as a canonical itemset."""
        return self._universe

    @property
    def num_items(self) -> int:
        return len(self._universe)

    def average_transaction_size(self) -> float:
        """Mean basket length — the generator's ``|T|`` parameter, measured."""
        if not self._num_rows:
            return 0.0
        return sum(self._counts().values()) / self._num_rows

    # ------------------------------------------------------------------
    # support
    # ------------------------------------------------------------------

    def absolute_support(self, fraction: float) -> int:
        """Convert a fractional minimum support into a transaction count.

        The result is at least 1 so that the empty database edge case and
        ``fraction=0`` do not declare never-seen itemsets frequent.

        >>> TransactionDatabase([[1], [1], [2]]).absolute_support(0.5)
        2
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("minimum support must be a fraction in [0, 1]")
        return max(1, ceil(fraction * self._num_rows))

    def support_count(self, candidate: Iterable[int]) -> int:
        """Absolute support of one itemset, by full scan.

        Convenience for examples and tests; the miners use the engines in
        :mod:`repro.db.counting` which amortise the scan over a whole
        candidate set.
        """
        wanted = frozenset(candidate)
        return sum(1 for transaction in self._row_list() if wanted <= transaction)

    def support(self, candidate: Iterable[int]) -> float:
        """Fractional support of one itemset.

        >>> TransactionDatabase([[1, 2], [1], [2]]).support([1])
        0.6666666666666666
        """
        if not self._num_rows:
            return 0.0
        return self.support_count(candidate) / self._num_rows

    def _counts(self) -> Dict[int, int]:
        if self._item_counts is None:
            if self._rows is None:
                # flat arrays may repeat an item within a basket; the
                # popcount of its vertical row counts the basket once
                self._item_counts = self.vertical().item_counts()
            else:
                counts: Dict[int, int] = dict.fromkeys(self._universe, 0)
                for transaction in self._rows:
                    for item in transaction:
                        counts[item] += 1
                self._item_counts = counts
        return self._item_counts

    def item_support_counts(self) -> Dict[int, int]:
        """Support count of every universe item (the pass-1 1-D array).

        Items that never occur are reported with count 0.  Counted once,
        from the vertical view when the database holds flat arrays; every
        call returns a fresh copy.
        """
        return dict(self._counts())

    # ------------------------------------------------------------------
    # vertical view
    # ------------------------------------------------------------------

    def _build_vertical(self) -> VerticalView:
        source = self._flat if self._flat is not None else self._rows
        return build_vertical(source, self._universe, self._num_rows)

    def vertical(self) -> VerticalView:
        """The packed vertical view, built once in one linear pass and cached.

        Its buffer is the packed matrix the ``packed`` engine counts on
        and the payload of a ``.snap`` file; see
        :class:`~repro.db.vertical.VerticalView`.
        """
        if self._vertical is None:
            self._vertical = self._build_vertical()
        return self._vertical

    def item_bitmaps(self) -> Dict[int, int]:
        """Vertical bitmaps: item -> int with bit ``t`` set iff ``t`` has it.

        Derived once from the rows of the vertical view and cached, for
        the engines that count on ints (``bitmap`` and the no-NumPy
        rungs); arbitrary-precision ints make their AND/popcount a handful
        of C-level operations.  A view built only for this is not kept.
        """
        if self._bitmaps is None:
            view = self._vertical or self._build_vertical()
            self._bitmaps = view.int_bitmaps()
        return self._bitmaps

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_itemset_supports(
        cls, supported: Dict[Itemset, int]
    ) -> "TransactionDatabase":
        """Build a database where each key occurs as a basket ``value`` times.

        Handy for tests that need exact supports:

        >>> db = TransactionDatabase.from_itemset_supports({(1, 2): 2, (3,): 1})
        >>> len(db)
        3
        """
        transactions: List[Tuple[int, ...]] = []
        for basket, copies in supported.items():
            if copies < 0:
                raise ValueError("negative multiplicity for %r" % (basket,))
            transactions.extend([tuple(basket)] * copies)
        return cls(transactions)

    def restricted_to(self, items: Iterable[int]) -> "TransactionDatabase":
        """Project every transaction onto ``items`` (baskets may become empty).

        Useful for drilling into a discovered maximal itemset.
        """
        keep = frozenset(items)
        return TransactionDatabase(
            [transaction & keep for transaction in self._row_list()],
            universe=sorted(keep),
        )

    def sample(self, indices: Iterable[int]) -> "TransactionDatabase":
        """A new database containing the transactions at ``indices``."""
        rows = self._row_list()
        picked = [rows[index] for index in indices]
        return TransactionDatabase(picked, universe=self._universe)

    def occurring_items(self) -> Itemset:
        """Items with non-zero support, as a canonical itemset."""
        return tuple(item for item, count in self._counts().items() if count)
