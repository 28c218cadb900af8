"""Packed vertical bitmaps and the ``packed`` counting engine.

The ``bitmap`` engine stores one arbitrary-precision Python int per item
and intersects them candidate by candidate.  This module packs the same
vertical view into a ``(num_items, num_words)`` NumPy ``uint64`` matrix so
that a whole candidate batch is counted with vectorized AND + popcount —
the per-candidate interpreter overhead that dominates the ``bitmap``
engine at benchmark scale disappears into a handful of C-level array
operations.

Every index here starts from one :class:`VerticalView`: the packed rows
that :func:`build_vertical` fills in a single linear pass over the
transactions (or that a ``.snap`` file already holds).  Each index class
has one constructor from it, ``from_view``.  Three pieces cooperate on top:

:class:`PrefixIntersector`
    A running-AND memo over a sorted candidate stream.  Candidates emitted
    by the Apriori join arrive grouped by their common ``(k-1)``-prefix,
    so memoizing the intersection of the first ``j`` items turns a pass
    from O(candidates x length) intersections into roughly one
    intersection per candidate-trie edge.  Shared by
    :class:`~repro.db.counting.BitmapCounter` (Python ints) and the
    packed engine's pure-Python fallback.

:class:`PackedBitmapIndex`
    The NumPy matrix.  Batch counting groups candidates by length and
    resolves each length level with *one* vectorized AND over the unique
    prefixes of the group — the same trie-edge saving as
    :class:`PrefixIntersector`, but across the whole batch at once.

:class:`IntBitmapIndex`
    Drop-in fallback with identical semantics when NumPy is absent:
    Python int bitmaps walked through a :class:`PrefixIntersector`.

:class:`PackedCounter` is the engine facade registered as ``packed`` in
:func:`repro.db.counting.get_counter`; it builds whichever index the
interpreter supports and reuses it across passes.  The
:mod:`repro.db.parallel` shard workers build the same indexes per shard.
"""

from __future__ import annotations

import operator
import weakref
from collections import OrderedDict
from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from .._types import Itemset
from .base import SupportCounter

try:  # NumPy is optional (the ``[fast]`` extra); everything degrades.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via force_python paths
    _np = None

#: True when the packed NumPy matrix path is available.
HAVE_NUMPY = _np is not None

__all__ = [
    "FlatBaskets",
    "HAVE_NUMPY",
    "IntBitmapIndex",
    "LruPrefixCache",
    "PackedBitmapIndex",
    "PackedCounter",
    "PrefixIntersector",
    "VerticalView",
    "build_index",
    "build_vertical",
    "popcount",
]


if hasattr(int, "bit_count"):  # Python >= 3.10

    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return value.bit_count()

else:  # pragma: no cover - legacy interpreters

    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return bin(value).count("1")


if _np is not None and hasattr(_np, "bitwise_count"):  # NumPy >= 2.0

    def _popcount_words(words):  # (C, W) uint64 -> (C,) int64
        return _np.bitwise_count(words).sum(axis=-1, dtype=_np.int64)

elif _np is not None:  # pragma: no cover - NumPy 1.x

    _POPCOUNT_TABLE = _np.array(
        [bin(value).count("1") for value in range(256)], dtype=_np.uint8
    )

    def _popcount_words(words):
        as_bytes = _np.ascontiguousarray(words).view(_np.uint8)
        return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=_np.int64)


Bitmap = TypeVar("Bitmap")


class PrefixIntersector(Generic[Bitmap]):
    """Memoized running AND over a stream of *sorted* candidates.

    ``lookup(item)`` returns the item's bitmap (None for items outside
    the universe: any candidate containing one has support 0), ``combine``
    is the AND of two bitmaps, and ``top`` is the all-ones bitmap the
    empty prefix starts from.  The memo is a stack holding, for the most
    recent candidate, the running intersection of each of its prefixes;
    the next candidate reuses the longest prefix it shares.

    ``reused``/``intersections`` count saved vs. performed combines so
    benchmarks and tests can observe the cache working.  ``hits``/``misses``
    are the cache-centric view of the same stream — a *hit* is a prefix
    entry served from the memo, a *miss* is a prefix entry that had to be
    (re)computed, whether or not its item resolved to a bitmap — and are
    what the metrics registry and bench records surface as
    ``prefix_cache.hits`` / ``prefix_cache.misses``.
    """

    def __init__(
        self,
        lookup: Callable[[int], Optional[Bitmap]],
        combine: Callable[[Bitmap, Bitmap], Bitmap],
        top: Bitmap,
    ) -> None:
        self._lookup = lookup
        self._combine = combine
        self._top = top
        self._items: List[int] = []
        self._values: List[Optional[Bitmap]] = []
        self.reused = 0
        self.intersections = 0
        self.hits = 0
        self.misses = 0

    def intersection(self, candidate: Itemset) -> Optional[Bitmap]:
        """AND of the item bitmaps; None if any item has no bitmap."""
        if not candidate:
            return self._top
        shared = 0
        limit = min(len(self._items), len(candidate))
        while shared < limit and self._items[shared] == candidate[shared]:
            shared += 1
        del self._items[shared:]
        del self._values[shared:]
        self.reused += shared
        self.hits += shared
        self.misses += len(candidate) - shared
        value = self._values[shared - 1] if shared else self._top
        for item in candidate[shared:]:
            if value is not None:
                bitmap = self._lookup(item)
                if bitmap is None:
                    value = None
                else:
                    value = self._combine(value, bitmap)
                    self.intersections += 1
            self._items.append(item)
            self._values.append(value)
        return self._values[-1]


class LruPrefixCache(Generic[Bitmap]):
    """Cross-pass prefix-intersection cache with bounded per-level LRU.

    :class:`PrefixIntersector` is a *stack* memo: it only remembers the
    prefixes of the most recent candidate, so its state is bounded but
    dies with the batch.  This class keeps a persistent ``prefix ->
    bitmap`` map instead, so pass ``k+1`` — whose ``k``-prefixes are
    exactly the candidates counted in pass ``k`` — starts warm.

    The map is partitioned by prefix length ("level") and each level is
    an :class:`~collections.OrderedDict` evicting least-recently-used
    entries past ``capacity_per_level``, so long low-support runs (many
    passes, wide levels) cannot grow the cache unboundedly: total entries
    are at most ``capacity_per_level x deepest level reached``.

    Accounting matches :class:`PrefixIntersector`: a *hit* is a prefix
    item-step served from the cache, a *miss* is one that had to be
    combined; ``evictions`` counts entries dropped by the bound and
    ``size`` is the current total entry count across levels.

    >>> bitmaps = {1: 0b0111, 2: 0b0101, 3: 0b0110}
    >>> cache = LruPrefixCache(bitmaps.get, operator.and_, 0b1111,
    ...                        capacity_per_level=2)
    >>> bin(cache.intersection((1, 2)))
    '0b101'
    >>> cache.intersection((1, 2)) == 0b0101  # served from cache
    True
    >>> cache.hits, cache.misses
    (2, 2)
    >>> _ = cache.intersection((1, 3)); _ = cache.intersection((2, 3))
    >>> cache.size, cache.evictions  # level-2 bound of 2 evicted (1, 2)
    (4, 1)
    """

    def __init__(
        self,
        lookup: Callable[[int], Optional[Bitmap]],
        combine: Callable[[Bitmap, Bitmap], Bitmap],
        top: Bitmap,
        capacity_per_level: int = 4096,
    ) -> None:
        if capacity_per_level < 1:
            raise ValueError("capacity_per_level must be >= 1")
        self._lookup = lookup
        self._combine = combine
        self._top = top
        self._capacity = capacity_per_level
        self._levels: Dict[int, "OrderedDict[Itemset, Optional[Bitmap]]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def size(self) -> int:
        """Current number of cached prefix entries across all levels."""
        return sum(len(level) for level in self._levels.values())

    def clear(self) -> None:
        self._levels.clear()

    def intersection(self, candidate: Itemset) -> Optional[Bitmap]:
        """AND of the item bitmaps; None if any item has no bitmap."""
        length = len(candidate)
        if not length:
            return self._top
        value: Optional[Bitmap] = self._top
        shared = 0
        for depth in range(length, 0, -1):
            level = self._levels.get(depth)
            if level is None:
                continue
            cached = level.get(candidate[:depth], _MISSING)
            if cached is not _MISSING:
                level.move_to_end(candidate[:depth])
                value = cached
                shared = depth
                break
        self.hits += shared
        self.misses += length - shared
        for depth in range(shared, length):
            if value is not None:
                bitmap = self._lookup(candidate[depth])
                value = (
                    None if bitmap is None else self._combine(value, bitmap)
                )
            self._store(candidate[: depth + 1], value)
        return value

    def _store(self, prefix: Itemset, value: Optional[Bitmap]) -> None:
        level = self._levels.setdefault(len(prefix), OrderedDict())
        level[prefix] = value
        level.move_to_end(prefix)
        if len(level) > self._capacity:
            level.popitem(last=False)
            self.evictions += 1


#: Cache-miss sentinel distinguishing "absent" from a cached ``None``
#: (a prefix naming an out-of-universe item legitimately caches as None).
_MISSING = object()


class VerticalView:
    """The vertical view of a database, in its one packed layout.

    Item ``universe[r]`` owns bytes ``[r * stride, (r + 1) * stride)`` of
    ``buffer``, with ``stride = 8 * num_words`` and ``num_words =
    max(1, ceil(num_rows / 64))``; bit ``t & 7`` of the row's byte
    ``t >> 3`` is set iff transaction ``t`` contains the item.  Rows are
    zero-padded to whole 64-bit words, so the buffer *is* the
    little-endian ``(num_items, num_words)`` uint64 matrix of
    :class:`PackedBitmapIndex` (NumPy views it without a copy) and the
    matrix payload of a ``.snap`` file.  Int bitmaps, per-item counts and
    roaring containers are derived from row slices.

    ``buffer`` is any bytes-like object: the ``bytearray`` filled by
    :func:`build_vertical`, or a read-only map of a snapshot file.
    """

    __slots__ = ("universe", "num_rows", "buffer")

    def __init__(self, universe: Iterable[int], num_rows: int, buffer) -> None:
        self.universe = tuple(universe)
        self.num_rows = num_rows
        self.buffer = buffer
        size = memoryview(buffer).nbytes
        if size != len(self.universe) * self.stride:
            raise ValueError(
                "%d-byte buffer does not hold %d items x %d rows"
                % (size, len(self.universe), num_rows)
            )

    @classmethod
    def from_bitmaps(
        cls, bitmaps: Dict[int, int], num_rows: int, universe=None
    ) -> "VerticalView":
        """Pack ``item -> int bitmap`` (universe: sorted keys by default)."""
        items = sorted(bitmaps if universe is None else set(universe))
        stride = 8 * max(1, (num_rows + 63) // 64)
        buffer = b"".join(
            bitmaps.get(item, 0).to_bytes(stride, "little") for item in items
        )
        return cls(items, num_rows, buffer)

    @property
    def num_words(self) -> int:
        return max(1, (self.num_rows + 63) // 64)

    @property
    def stride(self) -> int:
        """Bytes per item row."""
        return 8 * self.num_words

    def rows(self) -> Dict[int, int]:
        """item -> its row of the packed matrix."""
        return {item: row for row, item in enumerate(self.universe)}

    def row_slices(self, word_lo: int = 0, word_hi: Optional[int] = None):
        """``(item, bytes of words [word_lo, word_hi) of its row)``, zero-copy."""
        data = memoryview(self.buffer)
        stride = self.stride
        lo = 8 * word_lo
        hi = stride if word_hi is None else 8 * word_hi
        for row, item in enumerate(self.universe):
            yield item, data[row * stride + lo : row * stride + hi]

    def matrix(self):
        """The buffer as a ``(num_items, num_words)`` uint64 array (no copy)."""
        return _np.frombuffer(self.buffer, dtype="<u8").reshape(
            len(self.universe), self.num_words
        )

    def int_bitmaps(
        self, word_lo: int = 0, word_hi: Optional[int] = None
    ) -> Dict[int, int]:
        """item -> int bitmap of its words ``[word_lo, word_hi)``."""
        return {
            item: int.from_bytes(data, "little")
            for item, data in self.row_slices(word_lo, word_hi)
        }

    def item_counts(self) -> Dict[int, int]:
        """item -> support count (popcount of its row)."""
        return {
            item: popcount(int.from_bytes(data, "little"))
            for item, data in self.row_slices()
        }


class FlatBaskets:
    """Baskets as two flat NumPy arrays, the layout the basket parser emits.

    Basket ``r`` holds ``items[offsets[r]:offsets[r + 1]]``: ``items`` is
    every item occurrence in file order (``int64``) and ``offsets`` the
    ``num_rows + 1`` running basket lengths.  An item may repeat within a
    basket; every consumer treats a basket as a set.  Only the NumPy
    parse in :func:`repro.db.io.load_basket` makes one.
    """

    __slots__ = ("items", "offsets")

    def __init__(self, items, offsets) -> None:
        self.items = items
        self.offsets = offsets

    @property
    def num_rows(self) -> int:
        return len(self.offsets) - 1

    def distinct_items(self):
        """The sorted distinct items, as an array."""
        if _small_ids(self.items):
            return _np.flatnonzero(_np.bincount(self.items))
        return _np.unique(self.items)

    def rows(self) -> List[FrozenSet[int]]:
        """One frozenset per basket."""
        items = self.items.tolist()
        bounds = self.offsets.tolist()
        return [frozenset(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _small_ids(items) -> bool:
    """True when ``items`` are non-negative ids small enough to index a table.

    "Small" is relative to the data, so a table is never much larger than
    the arrays it replaces a sort of.
    """
    return bool(
        items.size
        and items.min() >= 0
        and items.max() < max(1 << 16, 4 * items.size)
    )


def _positions(items, universe):
    """Index of each of ``items`` in the sorted ``universe`` array, -1 outside.

    A lookup table when the items are small ids, else a binary search.
    """
    if _small_ids(items):
        table = _np.full(int(items.max()) + 1, -1, dtype=_np.intp)
        inside = (universe >= 0) & (universe < len(table))
        table[universe[inside]] = _np.flatnonzero(inside)
        return table[items]
    if not len(universe):
        return _np.full(items.size, -1, dtype=_np.intp)
    index = _np.searchsorted(universe, items)
    found = universe[_np.minimum(index, len(universe) - 1)] == items
    return _np.where(found, index, -1)


#: Baskets scattered per ``bitwise_or.at`` call: keeps the temporaries
#: of one call cache-sized, so the build stays linear in |D|.
_SCATTER_ROWS = 1 << 16


def _scatter(view: VerticalView, baskets: FlatBaskets) -> None:
    """Set the bit of every item occurrence of ``baskets`` in ``view``.

    One vectorized ``bitwise_or.at`` per block of :data:`_SCATTER_ROWS`
    baskets; an item outside the view's universe raises ValueError.
    """
    universe = _np.array(view.universe, dtype=_np.int64)
    matrix = _np.frombuffer(view.buffer, dtype=_np.uint8)
    offsets = baskets.offsets
    for first in range(0, baskets.num_rows, _SCATTER_ROWS):
        last = min(first + _SCATTER_ROWS, baskets.num_rows)
        items = baskets.items[offsets[first]:offsets[last]]
        index = _positions(items, universe)
        if index.size and index.min() < 0:
            outside = int(_np.flatnonzero(index < 0)[0])
            raise ValueError(
                "transaction %d contains item %r outside the universe"
                % (
                    _np.searchsorted(
                        offsets, offsets[first] + outside, side="right"
                    ) - 1,
                    int(items[outside]),
                )
            )
        rows = _np.repeat(
            _np.arange(first, last, dtype=_np.intp),
            _np.diff(offsets[first:last + 1]),
        )
        index *= view.stride
        index += rows >> 3
        rows &= 7
        bits = rows.astype(_np.uint8)
        _np.left_shift(_np.uint8(1), bits, out=bits)
        _np.bitwise_or.at(matrix, index, bits)


def build_vertical(
    rows: Union[Iterable[Iterable[int]], FlatBaskets],
    universe: Optional[Iterable[int]] = None,
    num_rows: Optional[int] = None,
) -> VerticalView:
    """The vertical view of ``rows``, built in one linear pass.

    This is the only code that turns horizontal rows into bitmaps: every
    index, both snapshot writers and ``item_bitmaps`` start from its
    result.  The cost is linear in the number of item occurrences.

    :class:`FlatBaskets` (what the NumPy basket parse yields) are
    scattered into the preallocated buffer by vectorized
    ``bitwise_or.at``, a block of baskets at a time.  Any other ``rows``
    are walked in Python, each
    occurrence setting one bit of one ``bytearray``: the path used
    without NumPy and for row iterables such as the Quest generator and
    the streaming snapshot writer.

    Row iterables are consumed once, in order, and at most ``num_rows``
    rows are taken, so a streaming writer can cut one partition at a time
    from a shared iterator; a shorter stream raises :class:`ValueError`.
    Without ``num_rows`` or ``universe`` the rows are materialised first
    to count them or collect the occurring items.  An item outside an
    explicit ``universe`` raises :class:`ValueError`.
    """
    flat = isinstance(rows, FlatBaskets)
    if flat:
        if num_rows is None:
            num_rows = rows.num_rows
        elif num_rows != rows.num_rows:
            raise ValueError(
                "%d baskets given for num_rows=%d" % (rows.num_rows, num_rows)
            )
        if universe is None:
            universe = rows.distinct_items().tolist()
    elif universe is None or num_rows is None:
        rows = list(rows)
        if universe is None:
            universe = set().union(*rows)
        if num_rows is None:
            num_rows = len(rows)
    items = sorted(set(universe))
    stride = 8 * max(1, (num_rows + 63) // 64)
    view = VerticalView(items, num_rows, bytearray(len(items) * stride))
    if flat:
        _scatter(view, rows)
        return view
    buffer = view.buffer
    base = {item: row * stride for row, item in enumerate(items)}
    position = -1
    try:
        for position, row in zip(range(num_rows), rows):
            byte = position >> 3
            bit = 1 << (position & 7)
            for item in row:
                buffer[base[item] + byte] |= bit
    except KeyError as error:
        raise ValueError(
            "transaction %d contains item %r outside the universe"
            % (position, error.args[0])
        ) from None
    if position + 1 < num_rows:
        raise ValueError(
            "transaction stream ended %d rows short of num_rows"
            % (num_rows - position - 1)
        )
    return view


def view_constructors(cls):
    """Give an index class with ``from_view`` its three shortcut constructors.

    ``from_transactions(rows, universe=None)`` builds the view with
    :func:`build_vertical`, ``from_database(db)`` takes the database's
    cached ``db.vertical()`` and ``from_bitmaps(bitmaps, num_rows)``
    packs int bitmaps; all three hand the view to ``from_view``.  They
    are set on each class itself because ``perfbench/tracer.py`` patches
    them there by name.
    """
    cls.from_transactions = classmethod(
        lambda owner, transactions, universe=None: owner.from_view(
            build_vertical(transactions, universe)
        )
    )
    cls.from_database = classmethod(
        lambda owner, db: owner.from_view(db.vertical())
    )
    cls.from_bitmaps = classmethod(
        lambda owner, bitmaps, num_rows: owner.from_view(
            VerticalView.from_bitmaps(bitmaps, num_rows)
        )
    )
    return cls


@view_constructors
class PackedBitmapIndex:
    """Vertical bitmaps packed as a ``(num_items, num_words)`` uint64 matrix.

    ``num_words = ceil(num_rows / 64)``; bit ``t`` of the row for item
    ``i`` (little-endian across words) is set iff transaction ``t``
    contains ``i``.  Tail bits past ``num_rows`` are always zero, so
    popcounts never need masking.
    """

    #: Candidates per vectorized block; bounds the working set to
    #: ``chunk x length x num_words`` words per level.
    # ~1 MiB of gathered words per side at 32 words/row: chunks (and their
    # AND/popcount temporaries) stay L2-resident, worth ~20% over 8192
    DEFAULT_CHUNK = 4096

    #: Upper bound on the item id for the O(1) vectorized item->row table;
    #: universes with larger (or negative) ids fall back to dict mapping.
    MAX_TABLE_ITEM = 1 << 20

    #: Row width (uint64 words) at or above which a candidate block is
    #: counted by the cache-blocked fused kernel instead of materialising
    #: full-width (C, W) accumulators.  512 words = 32k transactions —
    #: below that the whole working set is L2-resident anyway.
    FUSED_MIN_WORDS = 512

    #: Floor on the words per column tile of the fused kernel.  The
    #: actual tile adapts to the block: see :data:`TILE_TARGET_BYTES`.
    TILE_WORDS = 128

    #: Target byte size of the fused kernel's per-tile accumulator.  The
    #: tile width is chosen as ``TILE_TARGET_BYTES / (block_rows * 8)``
    #: (floored at :data:`TILE_WORDS`), so the accumulator plus the
    #: gathered operand slab stay cache-resident regardless of how many
    #: candidates the block holds.  A fixed 128-word tile is right for
    #: full 4096-candidate chunks but pathological for small blocks —
    #: a few hundred candidates over a wide matrix turn into thousands
    #: of sliver-sized NumPy calls per block, and ufunc dispatch
    #: overhead, not bandwidth, dominates (profiled at >2x the whole
    #: kernel on snapshot-scale rows).
    TILE_TARGET_BYTES = 512 * 1024

    def __init__(self, matrix, rows: Dict[int, int], num_rows: int) -> None:
        if isinstance(matrix, _np.memmap):
            # np.memmap is an ndarray subclass whose every slice and
            # gather runs Python-level ``__getitem__`` +
            # ``__array_finalize__`` to propagate mmap attributes — a few
            # microseconds per access, and the tiled kernel makes
            # thousands of accesses per block (profiled at >60% of
            # snapshot-backed counting time).  A plain ndarray view
            # shares the same mapped buffer at zero copy (the memmap
            # stays alive through ``.base``), so counting pays only the
            # page faults, never the subclass dispatch.
            matrix = matrix.view(_np.ndarray)
        self._matrix = matrix
        self._rows = rows
        self._num_rows = num_rows
        self._row_table = self._build_row_table(rows)
        self._scratch_and = None  # lazily grown (chunk, num_words) buffer
        #: cumulative prefix-sharing accounting, mirroring
        #: :class:`PrefixIntersector`: ``prefix_hits`` = ANDs avoided by
        #: resolving shared prefixes once, ``prefix_misses`` = ANDs done
        self.prefix_hits = 0
        self.prefix_misses = 0

    @classmethod
    def _build_row_table(cls, rows: Dict[int, int]):
        """Vectorized item -> matrix-row lookup (last slot = unknown)."""
        if rows and all(
            isinstance(item, int) and 0 <= item <= cls.MAX_TABLE_ITEM
            for item in rows
        ):
            table = _np.full(max(rows) + 2, -1, dtype=_np.intp)
            for item, row in rows.items():
                table[item] = row
            return table
        return None

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_words(self) -> int:
        return int(self._matrix.shape[1])

    @classmethod
    def from_view(cls, view: VerticalView) -> "PackedBitmapIndex":
        """The index over a vertical view; its matrix *is* the view's buffer."""
        return cls(view.matrix(), view.rows(), view.num_rows)

    # ------------------------------------------------------------------

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        """Support counts parallel to ``candidates`` (batch, vectorized)."""
        total = len(candidates)
        results = _np.zeros(total, dtype=_np.int64)
        lengths, flat_rows = self.map_candidates(candidates)
        self.counts_into(
            lengths, flat_rows, results,
            deadline_check=deadline_check, chunk_size=chunk_size,
        )
        return results.tolist()

    @staticmethod
    def flatten_candidates(candidates: Sequence[Itemset]):
        """Ragged candidate list -> ``(lengths, flat item vector)``.

        The flat encoding lets per-length groups be sliced without any
        per-candidate Python work — and is exactly what crosses the
        shared-memory plane (:mod:`repro.db.shm`) instead of pickles.
        """
        total = len(candidates)
        lengths = _np.fromiter(
            map(len, candidates), dtype=_np.int64, count=total
        )
        flat = _np.fromiter(
            chain.from_iterable(candidates),
            dtype=_np.int64,
            count=int(lengths.sum()),
        )
        return lengths, flat

    def map_items(self, flat_items):
        """Flat item ids -> flat matrix rows, -1 for unknown items."""
        table = self._row_table
        if table is not None:
            sentinel = table.shape[0] - 1
            if flat_items.size == 0 or (
                int(flat_items.min()) >= 0 and int(flat_items.max()) < sentinel
            ):
                return table[flat_items]
            in_range = (flat_items >= 0) & (flat_items < sentinel)
            return table[_np.where(in_range, flat_items, sentinel)]
        lookup = self._rows.get
        return _np.fromiter(
            (lookup(item, -1) for item in flat_items.tolist()),
            dtype=_np.intp,
            count=len(flat_items),
        )

    def map_candidates(self, candidates: Sequence[Itemset]):
        """Candidates -> ``(lengths, flat matrix-row vector)``.

        This is the parent-side half of a shared-memory count: the row
        mapping happens once, and workers consume raw row ids with no
        item-table of their own.
        """
        lengths, flat_items = self.flatten_candidates(candidates)
        return lengths, self.map_items(flat_items)

    def counts_into(
        self,
        lengths,
        flat_rows,
        out,
        lo: int = 0,
        hi: Optional[int] = None,
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
        offsets=None,
    ) -> None:
        """Count candidates ``[lo, hi)`` of a flat-encoded batch into ``out``.

        ``lengths``/``flat_rows`` come from :meth:`map_candidates` (row id
        -1 marks an out-of-universe item: the candidate counts 0); ``out``
        is any integer array of at least ``len(lengths)`` — including a
        worker's slice of a shared result block.  Only ``out[lo:hi]`` is
        written, so concurrent workers with disjoint ranges never race.
        """
        total = len(lengths)
        if hi is None:
            hi = total
        if offsets is None:
            offsets = _np.zeros(total, dtype=_np.intp)
            _np.cumsum(lengths[:-1], out=offsets[1:])
        span_lengths = lengths[lo:hi]
        span_offsets = offsets[lo:hi]
        out[lo:hi][span_lengths == 0] = self._num_rows  # () holds everywhere
        for length in _np.unique(span_lengths):
            length = int(length)
            if length == 0:
                continue
            positions = _np.nonzero(span_lengths == length)[0]
            group = flat_rows[span_offsets[positions][:, None] + _np.arange(length)]
            known = (group >= 0).all(axis=1)
            # candidates naming an item outside the universe keep count 0
            if not known.all():
                out[lo + positions[~known]] = 0
                positions = positions[known]
                group = group[known]
            chunk = self._chunk_for(length, chunk_size)
            fused = self.num_words >= self.FUSED_MIN_WORDS
            for start in range(0, len(group), chunk):
                if deadline_check is not None:
                    deadline_check()
                block = group[start : start + chunk]
                if fused:
                    counted = self._fused_counts_tiled(block)
                else:
                    counted = _popcount_words(self._intersect(block))
                out[lo + positions[start : start + chunk]] = counted

    def word_slice(self, word_lo: int, word_hi: int) -> "PackedBitmapIndex":
        """A zero-copy view of transactions ``[64*word_lo, 64*word_hi)``.

        Row shards of the shared-memory plane are word-aligned so each
        worker counts its transaction range by slicing matrix *columns* —
        no data moves, and tail bits beyond ``num_rows`` stay zero.
        """
        rows_before = min(self._num_rows, word_lo * 64)
        rows_in = max(0, min(self._num_rows, word_hi * 64) - rows_before)
        return PackedBitmapIndex(
            self._matrix[:, word_lo:word_hi], self._rows, rows_in
        )

    def _chunk_for(self, length: int, chunk_size: Optional[int]) -> int:
        if chunk_size:
            return chunk_size
        # bound the gathered working set to ~32 MiB of uint64 words
        budget = (1 << 22) // max(1, length * self.num_words)
        return max(1, min(self.DEFAULT_CHUNK, budget))

    def _scratch(self, count: int):
        """Reused (>=count, num_words) accumulator buffer.

        ``np.take(..., out=...)`` into it skips one allocation and one
        memory pass per chunk versus fancy-indexed temporaries — ~2x on
        the cache-resident AND path.  The returned view is only valid
        until the next ``_intersect`` call.
        """
        if self._scratch_and is None or self._scratch_and.shape[0] < count:
            self._scratch_and = _np.empty(
                (count, self.num_words), dtype=_np.uint64
            )
        return self._scratch_and[:count]

    def _intersect(self, block):
        """(C, L) valid row indices -> (C, num_words) AND-accumulators."""
        count, length = block.shape
        matrix = self._matrix
        if length == 1:
            return matrix[block[:, 0]]
        if 2 < length <= 32 and count >= 256:
            return self._intersect_shared_prefixes(block)
        self.prefix_misses += count * (length - 1)
        if count < 64 and length > 2:
            # tiny blocks of long candidates (an MFCS candidate can span
            # the whole universe): one gather + one reduce beats paying
            # per-column call overhead ``length`` times
            return _np.bitwise_and.reduce(matrix[block], axis=1)
        # column-at-a-time in-place AND: one (C, W) gather and one store
        # per column, instead of one (C, L, W) gather for ufunc.reduce
        accumulators = self._scratch(count)
        _np.take(matrix, block[:, 0], axis=0, out=accumulators)
        for column in range(1, length):
            _np.bitwise_and(
                accumulators, matrix[block[:, column]], out=accumulators
            )
        return accumulators

    def _intersect_shared_prefixes(self, block):
        """Batch-wide prefix-intersection cache, fully vectorized.

        Levelwise twin of :class:`PrefixIntersector`: the unique
        ``(k-1)``-prefixes of the block are resolved first (via
        ``np.unique``, all C-level), so a prefix shared by many candidates
        costs one AND for the whole block instead of one per candidate —
        roughly one vectorized AND per candidate-trie edge, exactly the
        saving the scalar cache gives the ``bitmap`` engine.
        """
        base_rows, levels = self._prefix_plan(block)
        self._account_plan(block, levels)
        accumulators = self._matrix[base_rows]
        for inverse, last_rows in reversed(levels):
            accumulators = _np.bitwise_and(
                accumulators[inverse], self._matrix[last_rows]
            )
        return accumulators

    @staticmethod
    def _prefix_plan(block):
        """Levelwise ``np.unique`` dedup plan for a (C, L) block.

        Returns ``(base_rows, levels)`` where ``levels`` is a list of
        ``(inverse, last_rows)`` pairs: evaluating ``base_rows`` and then
        AND-ing ``acc[inverse] & matrix[last_rows]`` level by level in
        reverse yields one accumulator row per candidate.  The plan is
        pure index arithmetic — no bitmap columns are touched — so the
        fused kernel computes it once per block and replays it per word
        tile.
        """
        levels = []
        current = block
        while current.shape[1] > 1:
            unique_prefixes, inverse = _np.unique(
                current[:, :-1], axis=0, return_inverse=True
            )
            levels.append((inverse.reshape(-1), current[:, -1]))
            current = unique_prefixes
        return current[:, 0], levels

    def _account_plan(self, block, levels) -> None:
        performed = sum(len(last_rows) for _, last_rows in levels)
        self.prefix_misses += performed
        self.prefix_hits += block.shape[0] * (block.shape[1] - 1) - performed

    def _fused_counts_tiled(self, block):
        """Cache-blocked fused AND + popcount over a (C, L) block.

        The full-width path (:meth:`_intersect`) streams a ``(C, W)``
        accumulator through memory once per candidate level and once more
        for the popcount.  Here the transaction dimension is cut into
        cache-budget-sized column tiles (:data:`TILE_TARGET_BYTES` per
        accumulator, floored at :data:`TILE_WORDS`): the shared-prefix
        plan is hoisted
        once per block, then replayed per tile, so every level's AND and
        the final popcount reduction happen while the tile-sized
        accumulator is still cache-resident.  Nothing of shape ``(C, W)``
        is ever materialised — the only full-width output is the int64
        count vector.
        """
        count, length = block.shape
        matrix = self._matrix
        num_words = self.num_words
        results = _np.zeros(count, dtype=_np.int64)
        use_plan = 2 < length <= 32 and count >= 256
        if use_plan:
            base_rows, levels = self._prefix_plan(block)
            self._account_plan(block, levels)
        else:
            self.prefix_misses += count * (length - 1)
        # adapt the tile to the block so the accumulator slab is
        # TILE_TARGET_BYTES regardless of candidate count (see the
        # constant's docstring); TILE_WORDS stays the floor
        tile = max(1, self.TILE_WORDS)
        tile = max(
            tile,
            min(num_words, self.TILE_TARGET_BYTES // (max(1, count) * 8)),
        )
        for word_lo in range(0, num_words, tile):
            columns = matrix[:, word_lo : word_lo + tile]
            if use_plan:
                accumulators = columns[base_rows]
                for inverse, last_rows in reversed(levels):
                    accumulators = _np.bitwise_and(
                        accumulators[inverse], columns[last_rows]
                    )
            else:
                # advanced indexing copies, so the in-place AND is safe
                accumulators = columns[block[:, 0]]
                for column in range(1, length):
                    _np.bitwise_and(
                        accumulators, columns[block[:, column]], out=accumulators
                    )
            results += _popcount_words(accumulators)
        return results


@view_constructors
class IntBitmapIndex:
    """Pure-Python twin of :class:`PackedBitmapIndex`.

    Same constructor surface and ``counts`` contract, but backed by
    arbitrary-precision int bitmaps and the :class:`PrefixIntersector`
    memo, so the ``packed`` and ``sharded`` engines keep working (and keep
    their prefix-sharing advantage) on interpreters without NumPy.
    """

    def __init__(self, bitmaps: Dict[int, int], num_rows: int) -> None:
        self._bitmaps = bitmaps
        self._num_rows = num_rows
        #: cumulative :class:`PrefixIntersector` accounting across calls
        self.prefix_hits = 0
        self.prefix_misses = 0

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @classmethod
    def from_view(cls, view: VerticalView) -> "IntBitmapIndex":
        return cls(view.int_bitmaps(), view.num_rows)

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        full = (1 << self._num_rows) - 1
        cache: PrefixIntersector[int] = PrefixIntersector(
            self._bitmaps.get, operator.and_, full
        )
        results = [0] * len(candidates)
        order = sorted(range(len(candidates)), key=lambda i: candidates[i])
        # Deadline cadence matches the packed path's chunk budget: check
        # once per ~2^22 words of AND work, where one item-AND costs
        # ``ceil(num_rows / 64)`` words.  The old per-4096-candidates
        # stepping let a batch of long candidates over a wide database run
        # arbitrarily far past its deadline between checks.
        words_per_item = max(1, (self._num_rows + 63) // 64)
        work_budget = max(1, (1 << 22) // words_per_item)
        work = 0
        for position in order:
            if deadline_check is not None:
                if work == 0:
                    deadline_check()
                work += len(candidates[position]) or 1
                if work >= work_budget:
                    work = 0
            value = cache.intersection(candidates[position])
            if value is not None:
                results[position] = popcount(value)
        self.prefix_hits += cache.hits
        self.prefix_misses += cache.misses
        return results


def build_index(
    source,
    universe: Optional[Iterable[int]] = None,
    force_python: bool = False,
):
    """The best available index over rows or a :class:`VerticalView`."""
    view = (
        source
        if isinstance(source, VerticalView)
        else build_vertical(source, universe)
    )
    if HAVE_NUMPY and not force_python:
        return PackedBitmapIndex.from_view(view)
    return IntBitmapIndex.from_view(view)


class PackedCounter(SupportCounter):
    """The ``packed`` engine: batch counting on a packed vertical index.

    The index is built on the first pass over a database and reused for
    every later pass against the *same* database object (miners hold one
    engine per run, so this caches exactly the per-run vertical view the
    ``bitmap`` engine already memoises inside the database).

    ``force_python`` pins the pure-Python fallback index — used by tests
    and honoured when NumPy is missing anyway.
    """

    name = "packed"

    def __init__(self, force_python: bool = False) -> None:
        super().__init__()
        self._force_python = force_python
        self._index = None
        self._index_db: Optional[Callable[[], object]] = None
        #: cumulative prefix-sharing accounting across all passes served
        #: (bench records read these; the metrics registry gets them too)
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0

    def _index_for(self, db):
        if (
            self._index is None
            or self._index_db is None
            or self._index_db() is not db
        ):
            self._index = build_index(
                db.vertical(), force_python=self._force_python
            )
            self._index_db = weakref.ref(db)
        return self._index

    def _count(self, db, candidates: List[Itemset]) -> Dict[Itemset, int]:
        index = self._index_for(db)
        hits_before = index.prefix_hits
        misses_before = index.prefix_misses
        counts = index.counts(candidates, deadline_check=self._check_deadline)
        hits = index.prefix_hits - hits_before
        misses = index.prefix_misses - misses_before
        self.prefix_cache_hits += hits
        self.prefix_cache_misses += misses
        if self.obs.enabled:
            self.obs.counter("prefix_cache.hits").inc(hits)
            self.obs.counter("prefix_cache.misses").inc(misses)
        return dict(zip(candidates, counts))

    def reset(self) -> None:
        super().reset()
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0
