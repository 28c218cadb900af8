"""Compressed counting tier: roaring-style hybrid bitmap containers.

The ``packed`` engine (:mod:`repro.db.vertical`) spends its wall time on
AND + popcount over dense ``uint64`` rows — every candidate pays for the
*whole* transaction dimension even when the items involved occur in a
tiny fraction of it.  Real basket data is dominated by exactly those
sparse low-support items, so this module stores each item's vertical
bitmap as a *hybrid container index* in the style of Roaring bitmaps
(Chambi et al.): the row space is cut into 2^16-row chunks, and each
column picks the cheapest of three container forms for its payload —
sized in bytes exactly like roaring's array/bitmap/run decision:

``array``
    A sorted vector of row positions — the form for sparse columns.
    Intersections become one vectorized ``searchsorted`` membership
    test of the smaller side against the larger: O(|small| log |big|)
    C work with *constant* interpreter overhead, however many chunks
    the column spans.
``bitmap``
    Packed ``uint64`` words covering only the column's *occupied
    chunk-aligned span* — chunks before the first and past the last set
    bit are never stored, and an AND of two bitmap containers touches
    only the chunks in the overlap of both spans.
``run``
    Sorted ``[start, stop)`` intervals — the clustered form (a column
    set in one contiguous stretch of transactions costs 16 bytes).

The fused intersect+popcount dispatches on the container pair:
array∧array is a ``searchsorted`` probe, array∧bitmap a word
gather-and-test, bitmap∧bitmap a word AND over the span overlap (zero
work when the spans are disjoint — the absent chunks are skipped
wholesale), array∧run an interval ``searchsorted``.
Support counting walks the sorted candidate stream with the same
prefix-sharing discipline as :class:`~repro.db.vertical.PrefixIntersector`
and *fuses* the final AND with the popcount — when the next candidate
does not extend the current one, the last intersection is answered as a
cardinality directly, never materialising the result.

:class:`RoaringCounter` is the engine facade registered as ``roaring``.
It resolves one rung of the fallback ladder per database at index-build
time, from measured column density:

``roaring``
    The NumPy hybrid container index above — sparse data, NumPy present.
``packed``
    :class:`~repro.db.vertical.PackedBitmapIndex` — dense data (the
    containers would all degenerate to bitmap form, so the flat matrix
    and its vectorized batch kernel win); compression would not pay.
``bitmap``
    A pure-Python chunked-int index — no NumPy, sparse data: one Python
    int bitmap per *occupied* chunk, so absent-chunk skipping survives
    the loss of vectorization.
``python``
    :class:`~repro.db.vertical.IntBitmapIndex` — no NumPy, dense data.

Every rung returns byte-identical counts (the differential suite in
``tests/test_roaring.py`` and the bench-regress sentinel both pin this),
so the ladder is a pure performance decision, like the shm engine's
shm → mmap → pipe → serial ladder.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .._types import Itemset
from .base import SupportCounter
from .vertical import (
    HAVE_NUMPY,
    IntBitmapIndex,
    PackedBitmapIndex,
    VerticalView,
    popcount,
    view_constructors,
)

try:  # NumPy is optional; the pure-Python rungs cover its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via no-NumPy CI cell
    _np = None

__all__ = [
    "ARRAY_MAX",
    "CHUNK_SIZE",
    "ChunkedIntIndex",
    "RoaringCounter",
    "RoaringIndex",
    "TIER_LADDER",
    "measure_density",
]

#: Rows per chunk — the roaring convention: the low 16 bits of a row id
#: address within a chunk, the high bits select it.
CHUNK_BITS = 16
CHUNK_SIZE = 1 << CHUNK_BITS
#: uint64 words per bitmap container.
CHUNK_WORDS = CHUNK_SIZE // 64
#: Cardinality below which a materialised intersection converts back to
#: array form (roaring's array/bitmap flip point: 4096 entries).
ARRAY_MAX = 4096

#: The fallback ladder, best rung first.
TIER_LADDER = ("roaring", "packed", "bitmap", "python")

#: Mean column density above which compression stops paying and the
#: engine drops to the flat packed/int representation.
DENSE_CUTOFF = 0.10

#: Item-steps between deadline checks in the container walk (matches the
#: work-budget cadence of the packed path).
_DEADLINE_WORK = 4096


def measure_density(db) -> Dict[str, float]:
    """Cheap density evidence for a database: one pass over the counts.

    Returns a JSON-ready dict with the structural facts the tier choice
    (and :func:`repro.db.counting.engine_decision`) keys on:

    ``rows``/``items``/``nnz``
        shape and total set bits of the vertical view;
    ``density``
        mean column density ``nnz / (rows * items)``;
    ``max_item_density``
        density of the most frequent item (skew witness);
    ``sparse_item_fraction``
        fraction of items that would build array containers
        (support <= ARRAY_MAX per chunk on average).
    """
    rows = len(db)
    counts = db.item_support_counts()
    items = len(counts)
    nnz = sum(counts.values())
    cells = rows * items
    chunks = max(1, (rows + CHUNK_SIZE - 1) // CHUNK_SIZE)
    sparse_cut = ARRAY_MAX * chunks
    return {
        "rows": rows,
        "items": items,
        "nnz": nnz,
        "density": (nnz / cells) if cells else 0.0,
        "max_item_density": (
            max(counts.values()) / rows if counts and rows else 0.0
        ),
        "sparse_item_fraction": (
            sum(1 for value in counts.values() if value <= sparse_cut) / items
            if items
            else 0.0
        ),
    }


# ----------------------------------------------------------------------
# NumPy containers
# ----------------------------------------------------------------------

if _np is not None:

    from .vertical import _popcount_words

    _ONES = _np.uint64(0xFFFFFFFFFFFFFFFF)

    class _Sparse:
        """Sorted int64 row positions of a whole column (array form).

        One flat array per column keeps the interpreter overhead of an
        intersection *constant* — a single vectorized ``searchsorted``
        probe — no matter how many 2^16-row chunks the column spans.
        """

        __slots__ = ("positions",)
        kind = "array"

        def __init__(self, positions) -> None:
            self.positions = positions

        @property
        def card(self) -> int:
            return int(self.positions.shape[0])

    class _Dense:
        """Packed uint64 words over the column's occupied word span.

        ``offset`` is the span's first word index; words before it and
        past the end are implicitly zero and never stored, so an AND of
        two dense containers slices only the overlap of both spans.
        """

        __slots__ = ("offset", "words", "card")
        kind = "bitmap"

        def __init__(self, offset: int, words, card: int) -> None:
            self.offset = offset
            self.words = words
            self.card = card

    class _Run:
        """Sorted, disjoint ``[start, stop)`` int64 intervals (run form).

        Run-vs-bitmap intersections expand to dense words lazily, once,
        and cache the expansion — runs are chosen only when there are
        very few of them, so the expansion is cheap and rare.
        """

        __slots__ = ("runs", "card", "_dense")
        kind = "run"

        def __init__(self, runs, card: int) -> None:
            self.runs = runs
            self.card = card
            self._dense = None

        def dense(self) -> "_Dense":
            if self._dense is None:
                runs = self.runs
                lo = int(runs[0, 0]) >> 6
                hi = ((int(runs[-1, 1]) - 1) >> 6) + 1
                words = _np.zeros(hi - lo, dtype=_np.uint64)
                for start, stop in runs.tolist():
                    first = (start >> 6) - lo
                    last = ((stop - 1) >> 6) - lo
                    head = _ONES << _np.uint64(start & 63)
                    tail = _ONES >> _np.uint64(63 - ((stop - 1) & 63))
                    if first == last:
                        words[first] |= head & tail
                    else:
                        words[first] |= head
                        words[first + 1 : last] = _ONES
                        words[last] |= tail
                self._dense = _Dense(lo, words, self.card)
            return self._dense

    def _probe_sparse(positions, other):
        """Bool mask: which sorted ``positions`` are set in ``other``.

        The sparse probe needs no bounds mask: ``take(mode="clip")``
        clips an off-the-end index to the last element, which compares
        unequal by construction (the probed value is larger than it).
        """
        if type(other) is _Sparse:
            theirs = other.positions
            got = theirs.take(
                _np.searchsorted(theirs, positions), mode="clip"
            )
            return got == positions
        if type(other) is _Dense:
            bits = _gather_bits(positions, other)
            if type(bits) is tuple:
                valid, bits = bits
                return valid & (bits != 0)
            return bits != 0
        runs = other.runs
        idx = _np.searchsorted(runs[:, 0], positions, side="right") - 1
        stops = runs[:, 1].take(_np.maximum(idx, 0))
        return (idx >= 0) & (positions < stops)

    def _gather_bits(positions, dense):
        """Per-position bit values gathered from a dense container.

        Returns an int array of 0/1 values — or, when some positions
        fall outside the container's span, a ``(valid, bits)`` pair.
        The common case (a span covering the whole probe range) skips
        the bounds arithmetic entirely: one gather, one shift, one mask.
        """
        word_index = (positions >> 6) - dense.offset
        # uint64 words viewed as int64: arithmetic shift differs from
        # logical only in the bits above the one ``& 1`` keeps
        if dense.offset == 0 and (
            int(positions[-1]) >> 6
        ) < dense.words.shape[0]:
            gathered = dense.words.take(word_index).view(_np.int64)
            return (gathered >> (positions & 63)) & 1
        valid = (word_index >= 0) & (word_index < dense.words.shape[0])
        gathered = dense.words.take(word_index, mode="clip").view(_np.int64)
        return valid, (gathered >> (positions & 63)) & 1

    def _probe_count(positions, other) -> int:
        """How many sorted ``positions`` are set in ``other`` (fused)."""
        if type(other) is _Sparse:
            theirs = other.positions
            got = theirs.take(
                _np.searchsorted(theirs, positions), mode="clip"
            )
            return int(_np.count_nonzero(got == positions))
        if type(other) is _Dense:
            bits = _gather_bits(positions, other)
            if type(bits) is tuple:
                valid, bits = bits
                return int(_np.count_nonzero(valid & (bits != 0)))
            return int(_np.count_nonzero(bits))
        return int(_np.count_nonzero(_probe_sparse(positions, other)))

    def _run_intersect(runs_a, runs_b):
        """Interval-merge intersection of two run lists (None when empty)."""
        list_a = runs_a.tolist()
        list_b = runs_b.tolist()
        out: List[Tuple[int, int]] = []
        card = 0
        i = j = 0
        while i < len(list_a) and j < len(list_b):
            start = max(list_a[i][0], list_b[j][0])
            stop = min(list_a[i][1], list_b[j][1])
            if start < stop:
                out.append((start, stop))
                card += stop - start
            if list_a[i][1] <= list_b[j][1]:
                i += 1
            else:
                j += 1
        if not out:
            return None
        return _np.array(out, dtype=_np.int64), card

    def _dense_overlap(a, b):
        """Word slices of two dense containers over their span overlap."""
        lo = max(a.offset, b.offset)
        hi = min(a.offset + a.words.shape[0], b.offset + b.words.shape[0])
        if hi <= lo:
            return None
        return (
            lo,
            a.words[lo - a.offset : hi - a.offset],
            b.words[lo - b.offset : hi - b.offset],
        )

    def _col_and(a, b):
        """Fully-materialised column intersection (None when empty)."""
        ta, tb = type(a), type(b)
        if ta is _Sparse or tb is _Sparse:
            # probe the smaller sparse side: O(|small| log |big|)
            if ta is not _Sparse or (tb is _Sparse and b.card < a.card):
                a, b = b, a
            kept = a.positions[_probe_sparse(a.positions, b)]
            if not kept.shape[0]:
                return None
            return _Sparse(kept)
        if ta is _Run and tb is _Run:
            merged = _run_intersect(a.runs, b.runs)
            if merged is None:
                return None
            return _Run(*merged)
        if ta is _Run:
            a = a.dense()
        if tb is _Run:
            b = b.dense()
        overlap = _dense_overlap(a, b)
        if overlap is None:
            return None
        lo, words_a, words_b = overlap
        words = _np.bitwise_and(words_a, words_b)
        card = int(_popcount_words(words[None, :])[0])
        if card == 0:
            return None
        if card <= words.shape[0]:
            # same byte rule as the build (8*card vs 8*words): sparse is
            # now the cheaper form, and later fused ops against this
            # intersection become array probes instead of word ANDs
            bits = _np.unpackbits(words.view(_np.uint8), bitorder="little")
            return _Sparse(_np.nonzero(bits)[0] + lo * 64)
        return _Dense(lo, words, card)

    def _col_and_card(a, b) -> int:
        """Fused intersect+popcount: cardinality without materialising."""
        ta, tb = type(a), type(b)
        if ta is _Sparse or tb is _Sparse:
            if ta is not _Sparse or (tb is _Sparse and b.card < a.card):
                a, b = b, a
            return _probe_count(a.positions, b)
        if ta is _Run:
            if tb is _Run:
                merged = _run_intersect(a.runs, b.runs)
                return 0 if merged is None else merged[1]
            a = a.dense()
        if tb is _Run:
            b = b.dense()
        overlap = _dense_overlap(a, b)
        if overlap is None:
            return 0
        _, words_a, words_b = overlap
        return int(
            _popcount_words(_np.bitwise_and(words_a, words_b)[None, :])[0]
        )


@view_constructors
class RoaringIndex:
    """Hybrid container index over one database's vertical view.

    Same ``counts`` contract as :class:`~repro.db.vertical.PackedBitmapIndex`
    (including the ``prefix_hits``/``prefix_misses`` accounting), but the
    candidate walk is container-native: sorted stream, longest-shared-
    prefix memo, fused final AND+popcount, absent-chunk skipping.
    """

    def __init__(self, columns: Dict[int, object], num_rows: int) -> None:
        self._columns = columns
        self._num_rows = num_rows
        self.prefix_hits = 0
        self.prefix_misses = 0

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @classmethod
    def from_view(cls, view: VerticalView) -> "RoaringIndex":
        columns: Dict[int, object] = {}
        for item, data in view.row_slices():
            container = cls._build_column(data)
            if container is not None:  # empty columns: lookup miss = 0
                columns[item] = container
        return cls(columns, view.num_rows)

    @staticmethod
    def _build_column(data):
        """Cheapest whole-column container for one item's packed row bytes.

        Byte costs: array ``8*card``, run ``16*runs``, bitmap ``8*words``
        over the occupied chunk-aligned span; ties prefer the array form
        (its probe is the cheapest intersection).  Empty columns return
        ``None`` and are not stored at all.
        """
        # the whole container decision runs at word level — positions are
        # unpacked only if the array/run form actually wins, so a dense
        # column never pays for bit unpacking at all
        words_all = _np.frombuffer(data, dtype=_np.uint64)
        occupied = _np.flatnonzero(words_all)
        if not occupied.shape[0]:
            return None
        occ_vals = words_all.take(occupied)
        card = int(_popcount_words(occ_vals[None, :])[0])
        # run count without positions: a run of L set bits contains L-1
        # adjacent pairs, so num_runs = card - pairs (pairs inside a word
        # via w & (w >> 1); pairs straddling consecutive words via the
        # high bit of one and the low bit of the next)
        pairs = int(
            _popcount_words(
                (occ_vals & (occ_vals >> _np.uint64(1)))[None, :]
            )[0]
        )
        if occupied.shape[0] > 1:
            adjacent = occupied[1:] == occupied[:-1] + 1
            straddle = (
                (occ_vals[:-1] >> _np.uint64(63)) & occ_vals[1:]
            ) & _np.uint64(1)
            pairs += int(_np.count_nonzero(adjacent & (straddle != 0)))
        lo_word = int(occupied[0]) // CHUNK_WORDS * CHUNK_WORDS
        hi_word = min(
            words_all.shape[0],
            (int(occupied[-1]) // CHUNK_WORDS + 1) * CHUNK_WORDS,
        )
        sparse_bytes = 8 * card
        run_bytes = 16 * (card - pairs)
        dense_bytes = 8 * (hi_word - lo_word)
        if min(sparse_bytes, run_bytes) <= dense_bytes:
            bits = _np.unpackbits(occ_vals.view(_np.uint8), bitorder="little")
            flat = _np.flatnonzero(bits)
            positions = occupied.take(flat >> 6) * 64 + (flat & 63)
            if sparse_bytes <= run_bytes:
                return _Sparse(positions)
            breaks = _np.flatnonzero(_np.diff(positions) > 1)
            starts = _np.concatenate(([positions[0]], positions[breaks + 1]))
            stops = _np.concatenate((positions[breaks], [positions[-1]])) + 1
            return _Run(_np.stack([starts, stops], axis=1), card)
        return _Dense(lo_word, words_all[lo_word:hi_word].copy(), card)

    # ------------------------------------------------------------------

    def container_counts(self) -> Dict[str, int]:
        """How many columns each container kind is serving."""
        tally = {"array": 0, "bitmap": 0, "run": 0}
        for container in self._columns.values():
            tally[container.kind] += 1
        return tally

    def compressed_bytes(self) -> int:
        """Payload bytes of every container (the compression numerator)."""
        total = 0
        for container in self._columns.values():
            if container.kind == "array":
                total += 8 * container.card
            elif container.kind == "bitmap":
                total += 8 * int(container.words.shape[0])
            else:
                total += 16 * int(container.runs.shape[0])
        return total

    def dense_bytes(self) -> int:
        """What the flat packed matrix would spend on the same view."""
        num_words = max(1, (self._num_rows + 63) // 64)
        return len(self._columns) * num_words * 8

    def density(self) -> float:
        cells = len(self._columns) * self._num_rows
        if not cells:
            return 0.0
        return sum(c.card for c in self._columns.values()) / cells

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        walk = _PrefixWalk(
            self._columns.get, _col_and, _col_and_card, self._num_rows
        )
        results = walk.counts(candidates, deadline_check)
        self.prefix_hits += walk.hits
        self.prefix_misses += walk.misses
        return results


class _PrefixWalk:
    """Sorted-candidate walk with a prefix memo and a fused last AND.

    Generic over the column type: ``and_full(a, b)`` materialises an
    intersection (must allocate — column objects are borrowed by the
    memo), ``and_card(a, b)`` answers only the cardinality.  Columns need
    a ``card`` attribute.  The memo is the same stack discipline as
    :class:`~repro.db.vertical.PrefixIntersector`; the fusion looks one
    candidate ahead in the sorted order — only when the next candidate
    *extends* the current one is the final intersection materialised for
    reuse, otherwise it is answered as a count directly.
    """

    def __init__(self, lookup, and_full, and_card, num_rows: int) -> None:
        self._lookup = lookup
        self._and_full = and_full
        self._and_card = and_card
        self._num_rows = num_rows
        self.hits = 0
        self.misses = 0

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
    ) -> List[int]:
        total = len(candidates)
        results = [0] * total
        order = sorted(range(total), key=lambda i: candidates[i])
        stack_items: List[int] = []
        stack_values: List[Optional[object]] = []  # None = no survivors
        work = 0
        for step, position in enumerate(order):
            candidate = candidates[position]
            length = len(candidate)
            if length == 0:
                results[position] = self._num_rows
                continue
            shared = 0
            limit = min(len(stack_items), length)
            while shared < limit and stack_items[shared] == candidate[shared]:
                shared += 1
            # a fused-away level holds no bitmap to extend or read — step
            # back below it so the walk recomputes that level (duplicates)
            while shared and stack_values[shared - 1] is _UNMATERIALIZED:
                shared -= 1
            del stack_items[shared:]
            del stack_values[shared:]
            self.hits += shared
            self.misses += length - shared
            successor = (
                candidates[order[step + 1]] if step + 1 < total else None
            )
            extends = (
                successor is not None
                and len(successor) > length
                and successor[:length] == candidate
            )
            value = stack_values[shared - 1] if shared else _TOP
            count: Optional[int] = None
            for depth in range(shared, length):
                work += 1
                if deadline_check is not None and work >= _DEADLINE_WORK:
                    work = 0
                    deadline_check()
                item = candidate[depth]
                last = depth == length - 1
                if value is None:
                    stack_items.append(item)
                    stack_values.append(None)
                    continue
                column = self._lookup(item)
                if column is None:
                    value = None
                elif value is _TOP:
                    value = column  # borrowed: and_full always allocates
                elif last and not extends:
                    # fused intersect+popcount: nothing downstream reuses
                    # this intersection, so never materialise it
                    count = self._and_card(value, column)
                    value = _UNMATERIALIZED
                else:
                    value = self._and_full(value, column)
                stack_items.append(item)
                stack_values.append(value)
            tail = stack_values[-1] if stack_values else _TOP
            if count is not None:
                results[position] = count
            elif tail is None:
                results[position] = 0
            elif tail is _TOP:
                results[position] = self._num_rows
            else:
                results[position] = tail.card
        return results


#: Sentinel for the empty prefix ("all rows").
_TOP = object()


class _Unmaterialized:
    """Placeholder for a fused-away intersection (count answered already).

    It can only be observed by an immediately following *duplicate*
    candidate (a duplicate shares every item but the memo holds no
    bitmap for the last level); re-deriving from the shorter prefix is
    what the stack discipline does anyway, so ``card`` is never read.
    """

    card = None


_UNMATERIALIZED = _Unmaterialized()


# ----------------------------------------------------------------------
# pure-Python chunked tier (the ladder's "bitmap" rung)
# ----------------------------------------------------------------------


class _IntVector:
    """Chunked arbitrary-precision bitmaps: chunk id -> non-zero int."""

    __slots__ = ("chunks", "_card")

    def __init__(self, chunks: Dict[int, int], card: Optional[int] = None) -> None:
        self.chunks = chunks
        self._card = card

    @property
    def card(self) -> int:
        if self._card is None:
            self._card = sum(popcount(value) for value in self.chunks.values())
        return self._card

    def and_vector(self, other: "_IntVector") -> "_IntVector":
        mine, theirs = self.chunks, other.chunks
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        out: Dict[int, int] = {}
        for key, value in mine.items():
            peer = theirs.get(key)
            if peer is not None:
                combined = value & peer
                if combined:
                    out[key] = combined
        return _IntVector(out)

    def and_card(self, other: "_IntVector") -> int:
        mine, theirs = self.chunks, other.chunks
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        total = 0
        for key, value in mine.items():
            peer = theirs.get(key)
            if peer is not None:
                total += popcount(value & peer)
        return total


@view_constructors
class ChunkedIntIndex:
    """Pure-Python twin of :class:`RoaringIndex` (chunked int bitmaps).

    Keeps the absent-chunk skipping — the part of the compressed tier
    that survives without NumPy — while every per-chunk AND/popcount
    stays a C-level big-int operation.
    """

    def __init__(self, columns: Dict[int, _IntVector], num_rows: int) -> None:
        self._columns = columns
        self._num_rows = num_rows
        self.prefix_hits = 0
        self.prefix_misses = 0

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @classmethod
    def from_view(cls, view: VerticalView) -> "ChunkedIntIndex":
        chunk_bytes = CHUNK_SIZE // 8
        columns: Dict[int, _IntVector] = {}
        for item, data in view.row_slices():
            chunks: Dict[int, int] = {}
            for index, start in enumerate(range(0, len(data), chunk_bytes)):
                piece = int.from_bytes(data[start : start + chunk_bytes], "little")
                if piece:
                    chunks[index] = piece
            columns[item] = _IntVector(chunks)
        return cls(columns, view.num_rows)

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        walk = _PrefixWalk(
            self._columns.get,
            lambda a, b: a.and_vector(b),
            lambda a, b: a.and_card(b),
            self._num_rows,
        )
        results = walk.counts(candidates, deadline_check)
        self.prefix_hits += walk.hits
        self.prefix_misses += walk.misses
        return results


# ----------------------------------------------------------------------
# the engine facade
# ----------------------------------------------------------------------

#: The index class serving each rung of :data:`TIER_LADDER`.
_TIER_INDEX = {
    "roaring": RoaringIndex,
    "packed": PackedBitmapIndex,
    "bitmap": ChunkedIntIndex,
    "python": IntBitmapIndex,
}


class RoaringCounter(SupportCounter):
    """The ``roaring`` engine: compressed counting with a fallback ladder.

    The rung is picked per database at index-build time from measured
    column density (:data:`DENSE_CUTOFF`) and NumPy availability, and is
    reported as :attr:`tier` plus ``engine.roaring.*`` metrics.
    ``force_tier`` pins a rung for differential tests; a forced rung
    whose prerequisites are missing (NumPy-backed rungs on a bare
    interpreter) steps down the ladder exactly like the shm engine does.
    """

    name = "roaring"

    def __init__(
        self,
        force_tier: Optional[str] = None,
        dense_cutoff: float = DENSE_CUTOFF,
    ) -> None:
        super().__init__()
        if force_tier is not None and force_tier not in TIER_LADDER:
            raise ValueError(
                "unknown roaring tier %r (choose from %s)"
                % (force_tier, ", ".join(TIER_LADDER))
            )
        self._force_tier = force_tier
        self._dense_cutoff = dense_cutoff
        self._index = None
        self._index_db = None
        #: the ladder rung serving the current database (None until built)
        self.tier: Optional[str] = None
        #: mean column density measured at the last index build
        self.density: float = 0.0
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0

    # ------------------------------------------------------------------

    def _resolve_tier(self, density: float) -> str:
        if self._force_tier is not None:
            tier = self._force_tier
            if not HAVE_NUMPY and tier in ("roaring", "packed"):
                # step down the ladder to the pure-Python twin rung
                tier = "bitmap" if tier == "roaring" else "python"
            return tier
        if HAVE_NUMPY:
            return "roaring" if density <= self._dense_cutoff else "packed"
        return "bitmap" if density <= self._dense_cutoff else "python"

    def _index_for(self, db):
        if (
            self._index is None
            or self._index_db is None
            or self._index_db() is not db
        ):
            # the per-item counts engine resolution already measured
            counts = db.item_support_counts()
            cells = len(counts) * len(db)
            density = sum(counts.values()) / cells if cells else 0.0
            tier = self._resolve_tier(density)
            self._index = _TIER_INDEX[tier].from_view(db.vertical())
            self._index_db = weakref.ref(db)
            self.tier = tier
            self.density = density
            if self.obs.enabled:
                self.obs.counter("engine.roaring.tier.%s" % tier).inc()
                self.obs.gauge("engine.roaring.density").set(density)
                if isinstance(self._index, RoaringIndex):
                    mix = self._index.container_counts()
                    for kind, value in mix.items():
                        self.obs.gauge(
                            "engine.roaring.containers.%s" % kind
                        ).set(value)
                    self.obs.gauge("engine.roaring.compressed_bytes").set(
                        self._index.compressed_bytes()
                    )
                    self.obs.gauge("engine.roaring.dense_bytes").set(
                        self._index.dense_bytes()
                    )
        return self._index

    def container_counts(self) -> Dict[str, int]:
        """Container mix of the current index ({} off the roaring rung)."""
        if isinstance(self._index, RoaringIndex):
            return self._index.container_counts()
        return {}

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
