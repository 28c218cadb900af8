"""Memory-budgeted counting over partitioned snapshots (out-of-core plane).

Every other engine assumes the whole vertical matrix fits in memory; this
module is the tier that does not.  It rests on the v2 snapshot invariant
(:mod:`repro.db.snapshot`): partitions are 64-row-aligned **row ranges**,
each with its own independently mmap-able packed matrix, and support is
*additive* over them::

    support(X) = sum_p popcount(AND of X's rows in partition p)

Three layers:

:class:`BudgetScheduler`
    The accounting authority for mapped matrix bytes.  ``attach`` admits
    a mapping only while the running total stays within ``memory_budget``;
    high-water marks (``max_mapped_bytes`` / ``max_mapped_partitions``)
    and attach/detach counts are kept for tests, stats evidence, and the
    obs plane.  The budget models *resident index bytes*: what a counting
    pass actually faults in, not virtual address space.

:class:`SnapshotPartitionHandle` / :class:`MemoryPartitionHandle`
    The attach/mine/detach unit.  ``counts`` attaches the partition index
    on demand (billing the scheduler), and — when even one partition
    exceeds the budget — falls back to **windowed** counting: the matrix
    is counted one word-aligned column window at a time, each window
    admitted and released individually, so the resident set never exceeds
    the budget no matter how large the partition.  ``detach`` drops the
    index *and* asks the kernel to evict the partition's page-cache bytes
    (``posix_fadvise(DONTNEED)``), which is what makes the budget honest
    on machines whose page cache would otherwise keep everything warm:
    re-attaching really re-reads from disk.

:class:`PartitionedCounter`
    The ``partitioned`` engine.  One :meth:`count` call is one logical
    pass over the database (bills ``len(db)`` records), implemented as a
    sweep over the partitions with greedy LRU-style eviction: partitions
    stay attached as long as the budget allows, so a generous budget
    degenerates to the packed engine's behaviour while a tight one
    attaches/detaches (and therefore re-reads) every pass — the I/O
    structure the Partition scheme [16] trades for bounded memory.
    Databases without a partitioned snapshot are self-partitioned in
    memory, keeping the engine usable (and differentially testable) on
    plain :class:`~repro.db.transaction_db.TransactionDatabase` inputs.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .._types import Itemset
from .base import SupportCounter
from .snapshot import SnapshotPartition, load_snapshot, partition_row_starts
from .vertical import HAVE_NUMPY, IntBitmapIndex, build_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transaction_db import TransactionDatabase

__all__ = [
    "BudgetExceededError",
    "BudgetScheduler",
    "HandleCounter",
    "MemoryPartitionHandle",
    "PartitionedCounter",
    "SnapshotPartitionHandle",
    "evict_file_pages",
    "handles_for_database",
]

#: Self-partitioning width for databases without a partitioned snapshot.
DEFAULT_SELF_PARTITIONS = 4


class BudgetExceededError(RuntimeError):
    """An attach would push mapped matrix bytes past the memory budget."""


def evict_file_pages(path, offset: int, length: int) -> None:
    """Drop ``path``'s page-cache bytes in ``[offset, offset+length)``.

    Best-effort (``posix_fadvise`` may be missing, e.g. on macOS): when it
    is unavailable the budget still bounds *mapped* bytes, but re-attach
    cost depends on the page cache.  The kernel ignores the advice for
    pages still referenced by a live mapping, so callers must drop their
    index/memmap references first.
    """
    if length <= 0 or not hasattr(os, "posix_fadvise"):  # pragma: no cover
        return
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.posix_fadvise(fd, offset, length, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


class BudgetScheduler:
    """Admission control + accounting for mapped partition-matrix bytes.

    ``memory_budget=None`` means unlimited (accounting still runs).  The
    scheduler is deliberately passive — it admits or refuses, and counts;
    *which* mapping to evict is the caller's policy — so the same
    instance can arbitrate whole-partition attaches and sub-partition
    windows alike.
    """

    def __init__(self, memory_budget: Optional[int] = None) -> None:
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError("memory_budget must be positive (or None)")
        self.memory_budget = memory_budget
        self.mapped_bytes = 0
        self.mapped_partitions = 0
        self.attaches = 0
        self.detaches = 0
        self.max_mapped_bytes = 0
        self.max_mapped_partitions = 0

    def fits(self, nbytes: int) -> bool:
        """Would mapping ``nbytes`` more stay within the budget?"""
        return (
            self.memory_budget is None
            or self.mapped_bytes + nbytes <= self.memory_budget
        )

    def attach(self, nbytes: int, force: bool = False) -> None:
        """Admit ``nbytes`` of mapping, or raise :class:`BudgetExceededError`.

        ``force=True`` admits (and accounts) regardless of the budget —
        for the windowed counters' *minimum* unit: one word column is
        the smallest mappable slice the 64-row alignment allows, so a
        budget below it is enforced at that granularity rather than
        deadlocking.
        """
        if not force and not self.fits(nbytes):
            raise BudgetExceededError(
                "mapping %d more bytes would exceed the %d-byte budget "
                "(%d already mapped)"
                % (nbytes, self.memory_budget, self.mapped_bytes)
            )
        self.mapped_bytes += nbytes
        self.mapped_partitions += 1
        self.attaches += 1
        self.max_mapped_bytes = max(self.max_mapped_bytes, self.mapped_bytes)
        self.max_mapped_partitions = max(
            self.max_mapped_partitions, self.mapped_partitions
        )

    def detach(self, nbytes: int) -> None:
        self.mapped_bytes -= nbytes
        self.mapped_partitions -= 1
        self.detaches += 1

    def window_words(self, num_items: int) -> int:
        """Widest word-column window that fits the *remaining* budget.

        One word column is ``num_items * 8`` bytes and covers 64 rows.
        Always at least 1 so windowed counting can make progress; a
        budget smaller than one word column is therefore enforced at
        word granularity (the minimum unit the 64-row alignment allows).
        """
        if self.memory_budget is None:
            return 1 << 30
        free = self.memory_budget - self.mapped_bytes
        return max(1, free // (num_items * 8))

    def accounting(self) -> Dict[str, int]:
        """JSON-ready accounting snapshot (stats evidence, tests)."""
        return {
            "memory_budget": self.memory_budget,
            "attaches": self.attaches,
            "detaches": self.detaches,
            "mapped_bytes": self.mapped_bytes,
            "max_mapped_bytes": self.max_mapped_bytes,
            "max_mapped_partitions": self.max_mapped_partitions,
        }


class SnapshotPartitionHandle:
    """Attach/mine/detach unit over one on-disk snapshot partition."""

    def __init__(
        self,
        partition: SnapshotPartition,
        scheduler: BudgetScheduler,
        force_python: bool = False,
    ) -> None:
        self._partition = partition
        self._scheduler = scheduler
        self._force_python = force_python
        self._index = None

    def __repr__(self) -> str:
        return "SnapshotPartitionHandle(%r, attached=%s)" % (
            self._partition, self.attached,
        )

    @property
    def partition(self) -> SnapshotPartition:
        return self._partition

    @property
    def ordinal(self) -> int:
        return self._partition.ordinal

    @property
    def row_start(self) -> int:
        return self._partition.row_start

    @property
    def num_rows(self) -> int:
        return self._partition.num_rows

    @property
    def matrix_bytes(self) -> int:
        return self._partition.matrix_bytes

    @property
    def attached(self) -> bool:
        return self._index is not None

    def attach(self):
        """Map the partition index within the budget and return it."""
        if self._index is None:
            self._scheduler.attach(self.matrix_bytes)
            try:
                self._index = self._partition.index(self._force_python)
            except BaseException:
                self._scheduler.detach(self.matrix_bytes)
                raise
        return self._index

    def detach(self) -> None:
        """Drop the index and evict the partition's page-cache bytes.

        The eviction is what keeps the out-of-core contract honest: a
        later re-attach pays real file I/O, exactly as it would when the
        data genuinely exceeds RAM.
        """
        if self._index is None:
            return
        self._index = None
        self._scheduler.detach(self.matrix_bytes)
        evict_file_pages(
            self._partition.path, self._partition.matrix_offset,
            self.matrix_bytes,
        )

    def counts(
        self, candidates: Sequence[Itemset], deadline_check=None
    ) -> List[int]:
        """Local support counts, parallel to ``candidates``.

        Uses the resident index when the partition fits the budget,
        otherwise counts window by window without ever holding more than
        the budget's worth of word columns.
        """
        if self.attached or self._scheduler.fits(self.matrix_bytes):
            return self.attach().counts(candidates, deadline_check)
        return self._windowed_counts(candidates, deadline_check)

    def _windowed_counts(
        self, candidates: Sequence[Itemset], deadline_check=None
    ) -> List[int]:
        part = self._partition
        totals = [0] * len(candidates)
        word_lo = 0
        while word_lo < part.num_words:
            window = self._scheduler.window_words(part.num_items)
            word_hi = min(part.num_words, word_lo + window)
            nbytes = part.num_items * (word_hi - word_lo) * 8
            # a single word column is the indivisible unit — admit it
            # even under a smaller budget (see BudgetScheduler.attach)
            self._scheduler.attach(nbytes, force=(word_hi - word_lo == 1))
            try:
                window_counts = self._count_window(
                    word_lo, word_hi, candidates, deadline_check
                )
            finally:
                self._scheduler.detach(nbytes)
                evict_file_pages(
                    part.path, part.matrix_offset, part.matrix_bytes
                )
            for position, value in enumerate(window_counts):
                totals[position] += value
            word_lo = word_hi
        return totals

    def _count_window(
        self, word_lo: int, word_hi: int, candidates, deadline_check
    ) -> List[int]:
        part = self._partition
        if HAVE_NUMPY and not self._force_python:
            # map the partition, then count through a column-slice
            # view: only the window's pages are faulted (a row-major
            # matrix slice touches ~one page run per item row)
            return part.packed_index().word_slice(word_lo, word_hi).counts(
                candidates, deadline_check
            )
        rows_before = min(part.num_rows, word_lo * 64)
        rows_in = max(0, min(part.num_rows, word_hi * 64) - rows_before)
        bitmaps = part.int_bitmaps(word_lo, word_hi)
        return IntBitmapIndex(bitmaps, rows_in).counts(
            candidates, deadline_check
        )


class MemoryPartitionHandle:
    """The same handle surface over an in-memory row range.

    Lets the ``partitioned`` engine (and its differential tests) run on
    plain transaction lists with no snapshot on disk.  ``matrix_bytes``
    is the packed-matrix equivalent, so budget accounting stays
    comparable; there is no windowed fallback — a budget too small for
    an in-memory partition is a configuration error, reported as such.
    """

    def __init__(
        self,
        transactions: Sequence,
        universe,
        row_start: int,
        scheduler: BudgetScheduler,
        force_python: bool = False,
        ordinal: int = 0,
    ) -> None:
        self._transactions = transactions
        self._universe = tuple(universe)
        self.row_start = row_start
        self.ordinal = ordinal
        self._scheduler = scheduler
        self._force_python = force_python
        self._index = None

    @property
    def num_rows(self) -> int:
        return len(self._transactions)

    @property
    def matrix_bytes(self) -> int:
        return len(self._universe) * max(1, (self.num_rows + 63) // 64) * 8

    @property
    def attached(self) -> bool:
        return self._index is not None

    def attach(self):
        if self._index is None:
            self._scheduler.attach(self.matrix_bytes)
            try:
                self._index = build_index(
                    self._transactions, self._universe, self._force_python
                )
            except BaseException:
                self._scheduler.detach(self.matrix_bytes)
                raise
        return self._index

    def detach(self) -> None:
        if self._index is None:
            return
        self._index = None
        self._scheduler.detach(self.matrix_bytes)

    def counts(
        self, candidates: Sequence[Itemset], deadline_check=None
    ) -> List[int]:
        return self.attach().counts(candidates, deadline_check)


def handles_for_database(
    db,
    scheduler: BudgetScheduler,
    num_partitions: Optional[int] = None,
    force_python: bool = False,
) -> List:
    """Partition handles for ``db``, preferring its on-disk snapshot.

    A snapshot-backed database (``db.snapshot_path``) yields one
    :class:`SnapshotPartitionHandle` per snapshot partition — for a v1
    file that is a single whole-range partition, which still gets budget
    accounting and windowed counting.  Anything else is self-partitioned
    in memory into ``num_partitions`` 64-row-aligned ranges.
    """
    snapshot_path = getattr(db, "snapshot_path", None)
    if snapshot_path is not None:
        snap = load_snapshot(snapshot_path)
        return [
            SnapshotPartitionHandle(partition, scheduler, force_python)
            for partition in snap.partitions
        ]
    transactions = list(db)
    starts = partition_row_starts(
        len(transactions),
        num_partitions=num_partitions or DEFAULT_SELF_PARTITIONS,
    )
    bounds = starts + [len(transactions)]
    universe = tuple(db.universe)
    return [
        MemoryPartitionHandle(
            transactions[bounds[i] : bounds[i + 1]], universe, bounds[i],
            scheduler, force_python, ordinal=i,
        )
        for i in range(len(starts))
    ]


class HandleCounter(SupportCounter):
    """A :class:`SupportCounter` over exactly one partition handle.

    This is what Phase I of the partitioned miner hands to the pincer
    engine stack: the miner sees an ordinary counting engine, but every
    pass reads (and bills) only this partition's rows, through the same
    budget scheduler the other partitions share.  ``close`` detaches the
    handle — the attach/mine/detach lifecycle of one partition *is* the
    lifecycle of its counter.
    """

    name = "partition-local"

    def __init__(self, handle) -> None:
        super().__init__()
        self._handle = handle

    @property
    def handle(self):
        return self._handle

    def _bill_records(self, db) -> None:
        self.records_read += self._handle.num_rows

    def _count(self, db, candidates: List[Itemset]) -> Dict[Itemset, int]:
        return dict(
            zip(
                candidates,
                self._handle.counts(candidates, self._check_deadline),
            )
        )

    def _detach(self) -> None:
        self._handle.detach()


class PartitionedCounter(SupportCounter):
    """The ``partitioned`` engine: budgeted partition sweep, additive sums.

    One :meth:`count` call is one logical pass over the database —
    ``records_read`` grows by ``len(db)`` — realised as a sweep over the
    row partitions.  Before each partition is counted, already-attached
    partitions are greedily evicted (oldest first) until the next one
    fits the budget; whatever still fits at the end of the pass *stays*
    attached, so passes against a generous budget re-use warm indexes
    while a tight budget forces the honest re-read-per-pass I/O pattern.
    """

    name = "partitioned"

    def __init__(
        self,
        memory_budget: Optional[int] = None,
        num_partitions: Optional[int] = None,
        force_python: bool = False,
    ) -> None:
        super().__init__()
        self.scheduler = BudgetScheduler(memory_budget)
        self._num_partitions = num_partitions
        self._force_python = force_python
        self._handles: Optional[List] = None
        self._handles_db = None  # weakref to the db the handles map

    def handles_for(self, db) -> List:
        """The partition handles for ``db`` (built once, then cached)."""
        if (
            self._handles is None
            or self._handles_db is None
            or self._handles_db() is not db
        ):
            self._release_handles()
            self._handles = handles_for_database(
                db, self.scheduler,
                num_partitions=self._num_partitions,
                force_python=self._force_python,
            )
            self._handles_db = weakref.ref(db)
        return self._handles

    @property
    def num_partitions(self) -> Optional[int]:
        return len(self._handles) if self._handles is not None else None

    def _make_room(self, handle, handles) -> None:
        """Evict other attached partitions until ``handle`` fits."""
        if handle.attached or self.scheduler.fits(handle.matrix_bytes):
            return
        for other in handles:
            if other is handle or not other.attached:
                continue
            other.detach()
            if self.scheduler.fits(handle.matrix_bytes):
                return

    def _count(
        self, db: "TransactionDatabase", candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        handles = self.handles_for(db)
        totals = [0] * len(candidates)
        for handle in handles:
            self._check_deadline()
            self._make_room(handle, handles)
            for position, value in enumerate(
                handle.counts(candidates, self._check_deadline)
            ):
                totals[position] += value
        if self.obs.enabled:
            self.obs.gauge("partition.mapped_bytes").set(
                self.scheduler.mapped_bytes
            )
            self.obs.gauge("partition.mapped_partitions").set(
                self.scheduler.mapped_partitions
            )
        return dict(zip(candidates, totals))

    def evidence(self) -> Dict[str, object]:
        """Budget/partition accounting for ``MiningStats.engine_evidence``."""
        info: Dict[str, object] = {"engine": self.name}
        if self._handles is not None:
            info["partitions"] = len(self._handles)
        info.update(self.scheduler.accounting())
        return info

    def _release_handles(self) -> None:
        if self._handles:
            for handle in self._handles:
                handle.detach()
        self._handles = None
        self._handles_db = None

    def _detach(self) -> None:
        self._release_handles()
