"""Versioned on-disk packed-bitmap snapshots (the ``.snap`` format).

A snapshot serialises the *vertical* view of a transaction database — the
``(num_items, num_words)`` uint64 bitmap matrix of
:class:`repro.db.vertical.PackedBitmapIndex`, plus the item universe and
the row count — into a single flat file designed to be **memory-mapped**:
every multi-byte field is little-endian, the matrix is row-major, and
both the universe array and the matrix start on 8-byte boundaries, so a
reader can hand the OS page cache the whole index with one ``mmap``
call and zero parsing.

This is the pre-parallel tax killer for out-of-core mining: a
:class:`repro.db.disk.DiskTransactionDatabase` normally pays one full
basket parse for the metadata pass and another to build bitmaps.  With a
snapshot (``pincer snapshot data.dat``), both are replaced by one
``open`` + header read, and the shared-memory counting plane
(:mod:`repro.db.shm`) can fall back to mapping this file directly when
POSIX shared memory is unavailable.

Layout (version 1)::

    offset  size               field
    ------  ----               -----
         0  8                  magic  b"PINCSNAP"
         8  4                  format version (uint32)
        12  4                  reserved flags (uint32, zero)
        16  8                  num_rows   (uint64) — transactions
        24  8                  num_items  (uint64) — universe size
        32  8                  num_words  (uint64) — ceil(num_rows/64), min 1
        40  8 * num_items      universe   (int64, ascending)
         …  8 * num_items
             * num_words       bitmap matrix (uint64, row-major; row i is
                               the transaction bitmap of ``universe[i]``,
                               little-endian across words, tail bits zero)

Layout (version 2 — partitioned, for out-of-core mining)::

    offset  size               field
    ------  ----               -----
         0  40                 header as v1, version = 2
        40  8 * num_items      universe   (int64, ascending)
         …  8                  num_partitions (uint64, >= 1)
         …  32 * P             partition directory: per partition
                               (row_start, num_rows, num_words,
                               matrix_offset), all uint64
         …  …                  per-partition matrices, in directory
                               order: each a row-major
                               ``(num_items, num_words_p)`` uint64 block

Version 2 splits the **rows** (transactions) into contiguous ranges and
stores one complete packed matrix per range, each independently
memory-mappable and 8-byte aligned.  Partition boundaries are 64-row
aligned (every partition except the last holds a multiple of 64 rows),
which makes each partition's matrix exactly a word-aligned column slice
of the logical global matrix: bit ``t`` of the global bitmap of an item
lives in partition ``p`` with ``row_start_p <= t`` at local bit
``t - row_start_p``.  Support is therefore *additive* over partitions —
``support(X) = Σ_p popcount(AND of X's rows in partition p)`` — which is
what the two-scan Partition mining scheme and the memory-budget counting
plane (:mod:`repro.db.outofcore`) build on.

:func:`write_snapshot` still writes version 1 (the default, and the only
layout with a single contiguous matrix); :func:`write_partitioned_snapshot`
streams rows into a version-2 file one partition at a time, never holding
the full matrix.  :func:`load_snapshot` reads both; a v1 file surfaces as
a single-partition snapshot, so partition-aware readers need no special
case.

The format is self-describing and NumPy-optional: the matrix payload is
exactly the buffer of a :class:`~repro.db.vertical.VerticalView`, so the
writers write that buffer as is and the readers map it back
(:meth:`Snapshot.vertical`) with the same code on any interpreter;
snapshots written on a NumPy box load on a bare interpreter and vice
versa.
"""

from __future__ import annotations

import mmap
import os
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .vertical import (
    PackedBitmapIndex,
    VerticalView,
    build_index,
    build_vertical,
)

PathLike = Union[str, Path]

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SUFFIX",
    "SNAPSHOT_VERSION",
    "SNAPSHOT_VERSION_PARTITIONED",
    "SUPPORTED_SNAPSHOT_VERSIONS",
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotPartition",
    "default_snapshot_path",
    "load_snapshot",
    "partition_row_starts",
    "snapshot_database",
    "write_partitioned_snapshot",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"PINCSNAP"
#: The default *written* version: one contiguous matrix.
SNAPSHOT_VERSION = 1
#: The partitioned layout written by :func:`write_partitioned_snapshot`.
SNAPSHOT_VERSION_PARTITIONED = 2
SUPPORTED_SNAPSHOT_VERSIONS = (SNAPSHOT_VERSION, SNAPSHOT_VERSION_PARTITIONED)
SNAPSHOT_SUFFIX = ".snap"

_HEADER = struct.Struct("<8sIIQQQ")
HEADER_SIZE = _HEADER.size  # 40 bytes; keeps the arrays 8-byte aligned

_PARTITION_ENTRY = struct.Struct("<QQQQ")
PARTITION_ENTRY_SIZE = _PARTITION_ENTRY.size  # 32 bytes, 8-aligned


class SnapshotFormatError(ValueError):
    """The file is not a snapshot this reader understands."""


def default_snapshot_path(database_path: PathLike) -> Path:
    """``data.dat`` -> ``data.dat.snap`` (suffix appended, not replaced)."""
    path = Path(database_path)
    return path.with_name(path.name + SNAPSHOT_SUFFIX)


def _num_words(num_rows: int) -> int:
    return max(1, (num_rows + 63) // 64)


def write_snapshot(
    path: PathLike,
    universe: Iterable[int],
    num_rows: int,
    bitmaps: Optional[Dict[int, int]] = None,
    matrix=None,
) -> Path:
    """Serialise a vertical index to ``path`` (atomic: write + rename).

    Exactly one of ``matrix`` and ``bitmaps`` must be given.  ``matrix``
    is the packed matrix, rows in sorted ``universe`` order: a
    :attr:`~repro.db.vertical.VerticalView.buffer` (written as is — it
    already is the payload) or a C-contiguous ``(num_items, num_words)``
    uint64 array.  ``bitmaps`` (item -> int bitmap, as ``item_bitmaps``
    returns) is packed first.  Always writes format version 1 (single
    contiguous matrix); see :func:`write_partitioned_snapshot` for the
    partitioned v2 layout.
    """
    if (bitmaps is None) == (matrix is None):
        raise ValueError("give exactly one of bitmaps and matrix")
    items = sorted(set(int(item) for item in universe))
    words = _num_words(num_rows)
    if bitmaps is not None:
        matrix = VerticalView.from_bitmaps(bitmaps, num_rows, items).buffer
    payload = memoryview(matrix).cast("B")
    if payload.nbytes != 8 * len(items) * words:
        raise ValueError(
            "%d-byte matrix does not match %d items x %d rows"
            % (payload.nbytes, len(items), num_rows)
        )
    path = Path(path)
    temp = path.with_name(path.name + ".tmp.%d" % os.getpid())
    with open(temp, "wb") as handle:
        handle.write(
            _HEADER.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0,
                num_rows, len(items), words,
            )
        )
        handle.write(struct.pack("<%dq" % len(items), *items))
        handle.write(payload)
    os.replace(temp, path)
    return path


def partition_row_starts(
    num_rows: int,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> List[int]:
    """Row offsets of the v2 partition boundaries (64-row aligned).

    Exactly one of ``num_partitions`` and ``partition_rows`` may be
    given (neither means one partition).  The per-partition row count is
    rounded **up** to a multiple of 64 so every partition's matrix is a
    word-aligned column slice of the logical global matrix; tiny
    databases may therefore end up with fewer partitions than requested.
    """
    if num_partitions is not None and partition_rows is not None:
        raise ValueError("give at most one of num_partitions and partition_rows")
    if num_rows <= 0:
        return [0]
    if partition_rows is None:
        if num_partitions is None:
            return [0]
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        partition_rows = -(-num_rows // num_partitions)  # ceil division
    if partition_rows < 1:
        raise ValueError("partition_rows must be at least 1")
    partition_rows = ((partition_rows + 63) // 64) * 64
    return list(range(0, num_rows, partition_rows))


def write_partitioned_snapshot(
    path: PathLike,
    universe: Iterable[int],
    num_rows: int,
    transactions: Iterable[Iterable[int]],
    *,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> Path:
    """Stream ``transactions`` into a partitioned v2 snapshot at ``path``.

    ``transactions`` is consumed exactly once, in row order.  Each
    partition's rows go through :func:`~repro.db.vertical.build_vertical`
    and its buffer is written as the partition's matrix, so only one
    partition's matrix (``num_items x ceil(rows_p / 64)`` uint64 words)
    is resident at a time — the writer's memory is bounded by the
    *partition* size, not the database size, which is what lets
    ``pincer snapshot --partitions`` build beyond-RAM snapshots.

    Partition sizing follows :func:`partition_row_starts`; every item in
    every transaction must be in ``universe``.  Atomic like
    :func:`write_snapshot` (temp file + rename).
    """
    items = sorted(set(int(item) for item in universe))
    starts = partition_row_starts(
        num_rows, num_partitions=num_partitions, partition_rows=partition_rows
    )
    bounds = starts + [max(0, num_rows)]
    table: List[Tuple[int, int, int, int]] = []
    directory_end = (
        HEADER_SIZE + 8 * len(items) + 8 + PARTITION_ENTRY_SIZE * len(starts)
    )
    offset = directory_end
    for index in range(len(starts)):
        rows_p = bounds[index + 1] - bounds[index]
        words_p = _num_words(rows_p)
        table.append((bounds[index], rows_p, words_p, offset))
        offset += 8 * len(items) * words_p

    path = Path(path)
    temp = path.with_name(path.name + ".tmp.%d" % os.getpid())
    stream = iter(transactions)
    try:
        with open(temp, "wb") as handle:
            handle.write(
                _HEADER.pack(
                    SNAPSHOT_MAGIC, SNAPSHOT_VERSION_PARTITIONED, 0,
                    num_rows, len(items), _num_words(num_rows),
                )
            )
            handle.write(struct.pack("<%dq" % len(items), *items))
            handle.write(struct.pack("<Q", len(table)))
            for entry in table:
                handle.write(_PARTITION_ENTRY.pack(*entry))
            for _, rows_p, _, _ in table:
                handle.write(build_vertical(stream, items, rows_p).buffer)
    except Exception:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    os.replace(temp, path)
    return path


def snapshot_database(
    db,
    path: Optional[PathLike] = None,
    *,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> Path:
    """Build and write the snapshot of any database exposing the db surface.

    Works for :class:`~repro.db.transaction_db.TransactionDatabase` and
    :class:`~repro.db.disk.DiskTransactionDatabase` alike.  Returns the
    written path (default: the database file + ``.snap`` when the
    database knows its file, else ``path`` is required).

    Without partition options the v1 single-matrix layout is written: the
    database's ``vertical()`` buffer (one streaming pass for a disk
    database, cached on the database) is the payload, written as is.
    With ``num_partitions`` or ``partition_rows`` the v2 layout is
    written by :func:`write_partitioned_snapshot`, streaming the rows
    (memory bounded by one partition).
    """
    if path is None:
        source = getattr(db, "path", None)
        if source is None:
            raise ValueError("path is required for in-memory databases")
        path = default_snapshot_path(source)
    if num_partitions is not None or partition_rows is not None:
        return write_partitioned_snapshot(
            path, db.universe, len(db), iter(db),
            num_partitions=num_partitions, partition_rows=partition_rows,
        )
    view = db.vertical()
    return write_snapshot(
        path, view.universe, view.num_rows, matrix=view.buffer
    )


class SnapshotPartition:
    """One row range of a snapshot, with its own mmap-able packed matrix.

    Bit ``t`` of this partition's bitmap for an item corresponds to the
    *global* transaction ``row_start + t``.  Partitions are the
    attach/detach unit of the memory-budget scheduler
    (:mod:`repro.db.outofcore`): each offers the same lazy index surface
    as a whole snapshot, over only its own bytes.
    """

    __slots__ = (
        "path", "ordinal", "row_start", "num_rows", "num_words",
        "matrix_offset", "universe",
    )

    def __init__(
        self,
        path: Path,
        ordinal: int,
        row_start: int,
        num_rows: int,
        num_words: int,
        matrix_offset: int,
        universe: Tuple[int, ...],
    ) -> None:
        self.path = path
        self.ordinal = ordinal
        self.row_start = row_start
        self.num_rows = num_rows
        self.num_words = num_words
        self.matrix_offset = matrix_offset
        self.universe = universe

    def __repr__(self) -> str:
        return "SnapshotPartition(#%d, rows [%d, %d), %d words)" % (
            self.ordinal, self.row_start, self.row_start + self.num_rows,
            self.num_words,
        )

    @property
    def num_items(self) -> int:
        return len(self.universe)

    @property
    def word_start(self) -> int:
        """This partition's first word column of the logical global matrix."""
        return self.row_start // 64

    @property
    def matrix_bytes(self) -> int:
        """Resident bytes when this partition's matrix is mapped."""
        return 8 * self.num_items * self.num_words

    def vertical(self) -> VerticalView:
        """This partition's vertical view: a read-only map of its bytes.

        Zero-copy — the view's buffer is the file's matrix region, so
        readers fault in only the pages they touch.
        """
        return VerticalView(
            self.universe, self.num_rows,
            _map_region(self.path, self.matrix_offset, self.matrix_bytes),
        )

    def int_bitmaps(
        self, word_lo: int = 0, word_hi: Optional[int] = None
    ) -> Dict[int, int]:
        """item -> int bitmap of *local* rows (bit 0 = ``row_start``).

        ``word_lo``/``word_hi`` select a word-aligned window of the
        partition — the pure-Python half of sub-partition windowed
        counting reads only the window's bytes per item.
        """
        return self.vertical().int_bitmaps(word_lo, word_hi)

    def packed_index(self) -> "PackedBitmapIndex":
        """A :class:`PackedBitmapIndex` over the mapped matrix (zero-copy)."""
        return PackedBitmapIndex.from_view(self.vertical())

    def index(self, force_python: bool = False):
        """The best available counting index backed by this partition."""
        return build_index(self.vertical(), force_python=force_python)


def _map_region(path: Path, offset: int, length: int):
    """Bytes ``[offset, offset + length)`` of a file, mapped read-only."""
    if not length:
        return b""
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return memoryview(mapped)[offset : offset + length]


class Snapshot:
    """A validated, lazily-materialised snapshot file.

    Holds only the header metadata; the matrix is materialised on demand
    by :meth:`vertical`, a read-only map of the file that every index
    (:meth:`index`, :meth:`packed_index`) and :meth:`int_bitmaps` build
    from, with or without NumPy.

    Every snapshot — v1 or v2 — exposes :attr:`partitions`; a v1 file is
    a single partition spanning all rows, so partition-aware consumers
    (the out-of-core miner, the budget scheduler) treat both uniformly.
    """

    def __init__(
        self,
        path: Path,
        version: int,
        num_rows: int,
        universe: Tuple[int, ...],
        num_words: int,
        partition_table: Optional[Sequence[Tuple[int, int, int, int]]] = None,
    ) -> None:
        self.path = path
        self.version = version
        self.num_rows = num_rows
        self.universe = universe
        self.num_words = num_words
        if partition_table is None:
            partition_table = (
                (0, num_rows, num_words, HEADER_SIZE + 8 * len(universe)),
            )
        self._partition_table = tuple(
            tuple(entry) for entry in partition_table
        )
        self._partitions: Optional[Tuple[SnapshotPartition, ...]] = None

    def __repr__(self) -> str:
        return "Snapshot(%r, v%d, |D|=%d, |I|=%d, P=%d)" % (
            str(self.path), self.version, self.num_rows,
            len(self.universe), self.num_partitions,
        )

    @property
    def num_items(self) -> int:
        return len(self.universe)

    @property
    def num_partitions(self) -> int:
        return len(self._partition_table)

    @property
    def partitions(self) -> Tuple[SnapshotPartition, ...]:
        """The row partitions, in row order (a v1 file has exactly one)."""
        if self._partitions is None:
            self._partitions = tuple(
                SnapshotPartition(
                    self.path, ordinal, row_start, num_rows, num_words,
                    matrix_offset, self.universe,
                )
                for ordinal, (row_start, num_rows, num_words, matrix_offset)
                in enumerate(self._partition_table)
            )
        return self._partitions

    @property
    def matrix_offset(self) -> int:
        """Byte offset of the bitmap matrix inside the file.

        Only meaningful when the snapshot holds one contiguous matrix
        (any v1 file, or a v2 file with a single partition).
        """
        if self.num_partitions != 1:
            raise SnapshotFormatError(
                "%s: %d-partition snapshot has no contiguous matrix; use "
                ".partitions" % (self.path, self.num_partitions)
            )
        return self._partition_table[0][3]

    @property
    def matrix_bytes(self) -> int:
        """Size of the dense logical matrix (all partitions), in bytes."""
        return 8 * self.num_items * self.num_words

    def vertical(self) -> VerticalView:
        """The vertical view of every row.

        Zero-copy (a read-only map of the file) when the snapshot holds
        one contiguous matrix.  For a multi-partition v2 file the
        partition matrices are word-aligned column slices of the logical
        matrix, so their rows are copied side by side into one buffer — a
        copy of the full matrix, appropriate only for consumers that need
        the whole index in memory anyway (the in-memory engines, the
        shared-memory parent).  Budget-respecting consumers use
        :attr:`partitions` instead.
        """
        if self.num_partitions == 1:
            return self.partitions[0].vertical()
        stride = 8 * self.num_words
        buffer = bytearray(self.num_items * stride)
        for partition in self.partitions:
            start = 8 * partition.word_start
            for _, data in partition.vertical().row_slices():
                buffer[start : start + len(data)] = data
                start += stride
        return VerticalView(self.universe, self.num_rows, buffer)

    def int_bitmaps(self) -> Dict[int, int]:
        """item -> arbitrary-precision int bitmap, read from the file.

        Identical whether the file is v1 or partitioned v2.
        """
        return self.vertical().int_bitmaps()

    def packed_index(self) -> "PackedBitmapIndex":
        """A :class:`PackedBitmapIndex` over the full matrix (see :meth:`vertical`)."""
        return PackedBitmapIndex.from_view(self.vertical())

    def index(self, force_python: bool = False):
        """The best available counting index backed by this snapshot."""
        return build_index(self.vertical(), force_python=force_python)


def _load_partition_table(
    handle, path: Path, num_rows: int, num_items: int, num_words: int
) -> List[Tuple[int, int, int, int]]:
    """Parse and validate the v2 partition directory."""
    raw = handle.read(8)
    if len(raw) < 8:
        raise SnapshotFormatError(
            "%s: truncated partition directory (missing count)" % path
        )
    (count,) = struct.unpack("<Q", raw)
    if not 1 <= count <= max(1, num_rows):
        raise SnapshotFormatError(
            "%s: implausible partition count %d for %d rows"
            % (path, count, num_rows)
        )
    raw = handle.read(PARTITION_ENTRY_SIZE * count)
    if len(raw) < PARTITION_ENTRY_SIZE * count:
        raise SnapshotFormatError(
            "%s: truncated partition directory (%d of %d entries)"
            % (path, len(raw) // PARTITION_ENTRY_SIZE, count)
        )
    table = [
        _PARTITION_ENTRY.unpack_from(raw, index * PARTITION_ENTRY_SIZE)
        for index in range(count)
    ]
    directory_end = (
        HEADER_SIZE + 8 * num_items + 8 + PARTITION_ENTRY_SIZE * count
    )
    expected_row = 0
    expected_offset = directory_end
    total_words = 0
    for index, (row_start, rows_p, words_p, matrix_offset) in enumerate(table):
        if row_start != expected_row:
            raise SnapshotFormatError(
                "%s: partition %d starts at row %d, expected %d"
                % (path, index, row_start, expected_row)
            )
        if row_start % 64:
            raise SnapshotFormatError(
                "%s: partition %d start %d is not 64-row aligned"
                % (path, index, row_start)
            )
        if index < count - 1 and (rows_p <= 0 or rows_p % 64):
            raise SnapshotFormatError(
                "%s: non-final partition %d holds %d rows (need a positive "
                "multiple of 64)" % (path, index, rows_p)
            )
        if words_p != _num_words(rows_p):
            raise SnapshotFormatError(
                "%s: partition %d words %d inconsistent with its %d rows"
                % (path, index, words_p, rows_p)
            )
        if matrix_offset != expected_offset:
            raise SnapshotFormatError(
                "%s: partition %d matrix at %d, expected %d"
                % (path, index, matrix_offset, expected_offset)
            )
        expected_row += rows_p
        expected_offset += 8 * num_items * words_p
        total_words += words_p
    if expected_row != num_rows:
        raise SnapshotFormatError(
            "%s: partitions cover %d rows, header promises %d"
            % (path, expected_row, num_rows)
        )
    if total_words != num_words:
        raise SnapshotFormatError(
            "%s: partition words sum to %d, header promises %d"
            % (path, total_words, num_words)
        )
    return table


def load_snapshot(path: PathLike) -> Snapshot:
    """Validate ``path`` and return its :class:`Snapshot` header view.

    Raises :class:`SnapshotFormatError` on a bad magic, an unsupported
    version, a truncated partition directory, or a file whose size
    disagrees with its own header.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise SnapshotFormatError("%s: truncated snapshot header" % path)
        magic, version, _, num_rows, num_items, num_words = _HEADER.unpack(
            header
        )
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError("%s: not a snapshot file" % path)
        if version not in SUPPORTED_SNAPSHOT_VERSIONS:
            raise SnapshotFormatError(
                "%s: snapshot version %d (reader supports %s)"
                % (
                    path, version,
                    ", ".join(str(v) for v in SUPPORTED_SNAPSHOT_VERSIONS),
                )
            )
        if num_words != _num_words(num_rows):
            raise SnapshotFormatError(
                "%s: num_words %d inconsistent with num_rows %d"
                % (path, num_words, num_rows)
            )
        universe = struct.unpack(
            "<%dq" % num_items, handle.read(8 * num_items)
        )
        table: Optional[List[Tuple[int, int, int, int]]] = None
        if version == SNAPSHOT_VERSION_PARTITIONED:
            table = _load_partition_table(
                handle, path, num_rows, num_items, num_words
            )
    if table is None:
        expected = HEADER_SIZE + 8 * num_items + 8 * num_items * num_words
    else:
        last = table[-1]
        expected = last[3] + 8 * num_items * last[2]
    actual = os.path.getsize(path)
    if actual != expected:
        raise SnapshotFormatError(
            "%s: file is %d bytes, header promises %d" % (path, actual, expected)
        )
    if any(a >= b for a, b in zip(universe, universe[1:])):
        raise SnapshotFormatError("%s: universe is not strictly ascending" % path)
    return Snapshot(
        path, version, num_rows, tuple(universe), num_words,
        partition_table=table,
    )
