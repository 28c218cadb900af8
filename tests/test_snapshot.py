"""Tests for the versioned on-disk snapshot format (``repro.db.snapshot``)."""

import os
import struct

import pytest

from repro.db.counting import get_counter
from repro.db.disk import DiskTransactionDatabase
from repro.db.snapshot import (
    HEADER_SIZE,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SNAPSHOT_VERSION_PARTITIONED,
    SUPPORTED_SNAPSHOT_VERSIONS,
    SnapshotFormatError,
    default_snapshot_path,
    load_snapshot,
    partition_row_starts,
    snapshot_database,
    write_partitioned_snapshot,
    write_snapshot,
)
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY, PackedBitmapIndex

TRANSACTIONS = [[1, 2, 3], [1, 2], [2, 3], [3], [1], [2], [5, 7]] * 11
DB = TransactionDatabase(TRANSACTIONS)
CANDIDATES = [(), (1,), (2,), (1, 2), (2, 3), (1, 2, 3), (5, 7), (9,)]
EXPECTED = get_counter("naive").count(DB, CANDIDATES)


@pytest.fixture
def snap_path(tmp_path):
    return snapshot_database(DB, tmp_path / "db.snap")


class TestRoundTrip:
    def test_header_metadata_survives(self, snap_path):
        snap = load_snapshot(snap_path)
        assert snap.version == SNAPSHOT_VERSION
        assert snap.num_rows == len(DB)
        assert snap.universe == tuple(DB.universe)
        assert snap.num_words == max(1, (len(DB) + 63) // 64)

    def test_int_bitmaps_identical_to_database(self, snap_path):
        assert load_snapshot(snap_path).int_bitmaps() == DB.item_bitmaps()

    def test_index_counts_match_naive(self, snap_path):
        index = load_snapshot(snap_path).index()
        got = dict(zip(CANDIDATES, index.counts(CANDIDATES)))
        assert got == EXPECTED

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")
    def test_matrix_write_path_is_byte_identical(self, snap_path, tmp_path):
        # writing from the packed matrix and from int bitmaps must
        # produce the same file: the format has one canonical encoding
        index = PackedBitmapIndex.from_database(DB)
        other = write_snapshot(
            tmp_path / "matrix.snap", DB.universe, len(DB), matrix=index._matrix
        )
        assert other.read_bytes() == snap_path.read_bytes()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")
    def test_packed_index_is_zero_copy_view(self, snap_path):
        snap = load_snapshot(snap_path)
        index = snap.packed_index()
        assert index.num_rows == len(DB)
        got = dict(zip(CANDIDATES, index.counts(CANDIDATES)))
        assert got == EXPECTED

    def test_default_path_appends_suffix(self):
        assert default_snapshot_path("data/t10.dat").name == "t10.dat.snap"

    def test_in_memory_database_requires_explicit_path(self):
        with pytest.raises(ValueError):
            snapshot_database(DB)

    def test_write_rejects_ambiguous_sources(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path / "x.snap", [1], 1)


class TestFormatValidation:
    def _corrupt(self, path, offset, payload):
        data = bytearray(path.read_bytes())
        data[offset : offset + len(payload)] = payload
        path.write_bytes(bytes(data))

    def test_bad_magic_rejected(self, snap_path):
        self._corrupt(snap_path, 0, b"NOTASNAP")
        with pytest.raises(SnapshotFormatError, match="not a snapshot"):
            load_snapshot(snap_path)

    def test_future_version_rejected(self, snap_path):
        unsupported = max(SUPPORTED_SNAPSHOT_VERSIONS) + 97
        self._corrupt(snap_path, 8, struct.pack("<I", unsupported))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_snapshot(snap_path)

    def test_truncated_header_rejected(self, tmp_path):
        stub = tmp_path / "stub.snap"
        stub.write_bytes(SNAPSHOT_MAGIC + b"\x01")
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(stub)

    def test_truncated_body_rejected(self, snap_path):
        data = snap_path.read_bytes()
        snap_path.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError, match="bytes"):
            load_snapshot(snap_path)

    def test_inconsistent_word_count_rejected(self, snap_path):
        self._corrupt(snap_path, 32, struct.pack("<Q", 99))
        with pytest.raises(SnapshotFormatError, match="num_words"):
            load_snapshot(snap_path)

    def test_unsorted_universe_rejected(self, tmp_path):
        path = write_snapshot(tmp_path / "u.snap", [1, 2], 1, bitmaps={1: 1, 2: 1})
        # swap the two universe entries in place
        self._corrupt(path, HEADER_SIZE, struct.pack("<2q", 2, 1))
        with pytest.raises(SnapshotFormatError, match="ascending"):
            load_snapshot(path)

    def test_header_size_is_stable(self):
        # the 40-byte header keeps both arrays 8-byte aligned; changing
        # it is a format break and needs a version bump
        assert HEADER_SIZE == 40


class TestPartitionedFormat:
    """The v2 partitioned layout and its back-compat with v1."""

    @pytest.fixture
    def v2_path(self, tmp_path):
        # 77 rows at 64 rows/partition -> two partitions (64 + 13)
        return write_partitioned_snapshot(
            tmp_path / "db.v2.snap", DB.universe, len(DB), iter(DB),
            partition_rows=64,
        )

    def test_v1_loads_under_partition_aware_reader(self, snap_path):
        # a v1 file surfaces as a single partition spanning every row,
        # so partition-aware consumers need no special case
        snap = load_snapshot(snap_path)
        assert snap.version == SNAPSHOT_VERSION
        assert snap.num_partitions == 1
        (part,) = snap.partitions
        assert (part.row_start, part.num_rows) == (0, len(DB))
        assert part.matrix_offset == snap.matrix_offset
        assert part.int_bitmaps() == DB.item_bitmaps()

    def test_v2_roundtrip_metadata(self, v2_path):
        snap = load_snapshot(v2_path)
        assert snap.version == SNAPSHOT_VERSION_PARTITIONED
        assert snap.num_partitions == 2
        assert snap.num_rows == len(DB)
        assert snap.universe == tuple(DB.universe)
        starts = [p.row_start for p in snap.partitions]
        assert starts == [0, 64]
        assert snap.partitions[0].num_rows == 64
        assert snap.partitions[1].num_rows == len(DB) - 64
        assert all(p.row_start % 64 == 0 for p in snap.partitions)

    def test_v2_bitmaps_identical_to_database(self, v2_path):
        assert load_snapshot(v2_path).int_bitmaps() == DB.item_bitmaps()

    def test_v2_index_counts_match_naive(self, v2_path):
        index = load_snapshot(v2_path).index()
        got = dict(zip(CANDIDATES, index.counts(CANDIDATES)))
        assert got == EXPECTED

    def test_partition_supports_are_additive(self, v2_path):
        # the invariant the out-of-core miner rests on: global support is
        # the sum of per-partition supports
        snap = load_snapshot(v2_path)
        summed = {c: 0 for c in CANDIDATES}
        for part in snap.partitions:
            for cand, count in zip(
                CANDIDATES, part.index().counts(CANDIDATES)
            ):
                summed[cand] += count
        assert summed == EXPECTED

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")
    def test_v2_packed_index_matches_v1_matrix(self, snap_path, v2_path):
        v1 = load_snapshot(snap_path).packed_index()
        v2 = load_snapshot(v2_path).packed_index()
        assert v2._matrix.tobytes() == v1._matrix.tobytes()

    def test_snapshot_database_partition_kwargs(self, tmp_path):
        path = snapshot_database(DB, tmp_path / "p.snap", num_partitions=2)
        snap = load_snapshot(path)
        assert snap.version == SNAPSHOT_VERSION_PARTITIONED
        assert snap.num_partitions == 2
        assert snap.int_bitmaps() == DB.item_bitmaps()

    def test_single_partition_request_still_writes_v2(self, tmp_path):
        path = snapshot_database(DB, tmp_path / "one.snap", num_partitions=1)
        snap = load_snapshot(path)
        assert snap.version == SNAPSHOT_VERSION_PARTITIONED
        assert snap.num_partitions == 1
        # single-partition v2 still has a contiguous matrix
        assert snap.matrix_offset == snap.partitions[0].matrix_offset

    def test_truncated_partition_directory_rejected(self, v2_path):
        snap = load_snapshot(v2_path)
        directory_start = HEADER_SIZE + 8 * snap.num_items
        # keep the count but cut the entries short
        v2_path.write_bytes(v2_path.read_bytes()[: directory_start + 8 + 16])
        with pytest.raises(
            SnapshotFormatError, match="truncated partition directory"
        ):
            load_snapshot(v2_path)

    def test_short_stream_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="short"):
            write_partitioned_snapshot(
                tmp_path / "short.snap", DB.universe, len(DB) + 5, iter(DB),
                partition_rows=64,
            )
        # failed writes leave no temp droppings behind
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []

    def test_partition_row_starts_are_64_aligned(self):
        starts = partition_row_starts(1000, num_partitions=4)
        assert starts[0] == 0
        assert all(s % 64 == 0 for s in starts)
        assert partition_row_starts(77, partition_rows=10) == [0, 64]
        assert partition_row_starts(0) == [0]
        with pytest.raises(ValueError):
            partition_row_starts(10, num_partitions=2, partition_rows=5)

    def test_mutilated_directory_entry_rejected(self, v2_path):
        snap = load_snapshot(v2_path)
        entry0 = HEADER_SIZE + 8 * snap.num_items + 8
        data = bytearray(v2_path.read_bytes())
        # shift partition 0's start off the required alignment
        data[entry0 : entry0 + 8] = struct.pack("<Q", 1)
        v2_path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError):
            load_snapshot(v2_path)


class TestDiskIntegration:
    @pytest.fixture
    def basket(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text(
            "\n".join(" ".join(str(i) for i in sorted(t)) for t in TRANSACTIONS)
        )
        return path

    def test_snapshot_backs_the_instance(self, basket):
        db = DiskTransactionDatabase(basket)
        written = db.snapshot()
        assert written == default_snapshot_path(basket)
        reads_before = db.file_reads
        assert db.item_bitmaps() == DB.item_bitmaps()
        # bitmaps came from the snapshot, not another basket parse
        assert db.file_reads == reads_before

    def test_from_snapshot_skips_the_basket_parse(self, basket):
        DiskTransactionDatabase(basket).snapshot()
        db = DiskTransactionDatabase.from_snapshot(
            default_snapshot_path(basket)
        )
        assert db.file_reads == 0
        assert len(db) == len(DB)
        assert tuple(db.universe) == tuple(DB.universe)
        assert db.item_bitmaps() == DB.item_bitmaps()
        assert db.file_reads == 0  # still no basket I/O

    def test_from_snapshot_requires_inferable_basket(self, tmp_path):
        path = snapshot_database(DB, tmp_path / "odd-name.bin")
        with pytest.raises(ValueError):
            DiskTransactionDatabase.from_snapshot(path)

    def test_write_is_atomic(self, basket, tmp_path):
        # no .tmp droppings after a successful write
        DiskTransactionDatabase(basket).snapshot()
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []
