"""Zero-copy shared-memory data plane: the ``shm`` engine.

The ``sharded`` engine (:mod:`repro.db.parallel`) pays a pre-parallel tax
the paper's cost model never sees: every worker process re-builds a
shard-local vertical index from pickled transactions at startup, and
every pass moves candidate batches and count vectors through pipes as
pickled Python objects.  This module removes both copies:

* **One index, attached everywhere.**  The parent builds (or
  memory-maps, via a :mod:`repro.db.snapshot` file) the packed uint64
  bitmap matrix once, publishes it in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, and each
  worker attaches NumPy views over the same physical pages — worker
  startup is O(1) regardless of ``|D|``, and the transactions are never
  forked or pickled per worker.
* **Flat-encoded batches, preallocated results.**  Per pass, the parent
  maps candidates to matrix-row ids once and writes the flat encoding
  into a shared batch block; counts come back through a preallocated
  shared ``uint32`` result array (one row per worker, summed by the
  parent).  The only pipe traffic is a tiny per-pass control message.
* **Two sharding shapes.**  Because every worker sees the *whole* index,
  each pass can be split either by transactions (word-aligned column
  slices of the matrix: many rows, few candidates) or by candidates with
  work-stealing chunks off a shared cursor (few rows, wide fused
  C_k+MFCS batches — exactly Pincer's early passes).  The choice is made
  per pass by :class:`repro.db.parallel.AdaptiveShardScheduler`.

Fallback ladder, walked automatically: shared memory → ``mmap`` of a
snapshot file → the classic fork/pipe plane of
:class:`~repro.db.parallel.ShardedCounter` → in-process serial shards.
All rungs produce byte-identical counts and identical pass/IO
accounting.
"""

from __future__ import annotations

import os
import tempfile
import time
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .._types import Itemset
from ..obs.logsetup import get_logger
from ..obs.resources import rusage_snapshot
from ..obs.telemetry import (
    STATE_COUNTING,
    STATE_IDLE,
    STATE_STEALING,
    TelemetryWriter,
)
from .parallel import AdaptiveShardScheduler, ShardedCounter, default_num_shards
from .snapshot import load_snapshot, snapshot_database
from .vertical import HAVE_NUMPY, PackedBitmapIndex

try:  # pragma: no cover - mirrors repro.db.vertical
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - very old interpreters
    _shared_memory = None

__all__ = ["ShmShardedCounter", "attach_segment"]

logger = get_logger("db.shm")

#: Initial shared-batch capacity (candidates / flat items); grows 2x.
INITIAL_BATCH_CAPACITY = 4096
INITIAL_ITEM_CAPACITY = 4 * INITIAL_BATCH_CAPACITY


def attach_segment(name: str, untrack: Optional[bool] = None):
    """Attach an existing shared-memory segment without tracker ownership.

    Attaching registers the segment with the process's
    ``resource_tracker`` on Pythons before 3.13, which makes the *worker*
    unlink (and warn about) a segment the parent still owns when the
    worker exits.  The creator is the sole owner here, so attachments are
    explicitly untracked: ``track=False`` where supported, manual
    ``resource_tracker.unregister`` otherwise.

    The manual path matters only when the attaching process runs its
    *own* tracker (spawn/forkserver children); a fork child shares the
    parent's tracker, where the duplicate registration is an idempotent
    set-add and unregistering here would steal the parent's entry.
    ``untrack=None`` decides from the process's start method.
    """
    try:
        return _shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = _shared_memory.SharedMemory(name=name, create=False)
        if untrack is None:
            try:
                import multiprocessing

                untrack = multiprocessing.get_start_method() != "fork"
            except Exception:  # pragma: no cover
                untrack = False
        if untrack:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker API drift
                pass
        return segment


def _unlink_segments(segments: List) -> None:
    """Best-effort close+unlink of owned blocks (also the GC finalizer)."""
    while segments:
        segment = segments.pop()
        for method in ("close", "unlink"):
            try:
                getattr(segment, method)()
            except (AttributeError, BufferError, FileNotFoundError, OSError):
                pass


class _SharedBlock:
    """One parent-owned shared byte range, per the plane's rung.

    ``"shm"`` backs it with a POSIX shared-memory segment; ``"mmap"``
    with a ``MAP_SHARED`` temp file — so the mmap rung works end to end
    even when ``/dev/shm`` is unavailable or full (its reason to exist).
    ``name`` is what workers attach by: the segment name or the path.
    """

    def __init__(self, plane: str, size: int) -> None:
        self.plane = plane
        self._mapped = None
        self._segment = None
        if plane == "shm":
            self._segment = _shared_memory.SharedMemory(create=True, size=size)
            self.name = self._segment.name
        else:
            handle, path = tempfile.mkstemp(
                prefix="pincer-shm-", suffix=".blk"
            )
            os.ftruncate(handle, size)
            os.close(handle)
            self._mapped = _np.memmap(
                path, dtype=_np.uint8, mode="r+", shape=(size,)
            )
            self.name = path

    @property
    def buf(self):
        return self._segment.buf if self._segment is not None else self._mapped

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
        self._mapped = None

    def unlink(self) -> None:
        if self._segment is not None:
            self._segment.unlink()
        else:
            os.unlink(self.name)


def _word_bounds(num_words: int, num_workers: int) -> List[Tuple[int, int]]:
    """Contiguous word ranges per worker (some may be empty on tiny dbs)."""
    base, extra = divmod(num_words, num_workers)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for worker in range(num_workers):
        stop = start + base + (1 if worker < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _shm_worker(connection, spec: Dict, cursor) -> None:
    """Attach the shared index, then serve count tasks until told to stop.

    ``spec`` describes the matrix (shared segment name, or snapshot path
    plus offset for the mmap rung), this worker's word-aligned row shard,
    and its slot in the result array.  Candidate batches arrive through
    the shared batch block named in each task message; nothing bigger
    than a small control dict ever crosses the pipe.
    """
    import numpy as np

    started = time.perf_counter()
    matrix_segment = None
    untrack = spec.get("untrack")
    try:
        if spec["plane"] == "shm":
            matrix_segment = attach_segment(spec["matrix_name"], untrack)
            matrix = np.ndarray(
                spec["shape"], dtype=np.uint64, buffer=matrix_segment.buf
            )
        else:  # mmap rung: the snapshot file is the shared medium
            matrix = np.memmap(
                spec["snapshot_path"],
                dtype="<u8",
                mode="r",
                offset=spec["matrix_offset"],
                shape=spec["shape"],
            )
        full_index = PackedBitmapIndex(matrix, {}, spec["num_rows"])
        word_lo, word_hi = spec["word_range"]
        slice_index = full_index.word_slice(word_lo, word_hi)
    except BaseException as exc:  # pragma: no cover - defensive
        connection.send(("error", repr(exc)))
        connection.close()
        return
    telemetry = TelemetryWriter.attach(spec.get("telemetry"))
    connection.send(("ready", os.getpid(), time.perf_counter() - started))
    if telemetry is not None:
        telemetry.beat(state=STATE_IDLE, rows_total=slice_index.num_rows)

    worker_id = spec["worker"]
    num_workers = spec["num_workers"]
    batch_segment = results_segment = None
    attached_names: Tuple[Optional[str], Optional[str]] = (None, None)
    while True:
        try:
            task = connection.recv()
        except EOFError:  # parent vanished
            break
        if task is None:
            break
        try:
            names = (task["batch_name"], task["results_name"])
            if names != attached_names:
                _close_quietly(batch_segment, results_segment)
                batch_segment, batch_buffer = _attach_block(
                    spec["plane"], names[0], untrack
                )
                results_segment, results_buffer = _attach_block(
                    spec["plane"], names[1], untrack
                )
                attached_names = names
            capacity = task["capacity_candidates"]
            lengths_all = np.ndarray(
                (capacity,), dtype=np.int64, buffer=batch_buffer
            )
            flat_all = np.ndarray(
                (task["capacity_items"],),
                dtype=np.int64,
                buffer=batch_buffer,
                offset=capacity * 8,
            )
            results = np.ndarray(
                (num_workers, capacity),
                dtype=np.uint32,
                buffer=results_buffer,
            )
            n = task["n"]
            lengths = lengths_all[:n]
            flat_rows = flat_all[: task["flat_len"]]
            offsets = np.zeros(n, dtype=np.intp)
            if n > 1:
                np.cumsum(lengths[:-1], out=offsets[1:])
            out = results[worker_id]

            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            hits_before = full_index.prefix_hits + slice_index.prefix_hits
            misses_before = full_index.prefix_misses + slice_index.prefix_misses
            chunks_taken = 0
            beat_hook = telemetry.maybe_beat if telemetry is not None else None
            if task["mode"] == "rows":
                if telemetry is not None:
                    telemetry.beat(state=STATE_COUNTING, candidates_total=n)
                slice_index.counts_into(
                    lengths, flat_rows, out, 0, n, offsets=offsets,
                    deadline_check=beat_hook,
                )
                records_read = slice_index.num_rows
                if telemetry is not None:
                    telemetry.advance(
                        candidates_done=n,
                        rows_done=records_read,
                        records_read=records_read,
                    )
            else:
                if telemetry is not None:
                    telemetry.beat(state=STATE_STEALING, candidates_total=n)
                chunk = task["chunk"]
                while True:
                    with cursor.get_lock():
                        chunk_id = cursor.value
                        cursor.value = chunk_id + 1
                    lo = chunk_id * chunk
                    if lo >= n:
                        break
                    hi = min(lo + chunk, n)
                    full_index.counts_into(
                        lengths, flat_rows, out, lo, hi,
                        offsets=offsets, deadline_check=beat_hook,
                    )
                    chunks_taken += 1
                    if telemetry is not None:
                        telemetry.advance(candidates_done=hi - lo)
                        telemetry.note(cursor=chunk_id)
                        telemetry.maybe_beat()
                # the pass reads the database once logically, whichever
                # worker touches which candidate; the parent bills |D|
                records_read = 0
            if telemetry is not None:
                telemetry.beat(state=STATE_IDLE)
            meta = {
                "records_read": records_read,
                "seconds": time.perf_counter() - wall_started,
                "cpu_seconds": time.process_time() - cpu_started,
                "maxrss_kb": rusage_snapshot().get("maxrss_kb", 0),
                "chunks_taken": chunks_taken,
                "prefix_hits": full_index.prefix_hits
                + slice_index.prefix_hits
                - hits_before,
                "prefix_misses": full_index.prefix_misses
                + slice_index.prefix_misses
                - misses_before,
            }
            connection.send(("done", meta))
        except BaseException as exc:  # pragma: no cover - defensive
            connection.send(("error", repr(exc)))
    try:
        del lengths_all, flat_all, results
    except NameError:  # stopped before the first task
        pass
    del matrix, full_index, slice_index
    if telemetry is not None:
        telemetry.close()
    _close_quietly(batch_segment, results_segment, matrix_segment)
    connection.close()


def _close_quietly(*segments) -> None:
    for segment in segments:
        if segment is not None:
            try:
                segment.close()
            except (AttributeError, BufferError, OSError):  # pragma: no cover
                pass  # np.memmap blocks have no close(); GC unmaps them


def _attach_block(plane: str, name: str, untrack):
    """Worker-side attach: -> ``(holder, buffer)`` for either rung."""
    import numpy as np

    if plane == "shm":
        segment = attach_segment(name, untrack)
        return segment, segment.buf
    mapped = np.memmap(name, dtype=np.uint8, mode="r+")
    return mapped, mapped


# ----------------------------------------------------------------------
# parent-side plane state
# ----------------------------------------------------------------------


class _ShmPlane:
    """Parent-side handle on the shared segments and worker specs."""

    def __init__(self, plane: str, num_rows: int, num_words: int) -> None:
        self.plane = plane  # "shm" | "mmap"
        self.num_rows = num_rows
        self.num_words = num_words
        self.matrix_segment = None
        self.temp_snapshot: Optional[Path] = None
        self.batch_segment = None
        self.results_segment = None
        self.capacity_candidates = 0
        self.capacity_items = 0
        self.num_workers = 0
        self.cursor = None
        self.lengths = None  # np views over the batch/results blocks
        self.flat = None
        self.results = None
        #: owned segments, shared with the GC finalizer for leak-proofing
        self.owned: List = []

    def ensure_capacity(self, num_candidates: int, num_items: int) -> None:
        """(Re)allocate the batch + result blocks; unlink outgrown ones."""
        if (
            num_candidates <= self.capacity_candidates
            and num_items <= self.capacity_items
        ):
            return
        capacity_c = max(
            INITIAL_BATCH_CAPACITY, 2 * self.capacity_candidates, num_candidates
        )
        capacity_i = max(
            INITIAL_ITEM_CAPACITY, 2 * self.capacity_items, num_items
        )
        old = [
            segment
            for segment in (self.batch_segment, self.results_segment)
            if segment is not None
        ]
        self.lengths = self.flat = self.results = None
        batch_bytes = capacity_c * 8 + capacity_i * 8
        results_bytes = self.num_workers * capacity_c * 4
        self.batch_segment = _SharedBlock(self.plane, batch_bytes)
        self.results_segment = _SharedBlock(self.plane, results_bytes)
        self.owned.extend([self.batch_segment, self.results_segment])
        self.capacity_candidates = capacity_c
        self.capacity_items = capacity_i
        self.lengths = _np.ndarray(
            (capacity_c,), dtype=_np.int64, buffer=self.batch_segment.buf
        )
        self.flat = _np.ndarray(
            (capacity_i,),
            dtype=_np.int64,
            buffer=self.batch_segment.buf,
            offset=capacity_c * 8,
        )
        self.results = _np.ndarray(
            (self.num_workers, capacity_c),
            dtype=_np.uint32,
            buffer=self.results_segment.buf,
        )
        for segment in old:
            # workers still hold the old mapping until their next task
            # message names the new segments; unlinking now only removes
            # the name
            self.owned.remove(segment)
            try:
                segment.unlink()
                segment.close()
            except (BufferError, FileNotFoundError, OSError):  # pragma: no cover
                pass
        del old

    def task_header(self) -> Dict:
        return {
            "batch_name": self.batch_segment.name,
            "results_name": self.results_segment.name,
            "capacity_candidates": self.capacity_candidates,
            "capacity_items": self.capacity_items,
        }

    def close(self) -> None:
        self.lengths = self.flat = self.results = None
        _unlink_segments(self.owned)
        self.matrix_segment = None
        self.batch_segment = None
        self.results_segment = None
        if self.temp_snapshot is not None:
            try:
                self.temp_snapshot.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self.temp_snapshot = None


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class ShmShardedCounter(ShardedCounter):
    """The ``shm`` engine: sharded counting over one shared index.

    Inherits the whole pipe-plane machinery of :class:`ShardedCounter`
    as its third fallback rung; everything above it replaces per-worker
    index builds and pickled batches with shared-memory attaches.

    Parameters match :class:`ShardedCounter`, plus:

    steal_chunk:
        Candidate-mode work-stealing chunk size override (default: the
        scheduler picks per pass).
    """

    name = "shm"

    def __init__(
        self,
        num_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        use_processes: Optional[bool] = None,
        steal_chunk: Optional[int] = None,
    ) -> None:
        super().__init__(
            num_shards=num_shards,
            max_workers=max_workers,
            use_processes=use_processes,
        )
        self._steal_chunk = steal_chunk
        self._plane: Optional[_ShmPlane] = None
        self._parent_index: Optional[PackedBitmapIndex] = None
        self._scheduler: Optional[AdaptiveShardScheduler] = None
        self._finalizer = None
        #: word-aligned matrix column ranges per worker (for recovery)
        self._word_ranges: List[Tuple[int, int]] = []
        #: which rung of the fallback ladder is serving: "shm", "mmap",
        #: "pipe" (inherited worker plane) or "serial"
        self.plane = "unattached"
        #: seconds the most recent attach took (index + publish + spawn)
        self.last_attach_seconds = 0.0
        #: per-worker startup seconds reported at the latest attach
        self.worker_startup_seconds: List[float] = []
        #: scheduler decision of the most recent pass
        self.last_mode: Optional[str] = None
        #: work-stealing accounting (cumulative since attach)
        self.steals = 0
        self.chunks_dispatched = 0

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------

    def _attach(self, db) -> None:
        attach_started = time.perf_counter()
        self._detach()
        num_rows = len(db)
        workers = self._num_shards or default_num_shards(
            num_rows, self._max_workers
        )
        workers = max(1, min(workers, num_rows) if num_rows else 1)
        processes = (
            self._use_processes if self._use_processes is not None else workers > 1
        )
        if (
            HAVE_NUMPY
            and _shared_memory is not None
            and processes
            and workers > 1
            # one stall strike steps the ladder below the shared planes;
            # the second (handled by the base class) forces serial
            and self._stall_strikes < 1
            and self._attach_shared(db, workers)
        ):
            self._db_ref = weakref.ref(db)
            self.last_attach_seconds = time.perf_counter() - attach_started
            if self.obs.enabled:
                self.obs.gauge("shard.attach_seconds").set(
                    self.last_attach_seconds
                )
            logger.debug(
                "shm plane up: %s, %d workers, %d words, attach %.4fs "
                "(worker startup max %.4fs)",
                self.plane, workers, self._plane.num_words,
                self.last_attach_seconds,
                max(self.worker_startup_seconds or [0.0]),
            )
            return
        super()._attach(db)  # pipe plane or serial shards
        self.plane = "pipe" if self._connections else "serial"
        self.last_attach_seconds = time.perf_counter() - attach_started

    def _attach_shared(self, db, workers: int) -> bool:
        """Publish the index and spawn attach-only workers; False to fall."""
        index = self._build_parent_index(db)
        matrix = index._matrix
        num_words = index.num_words
        plane: Optional[_ShmPlane] = None
        try:
            plane = _ShmPlane("shm", index.num_rows, num_words)
            segment = _shared_memory.SharedMemory(
                create=True, size=int(matrix.nbytes)
            )
            plane.matrix_segment = segment
            plane.owned.append(segment)
            shared_matrix = _np.ndarray(
                matrix.shape, dtype=_np.uint64, buffer=segment.buf
            )
            shared_matrix[:] = matrix
            del shared_matrix
            matrix_spec = {"plane": "shm", "matrix_name": segment.name}
        except (OSError, ValueError):
            if plane is not None:
                plane.close()
            plane, matrix_spec = self._mmap_fallback(db, index, num_words)
            if plane is None:
                return False
        plane.num_workers = workers
        self._telemetry = self._make_telemetry(workers)
        if not self._spawn_shm_workers(plane, matrix_spec, index, workers):
            plane.close()
            self._close_telemetry()
            return False
        self._plane = plane
        self._parent_index = index
        self._scheduler = AdaptiveShardScheduler(
            workers, chunk=self._steal_chunk
        )
        self.plane = plane.plane
        self.shard_rows = self._slice_rows(index, workers)
        self.steals = 0
        self.chunks_dispatched = 0
        # leak-proofing: unlink whatever is still owned when the counter
        # is garbage-collected or the interpreter exits without close()
        self._finalizer = weakref.finalize(self, _unlink_segments, plane.owned)
        return True

    def _build_parent_index(self, db) -> PackedBitmapIndex:
        """The full vertical index — memory-mapped when a snapshot exists."""
        snapshot_path = getattr(db, "snapshot_path", None)
        if snapshot_path is not None:
            return load_snapshot(snapshot_path).packed_index()
        return PackedBitmapIndex.from_view(db.vertical())

    def _mmap_fallback(self, db, index, num_words):
        """Second rung: share the matrix through a snapshot file mmap."""
        try:
            snapshot_path = getattr(db, "snapshot_path", None)
            temp_snapshot = None
            if snapshot_path is not None:
                snap = load_snapshot(snapshot_path)
                if snap.num_partitions > 1:
                    # a v2 partitioned snapshot has no single contiguous
                    # matrix for the workers to window; fall through to a
                    # temp v1 file (the partitioned engine is the plane
                    # that maps v2 files partition by partition)
                    snapshot_path = None
            if snapshot_path is None:
                handle, name = tempfile.mkstemp(
                    prefix="pincer-shm-", suffix=".snap"
                )
                os.close(handle)
                temp_snapshot = Path(name)
                snapshot_database(db, temp_snapshot)
                snapshot_path = temp_snapshot
                snap = load_snapshot(snapshot_path)
            plane = _ShmPlane("mmap", index.num_rows, num_words)
            plane.temp_snapshot = temp_snapshot
            return plane, {
                "plane": "mmap",
                "snapshot_path": str(snapshot_path),
                "matrix_offset": snap.matrix_offset,
            }
        except (OSError, ValueError):  # pragma: no cover - disk exhaustion
            return None, None

    def _slice_rows(self, index, workers: int) -> List[int]:
        rows = []
        for word_lo, word_hi in _word_bounds(index.num_words, workers):
            lo = min(index.num_rows, word_lo * 64)
            hi = min(index.num_rows, word_hi * 64)
            rows.append(hi - lo)
        return rows

    def _spawn_shm_workers(self, plane, matrix_spec, index, workers) -> bool:
        import multiprocessing

        context = multiprocessing.get_context()
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        plane.cursor = context.Value("l", 0)
        untrack = context.get_start_method() != "fork"
        bounds = _word_bounds(index.num_words, workers)
        self._word_ranges = list(bounds)
        processes: List = []
        connections: List = []
        self.worker_startup_seconds = []
        try:
            for worker_id, word_range in enumerate(bounds):
                spec = dict(
                    matrix_spec,
                    shape=(int(index._matrix.shape[0]), index.num_words),
                    num_rows=index.num_rows,
                    word_range=word_range,
                    worker=worker_id,
                    num_workers=workers,
                    untrack=untrack,
                    telemetry=(
                        self._telemetry.worker_spec(worker_id)
                        if self._telemetry is not None
                        else None
                    ),
                )
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shm_worker,
                    args=(child_end, spec, plane.cursor),
                    daemon=True,
                )
                process.start()
                child_end.close()
                processes.append(process)
                connections.append(parent_end)
            for connection in connections:
                reply = connection.recv()
                if reply[0] != "ready":
                    raise RuntimeError(
                        "shm worker failed to start: %s" % (reply[1],)
                    )
                self.worker_startup_seconds.append(reply[2])
        except (OSError, RuntimeError, EOFError):
            for connection in connections:
                connection.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=1.0)
            return False
        self._workers = processes
        self._connections = connections
        self.worker_pids = [process.pid for process in processes]
        return True

    def _detach(self) -> None:
        super()._detach()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._parent_index = None
        self._scheduler = None
        self._word_ranges = []
        self.plane = "unattached"
        self.last_mode = None
        self.worker_startup_seconds = []

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    def note_pass_rate(self, rate: Optional[float]) -> None:
        """Miner-observed candidates/second: feeds the mode scheduler."""
        if self._scheduler is not None:
            self._scheduler.note_miner_rate(rate)

    def begin_query(self) -> None:
        """Forget the previous query's miner-fed rate.

        The per-mode throughput EWMAs survive — they measure this
        database on this machine — but the miner rate describes the
        *previous* query's candidate shape and would skew the first-pass
        mode choice of the next one.
        """
        if self._scheduler is not None:
            self._scheduler.reset_query()

    def _count(self, db, candidates: List[Itemset]) -> Dict[Itemset, int]:
        if not self._attached_to(db):
            self._attach(db)
        if self._plane is None:
            return super()._count(db, candidates)
        totals = self._count_shared(candidates)
        self._record_shard_metrics()
        self._finish_pass_after_stalls()
        return dict(zip(candidates, totals))

    def _count_shared(self, candidates: List[Itemset]) -> List[int]:
        plane = self._plane
        index = self._parent_index
        n = len(candidates)
        lengths, flat_rows = index.map_candidates(candidates)
        plane.ensure_capacity(n, len(flat_rows))
        plane.lengths[:n] = lengths
        plane.flat[: len(flat_rows)] = flat_rows
        mode, chunk = self._scheduler.choose(n, plane.num_rows)
        self.last_mode = mode
        task = plane.task_header()
        task.update(
            n=n, flat_len=len(flat_rows), mode=mode, chunk=chunk,
            num_workers=plane.num_workers,
        )
        if self._telemetry is not None:
            self._telemetry.begin_pass(self.passes, n, mode)
        pass_started = time.perf_counter()
        self.last_shard_seconds = [0.0] * len(self._connections)
        self.last_shard_cpu_seconds = [0.0] * len(self._connections)
        self.last_shard_maxrss_kb = [0] * len(self._connections)
        dead: set = set()
        metas: List[Dict] = []
        while True:
            live = [
                shard
                for shard in range(len(self._connections))
                if shard not in dead
            ]
            if mode == "candidates":
                # stealing writes are scattered over every row, so each
                # (re)attempt starts from zero; a retry after a stall
                # recounts the full batch on the surviving workers —
                # counts_into is a pure function of the shared matrix, so
                # the recount is byte-identical to an undisturbed pass.
                # The reset writes the raw ctypes object: no worker is
                # mid-claim here, and a stalled worker may have died
                # holding the cursor's lock
                plane.results[:, :n] = 0
                plane.cursor.get_obj().value = 0
            if not live:
                self._parent_recount_all(task)
                break
            sent: List[int] = []
            recovered: List[Dict] = []
            for shard in live:
                try:
                    self._connections[shard].send(task)
                    sent.append(shard)
                except (BrokenPipeError, OSError):
                    if self._telemetry is None:
                        self._detach()
                        raise RuntimeError(
                            "shm worker died mid-pass"
                        ) from None
                    # the worker died before this pass even reached it:
                    # retire it now — rows mode recounts its word slice
                    # in the parent, candidates mode lets the survivors
                    # steal its share off the cursor
                    self._retire_shm_worker(shard, dead)
                    if mode == "rows":
                        recovered.append(self._recover_shm_rows(shard, task))
            if not sent:
                self._parent_recount_all(task)
                break
            metas, retry = self._collect_replies(task, sent, dead)
            metas.extend(recovered)
            if not retry:
                break
        seconds = time.perf_counter() - pass_started
        self._scheduler.observe(mode, n, seconds)
        if mode == "candidates":
            self.records_read += plane.num_rows
            total_chunks = (n + chunk - 1) // chunk
            self.chunks_dispatched += total_chunks
            fair_share = -(-total_chunks // plane.num_workers)
            steals = sum(
                max(0, meta["chunks_taken"] - fair_share) for meta in metas
            )
            self.steals += steals
        else:
            steals = 0
        totals = plane.results[: plane.num_workers, :n].sum(
            axis=0, dtype=_np.int64
        )
        if self._telemetry is not None:
            self._telemetry.end_pass(n)
        if self.obs.enabled:
            self.obs.counter("scheduler.mode.%s" % mode).inc()
            self.obs.counter("shard.steals").inc(steals)
            hits = sum(meta["prefix_hits"] for meta in metas)
            misses = sum(meta["prefix_misses"] for meta in metas)
            self.obs.counter("prefix_cache.hits").inc(hits)
            self.obs.counter("prefix_cache.misses").inc(misses)
        return totals.tolist()

    def _collect_replies(
        self,
        task: Optional[Dict] = None,
        live: Optional[List[int]] = None,
        dead: Optional[set] = None,
    ) -> Tuple[List[Dict], bool]:
        """Deadline- and stall-aware reply collection.

        Returns ``(metas, retry)``.  ``retry`` is True only when a
        candidates-mode worker stalled: its chunk claims are
        unrecoverable (the shared cursor already moved past them), so
        the caller must zero the results and re-run the task on the
        surviving workers.  Rows-mode stalls are absorbed here — the
        parent recounts the stalled worker's word slice into that
        worker's result row, which no other process writes.
        """
        if live is None:
            live = list(range(len(self._connections)))
        if dead is None:
            dead = set()
        mode = task["mode"] if task is not None else "rows"
        telemetry = self._telemetry
        metas: List[Optional[Dict]] = [None] * len(self._connections)
        pending = set(live)
        retry = False
        while pending:
            try:
                self._check_deadline()
            except Exception:
                # pending replies would poison the next pass: drop the
                # plane; the next count() re-attaches cleanly
                self._detach()
                raise
            if telemetry is not None:
                telemetry.poll()
                for event in telemetry.check_stalls(
                    pending, alive=self._worker_alive
                ):
                    if event.shard not in pending:
                        continue
                    pending.discard(event.shard)
                    self._retire_shm_worker(event.shard, dead)
                    if mode == "rows" and task is not None:
                        metas[event.shard] = self._recover_shm_rows(
                            event.shard, task
                        )
                    else:
                        retry = True
            for shard in sorted(pending):
                connection = self._connections[shard]
                try:
                    if not connection.poll(0.01):
                        continue
                    reply = connection.recv()
                except (EOFError, OSError):
                    if telemetry is not None and task is not None:
                        # raced the watchdog to a dead worker: same
                        # recovery, different messenger
                        pending.discard(shard)
                        self._retire_shm_worker(shard, dead)
                        if mode == "rows":
                            metas[shard] = self._recover_shm_rows(shard, task)
                        else:
                            retry = True
                        continue
                    self._detach()
                    raise RuntimeError(
                        "shm worker %d died mid-pass" % shard
                    ) from None
                if reply[0] != "done":
                    self._detach()
                    raise RuntimeError(
                        "shm worker %d failed: %s" % (shard, reply[1])
                    )
                meta = reply[1]
                metas[shard] = meta
                self.records_read += meta["records_read"]
                self.last_shard_seconds[shard] = meta["seconds"]
                self.last_shard_cpu_seconds[shard] = meta["cpu_seconds"]
                self.last_shard_maxrss_kb[shard] = meta["maxrss_kb"]
                pending.discard(shard)
        return [meta for meta in metas if meta is not None], retry

    # ------------------------------------------------------------------
    # stall recovery
    # ------------------------------------------------------------------

    def _retire_shm_worker(self, shard: int, dead: set) -> None:
        """SIGKILL a stalled worker and take the stall strike."""
        dead.add(shard)
        worker = self._workers[shard]
        worker.kill()
        worker.join(timeout=2.0)
        if self._telemetry is not None:
            # no-op if the watchdog already flagged this stall; covers
            # deaths the pipe announced first (send/recv races)
            self._telemetry.note_worker_dead(shard)
        self.shards_reassigned += 1
        self._stall_strikes += 1
        self._needs_reattach = True
        if self.obs.enabled:
            self.obs.counter("telemetry.shards_reassigned").inc()

    def _recover_shm_rows(self, shard: int, task: Dict) -> Dict:
        """Recount a stalled worker's word slice into its result row.

        The worker is already dead (SIGKILL), the row belongs to it
        alone, and ``counts_into`` writes only ``out[lo:hi)`` — zeroing
        the row first makes the parent's recount byte-identical to what
        an undisturbed worker would have produced, even over a partial
        write the victim left behind.
        """
        plane = self._plane
        n = task["n"]
        word_lo, word_hi = self._word_ranges[shard]
        slice_index = self._parent_index.word_slice(word_lo, word_hi)
        out = plane.results[shard]
        out[:n] = 0
        started = time.perf_counter()
        cpu_started = time.process_time()
        if n:
            slice_index.counts_into(
                plane.lengths[:n],
                plane.flat[: task["flat_len"]],
                out,
                0,
                n,
                deadline_check=self._check_deadline,
            )
        meta = {
            "records_read": slice_index.num_rows,
            "seconds": time.perf_counter() - started,
            "cpu_seconds": time.process_time() - cpu_started,
            "maxrss_kb": rusage_snapshot().get("maxrss_kb", 0),
            "chunks_taken": 0,
            "prefix_hits": 0,
            "prefix_misses": 0,
        }
        self.records_read += meta["records_read"]
        self.last_shard_seconds[shard] += meta["seconds"]
        self.last_shard_cpu_seconds[shard] += meta["cpu_seconds"]
        self.last_shard_maxrss_kb[shard] = max(
            self.last_shard_maxrss_kb[shard], meta["maxrss_kb"]
        )
        logger.warning(
            "shard %d word slice [%d, %d) recounted by the parent (%.3fs)",
            shard, word_lo, word_hi, meta["seconds"],
        )
        return meta

    def _parent_recount_all(self, task: Dict) -> None:
        """Last resort: every worker stalled — the parent counts alone.

        Every result row is zeroed first (no worker is left alive to
        race the writes): rows mode leaves the previous pass's counts in
        dead workers' rows, and the column sum must see only row 0.
        """
        plane = self._plane
        n = task["n"]
        logger.warning(
            "all %d shm workers stalled; parent counting the batch alone",
            len(self._connections),
        )
        plane.results[:, :n] = 0
        if n:
            self._parent_index.counts_into(
                plane.lengths[:n],
                plane.flat[: task["flat_len"]],
                plane.results[0],
                0,
                n,
                deadline_check=self._check_deadline,
            )
