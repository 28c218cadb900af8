"""Support-counting engines.

A counting engine answers one question: given a database and a collection
of candidate itemsets, what is the absolute support of each candidate?
Every call corresponds to **one pass over the database** — the unit the
paper's Figures 3 and 4 report — regardless of how the engine is
implemented internally.  Engines track how many passes they have served and
how many transaction records those passes read, giving the I/O model the
benchmark harness reports.

Engines provided:

``naive``
    Per-transaction subset tests against a flat candidate list.  This is
    the moral equivalent of the paper's linked-list implementation
    (Section 4.1.1) and the fairest backend for Apriori-vs-Pincer
    comparisons.
``hashtree``
    The classic Agrawal–Srikant hash tree (:mod:`repro.db.hash_tree`), one
    tree per candidate length.
``trie``
    An item-prefix trie holding all candidate lengths at once
    (:mod:`repro.db.trie`).
``bitmap``
    Vertical bitmaps: support is the popcount of the AND of the item
    bitmaps, with candidates sharing prefix intersections through a
    bounded LRU cache that persists across passes
    (:class:`repro.db.vertical.LruPrefixCache`).
``packed``
    Vertical bitmaps packed into ``uint64`` NumPy words; whole candidate
    batches are counted with vectorized AND + popcount
    (:mod:`repro.db.vertical`).  Falls back to pure Python when NumPy is
    absent.  The fastest engine, and what ``auto`` resolves to on large
    databases when NumPy is installed.
``roaring``
    The compressed tier (:mod:`repro.db.roaring`): per-item hybrid
    containers (sorted-array / packed-bitmap / run) in 2^16-row chunks,
    with container-level fused intersect+popcount that skips absent
    chunks.  Wins on sparse skewed data; resolves itself down the
    roaring → packed → bitmap → python ladder when the data is dense or
    NumPy is missing, always byte-identically.
``sharded``
    Row shards counted in parallel worker processes and summed
    (:mod:`repro.db.parallel`); each worker holds a persistent
    shard-local packed index.
``shm``
    The zero-copy shared-memory plane (:mod:`repro.db.shm`): one packed
    index published once via ``multiprocessing.shared_memory`` (or a
    memory-mapped snapshot file), attached — not copied — by every
    worker, with a per-pass adaptive choice between row-sharding and
    candidate work-stealing.  Falls back to ``sharded`` machinery, then
    serial, when shared memory is unavailable.
``partitioned``
    The out-of-core tier (:mod:`repro.db.outofcore`): row partitions of
    a v2 snapshot attached/counted/detached under a byte budget, with
    sub-partition windowed counting when even one partition exceeds it.
    Support is summed over partitions (additive over row ranges), so
    counts are identical to the in-memory engines while the resident
    index never exceeds ``memory_budget``.

Every pass, the first two included, is counted by the selected engine.
"""

from __future__ import annotations

import operator
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._types import CountingDeadline, Itemset
from .base import SupportCounter
from .hash_tree import HashTree
from .outofcore import PartitionedCounter
from .parallel import ShardedCounter
from .roaring import RoaringCounter, measure_density
from .shm import ShmShardedCounter
from .transaction_db import TransactionDatabase
from .trie import CandidateTrie
from .vertical import (
    HAVE_NUMPY,
    LruPrefixCache,
    PackedCounter,
    popcount,
)

__all__ = [
    "AUTO_PACKED_MIN_ROWS",
    "AUTO_ROARING_MAX_DENSITY",
    "AUTO_ROARING_MIN_ROWS",
    "BitmapCounter",
    "CountingDeadline",
    "DEFAULT_ENGINE",
    "EngineDecision",
    "HashTreeCounter",
    "NaiveCounter",
    "PackedCounter",
    "PartitionedCounter",
    "RoaringCounter",
    "ShardedCounter",
    "ShmShardedCounter",
    "SupportCounter",
    "TrieCounter",
    "available_engines",
    "engine_decision",
    "get_counter",
    "resolve_counter",
    "select_engine",
]


class NaiveCounter(SupportCounter):
    """Flat scan: each transaction is tested against each candidate."""

    name = "naive"

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        counts = dict.fromkeys(candidates, 0)
        # iterate the deduped keys: base.count no longer pre-dedups batches
        as_sets = [(candidate, frozenset(candidate)) for candidate in counts]
        for position, transaction in enumerate(db):
            if position % 512 == 0:
                self._check_deadline()
            for candidate, candidate_set in as_sets:
                if candidate_set <= transaction:
                    counts[candidate] += 1
        return counts


class HashTreeCounter(SupportCounter):
    """Hash-tree engine; one tree per candidate length, one logical pass."""

    name = "hashtree"

    def __init__(self, branch: int = 8, leaf_capacity: int = 16) -> None:
        super().__init__()
        self._branch = branch
        self._leaf_capacity = leaf_capacity

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        by_length: Dict[int, List[Itemset]] = defaultdict(list)
        for candidate in candidates:
            by_length[len(candidate)].append(candidate)
        counts: Dict[Itemset, int] = {}
        for _, group in sorted(by_length.items()):
            tree = HashTree(group, branch=self._branch, leaf_capacity=self._leaf_capacity)
            counts.update(
                tree.counts_by_itemset(
                    db.transactions, deadline_check=self._check_deadline
                )
            )
        # Mixed lengths share the single billed pass: a real implementation
        # would walk all the trees per transaction, as the paper's pass 6
        # counts C_k and MFCS together.
        if () in counts:
            counts[()] = len(db)
        return counts


class TrieCounter(SupportCounter):
    """Prefix-trie engine; naturally handles mixed candidate lengths."""

    name = "trie"

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        trie = CandidateTrie(candidates)
        return trie.counts_by_itemset(
            db.transactions, deadline_check=self._check_deadline
        )


class BitmapCounter(SupportCounter):
    """Vertical bitmap engine.

    Support of ``{a, b, c}`` is ``popcount(bitmap[a] & bitmap[b] & bitmap[c])``.
    Candidates mentioning items outside the universe have support 0.
    Counting walks the candidates in sorted order through an
    :class:`~repro.db.vertical.LruPrefixCache` that persists across passes
    against the same database, so the running AND of a shared
    ``(k-1)``-prefix is computed once per prefix — and the prefixes of
    pass ``k+1`` (exactly the candidates of pass ``k``) start warm.  The
    cache is bounded (LRU per prefix length), so long low-support runs
    cannot grow it without limit; current size and evictions surface as
    ``engine.prefix_cache.size`` / ``engine.prefix_cache.evictions``.
    """

    name = "bitmap"

    #: per-level bound on the persistent prefix cache (entries per length)
    CACHE_CAPACITY_PER_LEVEL = 4096

    def __init__(self) -> None:
        super().__init__()
        #: cumulative :class:`LruPrefixCache` accounting across passes
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0
        self.prefix_cache_evictions = 0
        self._cache: Optional[LruPrefixCache] = None
        self._cache_db = None  # weakref to the db the cache was built for

    def _cache_for(self, db: TransactionDatabase) -> LruPrefixCache:
        """Persistent per-database prefix cache (weakref invalidation)."""
        if (
            self._cache is None
            or self._cache_db is None
            or self._cache_db() is not db
        ):
            bitmaps = db.item_bitmaps()
            full = (1 << len(db)) - 1
            self._cache = LruPrefixCache(
                bitmaps.get,
                operator.and_,
                full,
                capacity_per_level=self.CACHE_CAPACITY_PER_LEVEL,
            )
            self._cache_db = weakref.ref(db)
        return self._cache

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        cache = self._cache_for(db)
        hits_before = cache.hits
        misses_before = cache.misses
        evictions_before = cache.evictions
        counts: Dict[Itemset, int] = {}
        for position, candidate in enumerate(sorted(candidates)):
            if position % 4096 == 0:
                self._check_deadline()
            value = cache.intersection(candidate)
            counts[candidate] = popcount(value) if value is not None else 0
        hits = cache.hits - hits_before
        misses = cache.misses - misses_before
        evictions = cache.evictions - evictions_before
        self.prefix_cache_hits += hits
        self.prefix_cache_misses += misses
        self.prefix_cache_evictions += evictions
        if self.obs.enabled:
            self.obs.counter("prefix_cache.hits").inc(hits)
            self.obs.counter("prefix_cache.misses").inc(misses)
            self.obs.counter("engine.prefix_cache.evictions").inc(evictions)
            self.obs.gauge("engine.prefix_cache.size").set(cache.size)
        return {candidate: counts[candidate] for candidate in candidates}

    def reset(self) -> None:
        super().reset()
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0
        self.prefix_cache_evictions = 0
        self._cache = None
        self._cache_db = None


_ENGINES = {
    "naive": NaiveCounter,
    "hashtree": HashTreeCounter,
    "trie": TrieCounter,
    "bitmap": BitmapCounter,
    "packed": PackedCounter,
    "roaring": RoaringCounter,
    "sharded": ShardedCounter,
    "shm": ShmShardedCounter,
    "partitioned": PartitionedCounter,
}

DEFAULT_ENGINE = "bitmap"

#: ``auto`` resolves to ``packed`` at or above this many transactions
#: (when NumPy is importable).  Below it, batch setup costs rival the
#: counting itself and plain int bitmaps win.
AUTO_PACKED_MIN_ROWS = 512

#: ``auto`` upgrades ``packed`` to ``roaring`` only at or above this many
#: transactions: compression pays through skipped words, and below ~4k
#: rows the flat matrix fits in cache no matter how sparse the columns.
AUTO_ROARING_MIN_ROWS = 4096

#: ...and only when mean column density is at or below this.  Denser
#: data builds mostly bitmap containers, where the flat packed matrix
#: with its vectorized batch kernel is the better representation (the
#: roaring engine itself would pick its packed rung anyway).
AUTO_ROARING_MAX_DENSITY = 0.05


@dataclass
class EngineDecision:
    """An engine choice plus the measured evidence that produced it.

    ``engine`` is what :func:`get_counter` should instantiate; ``evidence``
    is a JSON-ready dict recorded into ``MiningStats.engine_evidence`` so
    traces show *why* a tier was picked, not just which.  For ``auto`` the
    evidence carries the density measurement (rows / items / nnz /
    density) and a human-readable ``reason``; explicit engine names pass
    through with ``reason: "explicit"`` and no measurement cost.
    """

    engine: str
    evidence: Dict[str, Any] = field(default_factory=dict)


def engine_decision(db, name: Optional[str] = None) -> EngineDecision:
    """Resolve an engine name against a concrete db, keeping the evidence.

    The ``auto`` policy, in order:

    1. no NumPy or a small database -> :data:`DEFAULT_ENGINE` (plain int
       bitmaps; batch setup costs would rival the counting);
    2. sparse and large (density <= :data:`AUTO_ROARING_MAX_DENSITY`,
       rows >= :data:`AUTO_ROARING_MIN_ROWS`) -> ``roaring``;
    3. otherwise -> ``packed``.
    """
    if name is not None and name != "auto":
        return EngineDecision(name, {"reason": "explicit"})
    if db is None:
        return EngineDecision(DEFAULT_ENGINE, {"reason": "no database"})
    if not HAVE_NUMPY or len(db) < AUTO_PACKED_MIN_ROWS:
        return EngineDecision(
            DEFAULT_ENGINE,
            {
                "rows": len(db),
                "reason": (
                    "numpy unavailable"
                    if not HAVE_NUMPY
                    else "below packed row threshold (%d)"
                    % AUTO_PACKED_MIN_ROWS
                ),
            },
        )
    evidence = measure_density(db)
    if (
        evidence["rows"] >= AUTO_ROARING_MIN_ROWS
        and evidence["density"] <= AUTO_ROARING_MAX_DENSITY
    ):
        evidence["reason"] = "sparse (density %.4f <= %.2f)" % (
            evidence["density"],
            AUTO_ROARING_MAX_DENSITY,
        )
        return EngineDecision("roaring", evidence)
    evidence["reason"] = (
        "dense (density %.4f > %.2f)"
        % (evidence["density"], AUTO_ROARING_MAX_DENSITY)
        if evidence["rows"] >= AUTO_ROARING_MIN_ROWS
        else "below roaring row threshold (%d)" % AUTO_ROARING_MIN_ROWS
    )
    return EngineDecision("packed", evidence)


def get_counter(name: Optional[str] = None) -> SupportCounter:
    """Instantiate a counting engine by name.

    >>> get_counter("naive").name
    'naive'
    >>> get_counter().name
    'bitmap'
    """
    if name is None or name == "auto":
        name = DEFAULT_ENGINE
    try:
        engine = _ENGINES[name]
    except KeyError:
        raise ValueError(
            "unknown counting engine %r (choose from %s)"
            % (name, ", ".join(sorted(_ENGINES)))
        ) from None
    return engine()


def select_engine(db, name: Optional[str] = None) -> str:
    """Resolve an engine name (possibly ``auto``) against a concrete db.

    The name-only view of :func:`engine_decision` — ``auto`` picks
    ``roaring`` for large sparse databases, ``packed`` for large dense
    ones (NumPy permitting), else :data:`DEFAULT_ENGINE`.  Explicit names
    pass through unchanged (and unvalidated — :func:`get_counter` raises
    on unknown names).  Callers that want the density evidence behind the
    choice should use :func:`engine_decision` directly.
    """
    return engine_decision(db, name).engine


def resolve_counter(db, name, counter):
    """The miners' engine-resolution step: ``(engine, decision)``.

    A caller-supplied ``counter`` wins (decision records its name with
    reason ``caller-supplied``); otherwise the name — usually ``auto`` —
    is resolved against the database via :func:`engine_decision` and the
    evidence travels with the instantiated engine into ``MiningStats``.
    """
    if counter is not None:
        return counter, EngineDecision(
            getattr(counter, "name", ""), {"reason": "caller-supplied"}
        )
    decision = engine_decision(db, name)
    return get_counter(decision.engine), decision


def available_engines() -> List[str]:
    """Names of all registered engines."""
    return sorted(_ENGINES)
