"""Transaction-database substrate: storage, I/O, and support counting."""

from .counting import (
    BitmapCounter,
    EngineDecision,
    HashTreeCounter,
    NaiveCounter,
    PackedCounter,
    ShardedCounter,
    ShmShardedCounter,
    SupportCounter,
    TrieCounter,
    available_engines,
    engine_decision,
    get_counter,
    select_engine,
)
from .disk import DiskTransactionDatabase
from .snapshot import (
    Snapshot,
    SnapshotFormatError,
    default_snapshot_path,
    load_snapshot,
    snapshot_database,
    write_snapshot,
)
from .hash_tree import HashTree
from .io import load, load_basket, load_csv, load_json, save, save_basket, save_csv, save_json
from .roaring import ChunkedIntIndex, RoaringCounter, RoaringIndex, measure_density
from .transaction_db import TransactionDatabase
from .trie import CandidateTrie
from .vertical import (
    HAVE_NUMPY,
    IntBitmapIndex,
    PackedBitmapIndex,
    PrefixIntersector,
)

__all__ = [
    "BitmapCounter",
    "CandidateTrie",
    "ChunkedIntIndex",
    "DiskTransactionDatabase",
    "EngineDecision",
    "HAVE_NUMPY",
    "HashTree",
    "HashTreeCounter",
    "IntBitmapIndex",
    "NaiveCounter",
    "PackedBitmapIndex",
    "PackedCounter",
    "PrefixIntersector",
    "RoaringCounter",
    "RoaringIndex",
    "ShardedCounter",
    "ShmShardedCounter",
    "Snapshot",
    "SnapshotFormatError",
    "SupportCounter",
    "TransactionDatabase",
    "TrieCounter",
    "available_engines",
    "default_snapshot_path",
    "load_snapshot",
    "snapshot_database",
    "write_snapshot",
    "engine_decision",
    "get_counter",
    "measure_density",
    "select_engine",
    "load",
    "load_basket",
    "load_csv",
    "load_json",
    "save",
    "save_basket",
    "save_csv",
    "save_json",
]
