"""Nesting-aware layer timing around the program's public entry points.

The tracer patches functions and methods of an already-imported ``repro``
package from the outside; nothing under ``src/`` carries a span.  Every
wrapped call pushes a frame on one stack.  When it returns, its duration
minus the time its wrapped children took is its *self time*, which is
added to the call's layer.  Summing self times never counts a second
twice, so the layer totals plus the unwrapped remainder add up to the
traced wall clock.

Work counters (passes, itemsets, candidates, MFCS splits, ...) are read
at the same boundaries, from arguments and return values, and only on the
outermost call of a layer so nested calls of one layer count once.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

# (module, qualified attribute, layer).  Methods are patched on the class
# that defines them; module functions are replaced in every ``repro``
# module that holds a reference, so ``from x import f`` call sites see the
# wrapper too.
TARGETS = [
    ("repro.cli", "main", "cli.main"),
    ("repro.cli", "_cmd_mine", "cli.output"),
    ("repro.db.io", "load", "db.io.load"),
    ("repro.db.disk", "DiskTransactionDatabase.__init__", "db.snapshot.attach"),
    ("repro.db.counting", "engine_decision", "db.counting.resolve"),
    ("repro.db.transaction_db", "TransactionDatabase.item_bitmaps", "db.vertical.build"),
    ("repro.db.disk", "DiskTransactionDatabase.item_bitmaps", "db.vertical.build"),
    ("repro.db.vertical", "PackedCounter._index_for", "db.vertical.build"),
    ("repro.db.vertical", "PackedBitmapIndex.from_database", "db.vertical.build"),
    ("repro.db.vertical", "PackedBitmapIndex.from_bitmaps", "db.vertical.build"),
    ("repro.db.vertical", "PackedBitmapIndex.from_transactions", "db.vertical.build"),
    ("repro.db.vertical", "IntBitmapIndex.from_database", "db.vertical.build"),
    ("repro.db.vertical", "IntBitmapIndex.from_bitmaps", "db.vertical.build"),
    ("repro.db.vertical", "IntBitmapIndex.from_transactions", "db.vertical.build"),
    ("repro.db.roaring", "RoaringCounter._index_for", "db.vertical.build"),
    ("repro.db.roaring", "RoaringIndex.from_database", "db.vertical.build"),
    ("repro.db.roaring", "RoaringIndex.from_bitmaps", "db.vertical.build"),
    ("repro.db.roaring", "RoaringIndex.from_transactions", "db.vertical.build"),
    ("repro.db.roaring", "ChunkedIntIndex.from_database", "db.vertical.build"),
    ("repro.db.roaring", "ChunkedIntIndex.from_bitmaps", "db.vertical.build"),
    ("repro.db.roaring", "ChunkedIntIndex.from_transactions", "db.vertical.build"),
    ("repro.db.snapshot", "Snapshot.int_bitmaps", "db.vertical.build"),
    ("repro.db.snapshot", "Snapshot.packed_index", "db.vertical.build"),
    ("repro.db.snapshot", "Snapshot.index", "db.vertical.build"),
    ("repro.db.base", "SupportCounter.count", "db.counting.count"),
    ("repro.core.supportcache", "CachedSupportCounter.count", "core.supportcache.lookup"),
    ("repro.core.pincer", "resolve_threshold", "core.pincer"),
    ("repro.core.pincer", "PincerSearch.mine", "core.pincer"),
    ("repro.core.kernel", "make_kernel", "core.kernel"),
    ("repro.core.mfcs", "MFCS.update", "core.mfcs"),
    ("repro.core.mfcs", "MFCS.exclude", "core.mfcs"),
    ("repro.core.adaptive", "AdaptivePolicy.keep_after_classification", "core.pincer"),
    ("repro.core.adaptive", "AdaptivePolicy.keep_mfcs", "core.pincer"),
    ("repro.core.adaptive", "AdaptivePolicy.abandon", "core.pincer"),
    ("repro.core.session", "MiningSession.__init__", "core.session.open"),
    ("repro.core.session", "MiningSession.mine", "core.session"),
]

# every kernel method is lattice work, whichever kernel class defines it
KERNEL_CLASSES = ("LatticeKernel", "TupleKernel", "BitmaskKernel")
KERNEL_METHODS = (
    "make_cover", "make_mfcs", "make_mfcs_from", "apriori_join",
    "apriori_prune", "recovery", "pincer_prune", "generate_candidates",
)

# layers whose self time is glue rather than a layer of the program:
# argument parsing and instrumentation set-up in ``main``
GLUE_LAYERS = ("cli.main",)


class LayerTracer:
    """Installs the wrappers and accumulates self time and work per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)
        self.peak_mfcs = 0
        self.threshold: Optional[int] = None
        #: abandon pass of each finished PincerSearch.mine (0: never)
        self.abandon_passes: List[int] = []
        self._abandon_pass: Optional[int] = None
        self._last_k = 0
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patched = set()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch_method(owner, attr, layer, self._hook_for(qualname))
            else:
                original = getattr(module, attr)
                self._patch_function(original, layer, self._hook_for(qualname))
        kernel = sys.modules["repro.core.kernel"]
        for class_name in KERNEL_CLASSES:
            owner = getattr(kernel, class_name)
            for attr in KERNEL_METHODS:
                if attr in vars(owner):
                    self._patch_method(
                        owner, attr, "core.kernel", self._hook_for(attr)
                    )

    def _hook_for(self, qualname: str):
        return {
            "SupportCounter.count": self._after_count,
            "resolve_threshold": self._after_threshold,
            "PincerSearch.mine": self._around_mine,
            "generate_candidates": self._after_candidates,
            "apriori_prune": self._after_candidates,
            "MFCS.update": self._around_mfcs,
            "MFCS.exclude": self._around_mfcs,
            "AdaptivePolicy.keep_after_classification": self._after_keep,
            "AdaptivePolicy.keep_mfcs": self._after_keep,
            "AdaptivePolicy.abandon": self._after_abandon,
        }.get(qualname)

    def _patch_method(self, owner, attr: str, layer: str, hook) -> None:
        raw = vars(owner)[attr]
        if id(raw) in self._patched:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, layer, hook))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer, hook))
        else:
            wrapped = self._wrap(raw, layer, hook)
        self._patched.add(id(wrapped))
        setattr(owner, attr, wrapped)

    def _patch_function(self, original, layer: str, hook) -> None:
        if id(original) in self._patched:
            return
        wrapped = self._wrap(original, layer, hook)
        self._patched.add(id(wrapped))
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    # -- the wrapper ---------------------------------------------------

    def _wrap(self, fn, layer: str, hook):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            finish = hook(args, kwargs, outermost) if hook is not None else None
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if finish is not None:
                finish(result)
            return result

        return traced

    # -- work counters -------------------------------------------------

    def _after_count(self, args, kwargs, outermost):
        if not outermost:
            return None

        def finish(result):
            if not result:
                return
            self.work["passes"] += 1
            self.work["itemsets"] += len(result)
            threshold = self.threshold
            if threshold is not None:
                self.work["frequent"] += sum(
                    1 for value in result.values() if value >= threshold
                )

        return finish

    def _after_threshold(self, args, kwargs, outermost):
        def finish(result):
            self.threshold = result[0]

        return finish

    def _around_mine(self, args, kwargs, outermost):
        if not outermost:
            return None
        self._abandon_pass = None
        self._last_k = 0

        def finish(result):
            self.abandon_passes.append(self._abandon_pass or 0)
            self.work["mines"] += 1

        return finish

    def _after_candidates(self, args, kwargs, outermost):
        if not outermost:
            return None

        def finish(result):
            self.work["candidates"] += len(result)

        return finish

    def _around_mfcs(self, args, kwargs, outermost):
        if not outermost:
            return None
        mfcs = args[0]
        before = (mfcs.splits, mfcs.cover_queries, mfcs.cover_node_visits)

        def finish(result):
            self.work["splits"] += mfcs.splits - before[0]
            self.work["cover_queries"] += mfcs.cover_queries - before[1]
            self.work["cover_node_visits"] += (
                mfcs.cover_node_visits - before[2]
            )
            self.peak_mfcs = max(self.peak_mfcs, len(mfcs))

        return finish

    def _after_keep(self, args, kwargs, outermost):
        k = args[1] if len(args) > 1 else kwargs.get("k", 0)

        def finish(result):
            self._last_k = k
            if not result and self._abandon_pass is None:
                self._abandon_pass = k

        return finish

    def _after_abandon(self, args, kwargs, outermost):
        def finish(result):
            if self._abandon_pass is None:
                self._abandon_pass = self._last_k

        return finish

    # -- report --------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Layer self times and work counters (JSON-ready)."""
        return {
            "self_s": dict(self.self_s),
            "work": dict(self.work),
            "peak_mfcs": self.peak_mfcs,
            "abandon_pass": (
                statistics.median(self.abandon_passes)
                if self.abandon_passes
                else 0
            ),
        }
