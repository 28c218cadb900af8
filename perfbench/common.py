"""Shared definitions: the workloads, the session query plan, MFS digests."""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

Itemset = Tuple[int, ...]

# Every workload uses the default engine resolution (``auto``) and the
# default lattice kernel; the program sees only the generated files.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "fig3-t10i4-1pct": {
        "kind": "oneshot",
        "quest": "T10.I4.D100K",
        "patterns": 2000,
        "items": 1000,
        "min_support": "1",
    },
    "fig4-t20i15-10.5pct": {
        "kind": "oneshot",
        "quest": "T20.I15.D100K",
        "patterns": 50,
        "items": 1000,
        "min_support": "10.5",
    },
    "session-t10i4-mix": {
        "kind": "session",
        "quest": "T10.I4.D100K",
        "patterns": 2000,
        "items": 1000,
        # thresholds as fractions of |D|: the cold first query, then
        # fresh draws from [lo, hi] alternating with repeats
        "queries": 160,
        "first": 0.010,
        "lo": 0.010,
        "hi": 0.020,
    },
}


def plan_bounds(spec: Dict[str, object], num_rows: int) -> Tuple[int, int, int]:
    """``(lowest, highest, first)`` absolute threshold of a session plan."""
    lo = max(1, math.ceil(spec["lo"] * num_rows))
    hi = max(lo, math.floor(spec["hi"] * num_rows))
    first = max(1, round(spec["first"] * num_rows))
    return min(lo, first), hi, first


GOLDEN = (5 ** 0.5 - 1) / 2


def _bit_reversed(count: int) -> List[int]:
    """``range(count)`` in van der Corput order: coarse to fine coverage."""
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(format(i, "0%db" % bits)[::-1], 2))
    return [i for i in order if i < count]


def session_plan(spec: Dict[str, object], num_rows: int, queries: int) -> List[int]:
    """Absolute thresholds of one session: cold first, then the mix.

    After the cold first query, fresh and repeated thresholds alternate,
    so half the queries repeat.  The fresh thresholds split ``[lo, hi]``
    of ``|D|`` into equal strata, one threshold in the middle of each,
    and visit the strata in bit-reversed order, so the range is covered
    evenly at every point of the session.  The ``r``-th repeat asks the
    distinct earlier threshold at fraction ``r * golden ratio mod 1`` of
    the list asked so far, which spreads repeats evenly over old and new
    ones.  The plan depends on ``|D|`` alone; the seed permutes the
    database rows.  Seeded thresholds moved the few expensive queries
    just above the lowest threshold, which dominate a session's sweep,
    and with them the sweep, from plan to plan.  Thresholds are absolute
    counts, so no float rounding sits between the plan and the program.
    """
    lo, hi, first = plan_bounds(spec, num_rows)
    fresh_count = (queries - 1) - (queries - 1) // 2
    width = (hi - lo + 1) / max(1, fresh_count)
    fresh = [
        min(hi, lo + int(width * (stratum + 0.5)))
        for stratum in _bit_reversed(fresh_count)
    ]
    plan = [first]
    asked = [first]
    for slot in range(queries - 1):
        if slot % 2 == 0:
            threshold = fresh[slot // 2]
            if threshold not in asked:
                asked.append(threshold)
        else:
            threshold = asked[int((slot // 2 + 1) * GOLDEN % 1 * len(asked))]
        plan.append(threshold)
    return plan


def mfs_digest(itemsets: Iterable[Sequence[int]]) -> str:
    """Order-independent sha256 of a family of itemsets."""
    lines = sorted(" ".join(map(str, sorted(itemset))) for itemset in itemsets)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def table_digest(frequent: Dict[Itemset, int]) -> str:
    """sha256 of an itemset -> support table."""
    lines = sorted(
        "%s:%d" % (" ".join(map(str, itemset)), count)
        for itemset, count in frequent.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


_ITEMSET_LINE = re.compile(r"^\s+\{([0-9, ]*)\}\s+support=")


def parse_cli_mfs(text: str) -> List[Itemset]:
    """The maximum frequent set printed by ``pincer mine``."""
    family = []
    for line in text.splitlines():
        match = _ITEMSET_LINE.match(line)
        if match:
            body = match.group(1).strip()
            family.append(tuple(int(t) for t in body.split(",")) if body else ())
    return family


def maximal_at(frequent: Dict[Itemset, int], threshold: int) -> List[Itemset]:
    """MFS at ``threshold`` from a table of every itemset frequent below it.

    An itemset frequent at ``threshold`` is maximal unless it is an
    immediate subset of another one; Apriori's downward closure makes
    checking immediate supersets enough.
    """
    kept = {itemset for itemset, count in frequent.items() if count >= threshold}
    covered = set()
    for itemset in kept:
        if len(itemset) > 1:
            for drop in range(len(itemset)):
                covered.add(itemset[:drop] + itemset[drop + 1:])
    return sorted(kept - covered)
