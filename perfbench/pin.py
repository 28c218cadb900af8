#!/usr/bin/env python3
"""Write ``pins.json``: the answers the benchmark checks at ``--quest-seed 0``.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/pin.py

No pin rests on a single code path:

* each one-shot cell is mined twice with ``pincer mine`` — the default
  engine and kernel, and ``--engine packed --kernel tuple`` — and pinned
  only if both MFS digests agree;
* the session reference (every itemset frequent at the lowest threshold
  the query mix can draw) comes from Apriori on the ``packed`` engine
  with the ``tuple`` kernel; the MFS it implies at each pinned threshold
  must equal what Pincer-Search with the default engine and kernel mines
  there.

Each pin carries the sha256 of the generated database it was made from;
``run.py`` uses a pin only for that exact input.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from common import WORKLOADS, maximal_at, mfs_digest, parse_cli_mfs, table_digest
from run import PINS, ROOT, WORK, Bench

SESSION_PINS = (0.010, 0.0125, 0.015, 0.0175, 0.020)


def bench_for(workload: str, run_dir: Path) -> Bench:
    args = SimpleNamespace(
        workload=workload, seed=0, seconds=0, trace=0, quest_seed=0,
        transactions=None, queries=None,
    )
    bench = Bench(args, run_dir)
    bench.pins = {}
    bench.prepare()
    return bench


def pin_oneshot(workload: str, run_dir: Path) -> dict:
    bench = bench_for(workload, run_dir)
    minsup = bench.spec["min_support"]
    default = parse_cli_mfs(bench.cli("mine", str(bench.base), "--min-support", minsup))
    second = parse_cli_mfs(bench.cli(
        "mine", str(bench.base), "--min-support", minsup,
        "--engine", "packed", "--kernel", "tuple",
    ))
    if mfs_digest(default) != mfs_digest(second):
        raise SystemExit("%s: default and second path disagree" % workload)
    return {
        "base_sha256": bench.base_sha,
        "min_support": minsup,
        "digest": mfs_digest(default),
        "size": len(default),
    }


def pin_session(run_dir: Path) -> dict:
    from repro.core.pincer import PincerSearch
    from repro.db import io

    bench = bench_for("session-t10i4-mix", run_dir)
    frequent, lo = bench.session_reference()
    db = io.load(bench.base)
    thresholds = {}
    for fraction in SESSION_PINS:
        count = max(lo, round(fraction * bench.rows))
        derived = mfs_digest(maximal_at(frequent, count))
        mined = mfs_digest(PincerSearch().mine(db, min_count=count).mfs)
        if derived != mined:
            raise SystemExit("session: reference and default path disagree at %d" % count)
        thresholds[str(count)] = derived
    return {
        "reference": {
            "base_sha256": bench.base_sha,
            "min_count": lo,
            "digest": table_digest(frequent),
            "size": len(frequent),
        },
        "thresholds": thresholds,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    pins = {"quest_seed": 0, "mfs": {}, "engine": {}}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, spec in WORKLOADS.items():
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            if spec["kind"] == "oneshot":
                pins["mfs"][name] = pin_oneshot(name, run_dir)
            else:
                pins["session"] = pin_session(run_dir)
    # the engine ``auto`` resolves to on each workload's database
    from repro.db import io
    from repro.db.counting import engine_decision

    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            bench = bench_for(name, Path(tmp))
            pins["engine"][name] = engine_decision(io.load(bench.base)).engine
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    sys.stdout.write("wrote %s\n" % PINS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
