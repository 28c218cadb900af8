"""One measured process: a ``pincer mine`` or a resident session.

Run by ``run.py``, never by hand.  The first argument picks the mode, the
second is the JSON file the process leaves its timestamps in::

    child.py mine MARKS [--trace] [--setup-only] -- <pincer mine args>
    child.py session MARKS [--trace] --basket B --snapshot S --plan PLAN.json
    child.py reference OUT --basket B --min-count C

Timestamps are ``time.monotonic()`` (system-wide CLOCK_MONOTONIC on
Linux), so the parent can subtract the instant it spawned the process.
``mine`` calls ``repro.cli.main`` exactly as the ``pincer`` console
script does; its only additions are two timestamps, taken when the
basket parse returns (database ready) and when the miner returns (answer
ready), plus the time freeing the database and the result takes after
``main`` returns.  ``--trace`` installs :class:`tracer.LayerTracer`
before the run.  ``--setup-only`` (``mine`` only) exits as soon as the
database is ready.
"""

from __future__ import annotations

import json
import os
import sys
import time

def _write(path: str, marks: dict) -> None:
    with open(path, "w") as handle:
        json.dump(marks, handle)


def _numpy_version() -> str:
    numpy = sys.modules.get("numpy")
    return getattr(numpy, "__version__", "absent")


def run_mine(marks_path: str, trace: bool, setup_only: bool, argv) -> int:
    import repro.cli
    from repro.core.pincer import PincerSearch
    from repro.db import io

    marks = {"t_imported": time.monotonic()}
    tracer = None
    if trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    load = io.load
    mine = PincerSearch.mine
    # the database and the result are freed after main returns, where the
    # release is timed on its own instead of inflating the output layer
    held = []

    def marked_load(*args, **kwargs):
        db = load(*args, **kwargs)
        held.append(db)
        marks["t_ready"] = time.monotonic()
        marks["rows"] = len(db)
        if setup_only:
            _write(marks_path, marks)
            os._exit(0)
        return db

    def marked_mine(self, *args, **kwargs):
        result = mine(self, *args, **kwargs)
        held.append(result)
        marks["t_answer"] = time.monotonic()
        marks["engine"] = result.stats.engine
        marks["evidence"] = result.stats.engine_evidence
        return result

    io.load = marked_load
    PincerSearch.mine = marked_mine
    code = repro.cli.main(argv)
    marks["t_main_end"] = time.monotonic()
    del held[:]
    marks["t_released"] = time.monotonic()
    marks["numpy"] = _numpy_version()
    if tracer is not None:
        marks["trace"] = tracer.report()
    sys.stdout.flush()
    _write(marks_path, marks)
    return code


def run_session(marks_path: str, trace: bool, args) -> int:
    import repro.cli  # noqa: F401  (every ``pincer`` process pays it)
    import repro.serve  # noqa: F401  (``pincer serve`` opens the session)
    from repro.core.session import MiningSession
    from repro.db.disk import DiskTransactionDatabase

    from common import mfs_digest

    marks = {"t_imported": time.monotonic()}
    tracer = None
    if trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    # opened as ``pincer serve --snapshot`` opens it
    db = DiskTransactionDatabase(args.basket, snapshot=args.snapshot)
    session = MiningSession(db, engine="auto", key=args.snapshot)
    marks["t_ready"] = time.monotonic()
    marks["rows"] = len(db)
    marks["engine"] = session.decision.engine
    marks["evidence"] = session.decision.evidence
    with open(args.plan) as handle:
        plan = json.load(handle)
    clock = time.monotonic
    starts, seconds, results, errors = [], [], [], []
    marks["t_sweep_start"] = clock()
    for threshold in plan:
        started = clock()
        starts.append(started)
        try:
            result = session.mine(min_count=threshold)
        except Exception as exc:  # a failed query is counted, not fatal
            seconds.append(clock() - started)
            results.append(None)
            errors.append("%s: %s" % (type(exc).__name__, exc))
            continue
        seconds.append(clock() - started)
        results.append(result.mfs)
    marks["t_sweep_end"] = time.monotonic()
    # answers are digested after the sweep, outside the timed region
    marks["answers"] = [
        None if mfs is None else [len(mfs), mfs_digest(mfs)] for mfs in results
    ]
    marks["errors"] = errors
    marks["query_t"] = starts
    marks["query_s"] = seconds
    marks["cache"] = session.cache.stats()
    marks["queries"] = session.queries
    marks["warm_queries"] = session.warm_queries
    marks["numpy"] = _numpy_version()
    if tracer is not None:
        marks["trace"] = tracer.report()
    session.close()
    _write(marks_path, marks)
    return 0


def run_reference(out_path: str, args) -> int:
    """Every itemset frequent at ``min_count``, by Apriori on the second path.

    The second path is the ``packed`` engine with the ``tuple`` kernel, so
    the reference shares neither the default engine nor the default
    lattice kernel with the runs it checks.
    """
    from repro.algorithms.apriori import Apriori
    from repro.db import io

    db = io.load(args.basket)
    result = Apriori(engine="packed", kernel="tuple").mine(
        db, min_count=args.min_count
    )
    frequent = [
        [list(itemset), count]
        for itemset, count in sorted(result.supports.items())
        if count >= args.min_count
    ]
    _write(out_path, {"min_count": args.min_count, "frequent": frequent})
    return 0


def main(argv) -> int:
    import argparse

    mode, path = argv[0], argv[1]
    rest = argv[2:]
    cli_args = []
    if "--" in rest:
        cut = rest.index("--")
        rest, cli_args = rest[:cut], rest[cut + 1:]
    parser = argparse.ArgumentParser(prog="child.py %s" % mode)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--basket")
    parser.add_argument("--snapshot")
    parser.add_argument("--plan")
    parser.add_argument("--min-count", type=int)
    args = parser.parse_args(rest)
    if mode == "mine":
        return run_mine(path, args.trace, args.setup_only, cli_args)
    if mode == "session":
        return run_session(path, args.trace, args)
    if mode == "reference":
        return run_reference(path, args)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
