#!/usr/bin/env python3
"""Paper-scale end-to-end benchmark of the ``pincer`` program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-t10i4-1pct --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` and ``BENCHMARK.json``):

* ``fig3-t10i4-1pct`` — one-shot ``pincer mine`` of T10.I4.D100K at 1%;
* ``fig4-t20i15-10.5pct`` — one-shot ``pincer mine`` of T20.I15.D100K
  (|L| = 50) at 10.5%;
* ``session-t10i4-mix`` — one closed-loop caller sending a seeded query
  mix to one ``MiningSession`` opened on a ``.snap`` of T10.I4.D100K.

Inputs are made outside the timed region: ``pincer generate`` writes the
Quest database for ``--quest-seed`` (cached under ``perfbench/.work``),
``--seed`` permutes its rows (row order never changes the answer) and
draws the session's query mix, and ``pincer snapshot`` writes the
session's snapshot.  Every answer is checked, also outside the timed
region, against pinned digests (``pins.json``) or, for inputs without a
pin, against a second code path (``packed`` engine, ``tuple`` kernel).

Every time is reported in reference seconds (``speed.py``): a real-time
thread times fixed rounds of work on the core each child is pinned to,
and each interval of the child, less the rounds inside it, is divided by
the core's mean slowdown over it, so the host's drifting speed cancels
out.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced run.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import GLUE_LAYERS
from common import (
    WORKLOADS,
    file_sha256,
    maximal_at,
    mfs_digest,
    parse_cli_mfs,
    percentile,
    plan_bounds,
    session_plan,
    table_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
PINS = HERE / "pins.json"
CHILD = str(HERE / "child.py")
PY = sys.executable

# each run must end within 180 s; a child still running past this share
# of it is killed and counted as failed
RUN_BUDGET_S = 165.0
# a cycle is started only if it should end within this multiple of --seconds
WINDOW_SLACK = 1.4
# ...but at least this many cycles run: a median of one sample is that
# sample (a session sweep takes 10-15 s when the host is slow)
MIN_CYCLES = 2


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one process, no extra threads: keep NumPy's BLAS pool single-threaded
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Bench:
    """One benchmark run: inputs, measured processes, checks, the result."""

    def __init__(self, args, run_dir: Path) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.run_dir = run_dir
        self.env = child_env()
        self.started = time.monotonic()
        self.pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.labels = {}
        self._serial = 0
        self.queries = args.queries or self.spec.get("queries", 0)

    # -- processes -----------------------------------------------------

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.run_dir / ("%s-%d" % (stem, self._serial))

    def spawn(self, argv, stdout_path=None):
        """Run one child; (spawn instant, exit instant, exit code, peak RSS MB)."""
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        err_path = self._path("stderr")
        out = open(stdout_path or os.devnull, "wb")
        err = open(err_path, "wb")
        try:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
            killer = threading.Timer(max(1.0, remaining), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t_exit = time.monotonic()
            finally:
                killer.cancel()
                killer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            out.close()
            err.close()
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            self.problems.append(
                "exit %d from %s: %s" % (proc.returncode, argv[2:4], tail)
            )
        return t_spawn, t_exit, proc.returncode, usage.ru_maxrss / 1024.0

    def cli(self, *argv) -> str:
        out = self._path("cli")
        _, _, code, _ = self.spawn([PY, "-m", "repro.cli", *argv], out)
        if code != 0:
            raise RunFailed("pincer %s failed: %s" % (argv[0], self.problems[-1]))
        return out.read_text()

    # -- inputs --------------------------------------------------------

    def prepare(self) -> None:
        spec, args = self.spec, self.args
        generator = {
            "name": spec["quest"],
            "patterns": spec["patterns"],
            "items": spec["items"],
            "transactions": args.transactions,
            "quest_seed": args.quest_seed,
        }
        stem = "%s-L%d-N%d-D%s-q%d" % (
            spec["quest"], spec["patterns"], spec["items"],
            args.transactions or "name", args.quest_seed,
        )
        base = WORK / (stem + ".dat")
        if not base.is_file():
            tmp = self._path("generate")
            extra = (
                ["--transactions", str(args.transactions)]
                if args.transactions else []
            )
            self.cli(
                "generate", spec["quest"], "--out", str(tmp.with_suffix(".dat")),
                "--patterns", str(spec["patterns"]),
                "--items", str(spec["items"]),
                "--seed", str(args.quest_seed), *extra,
            )
            os.replace(tmp.with_suffix(".dat"), base)
        self.base = base
        self.base_sha = file_sha256(base)
        lines = base.read_text().splitlines(keepends=True)
        random.Random("rows:%d" % args.seed).shuffle(lines)
        self.db_path = self.run_dir / "db.dat"
        self.db_path.write_text("".join(lines))
        self.rows = len(lines)
        files = {"base": self.base_sha, "db": file_sha256(self.db_path)}
        if spec["kind"] == "session":
            self.snap_path = self.run_dir / "db.dat.snap"
            self.cli("snapshot", str(self.db_path), "--out", str(self.snap_path))
            files["snapshot"] = file_sha256(self.snap_path)
        self.labels["generator"] = generator
        self.labels["sha256"] = files

    def _pin(self, section: str, key: str):
        """A pinned entry, only when it was pinned for this exact input."""
        entry = self.pins.get(section, {}).get(key)
        if entry and entry.get("base_sha256") == self.base_sha:
            return entry
        return None

    def expected_oneshot(self) -> str:
        pin = self._pin("mfs", self.args.workload)
        if pin is not None:
            self.labels["reference"] = "pinned"
            return pin["digest"]
        self.labels["reference"] = "second path (packed engine, tuple kernel)"
        cache = WORK / ("mfs-%s-%s.json" % (self.base_sha[:16], self.spec["min_support"]))
        if not cache.is_file():
            text = self.cli(
                "mine", str(self.base), "--min-support", self.spec["min_support"],
                "--engine", "packed", "--kernel", "tuple",
            )
            family = parse_cli_mfs(text)
            tmp = self._path("mfs")
            tmp.write_text(json.dumps({"digest": mfs_digest(family), "size": len(family)}))
            os.replace(tmp, cache)
        return json.loads(cache.read_text())["digest"]

    def session_reference(self):
        """Every itemset frequent at the lowest threshold the mix can draw."""
        lo = plan_bounds(self.spec, self.rows)[0]
        cache = WORK / ("ref-%s-%d.json" % (self.base_sha[:16], lo))
        if not cache.is_file():
            tmp = self._path("reference")
            _, _, code, _ = self.spawn(
                [PY, CHILD, "reference", str(tmp), "--basket", str(self.base),
                 "--min-count", str(lo)]
            )
            if code != 0:
                raise RunFailed("session reference failed: %s" % self.problems[-1])
            os.replace(tmp, cache)
        frequent = {
            tuple(items): count
            for items, count in json.loads(cache.read_text())["frequent"]
        }
        pin = self._pin("session", "reference")
        if pin is not None:
            self.labels["reference"] = "pinned"
            if pin["digest"] != table_digest(frequent) or pin["min_count"] != lo:
                raise RunFailed("session reference disagrees with its pin")
        else:
            self.labels["reference"] = "second path (apriori, packed engine, tuple kernel)"
        return frequent, lo

    # -- one-shot workloads --------------------------------------------

    def oneshot(self, trace: bool = False, setup_only: bool = False):
        """One ``pincer mine`` process: (sample or None, attempted, failed)."""
        marks = self._path("marks")
        out = self._path("stdout")
        flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
        t_spawn, t_exit, code, rss = self.spawn(
            [PY, CHILD, "mine", str(marks), *flags, "--", "mine", str(self.db_path),
             "--min-support", self.spec["min_support"]],
            out,
        )
        if code != 0 or not marks.is_file():
            return None, 1, 1
        m = json.loads(marks.read_text())
        seconds = self.speed.seconds
        sample = {"setup": seconds(t_spawn, m["t_ready"]), "rows": m["rows"]}
        if setup_only:
            return sample, 1, 0
        sample.update(
            wall=seconds(t_spawn, t_exit),
            answer=seconds(m["t_ready"], m["t_answer"]),
            rss=rss,
            marks=m,
            slowdown=self.speed.slowdown(t_spawn, t_exit),
            scale=self.speed.seconds(t_spawn, t_exit) / (t_exit - t_spawn),
            raw_import=m["t_imported"] - t_spawn,
            raw_wall=t_exit - t_spawn,
        )
        self.labels.setdefault("engine", m.get("engine"))
        self.labels.setdefault("evidence", m.get("evidence"))
        self.labels.setdefault("numpy", m.get("numpy"))
        family = parse_cli_mfs(out.read_text())
        if mfs_digest(family) != self.expected:
            self.problems.append(
                "wrong MFS (%d itemsets) from %s" % (len(family), self.args.workload)
            )
            return None, 1, 1
        return sample, 1, 0

    def measure(self, warmup, probe, full):
        """Warm up once, then repeat (probe, sample) cycles for ``--seconds``.

        A probe measures set-up in a fresh process; interleaving probes
        with the samples spreads both over the same stretch of machine
        time.  A traced run pairs each untraced sample with a traced one
        instead.
        """
        warmup()  # byte-compiles the checkout, fills the page cache
        probes, plain, traced = [], [], []
        window = time.monotonic()
        cycles = 0
        while True:
            cycle = time.monotonic()
            if self.args.trace:
                steps = ((plain, full, False), (traced, full, True))
            else:
                steps = ((probes, probe, None), (plain, full, False))
            for bucket, step, trace in steps:
                outcome = step() if trace is None else step(trace)
                sample, attempted, failed = outcome
                self.attempted += attempted
                self.failed += failed
                if sample is not None:
                    bucket.append(sample)
            cycles += 1
            # stop at the window's end, or before a cycle that would run
            # well past it (keeps a run's length near --seconds)
            now = time.monotonic()
            elapsed = now - window
            if cycles >= MIN_CYCLES and (
                elapsed >= self.args.seconds
                or elapsed + (now - cycle) > self.args.seconds * WINDOW_SLACK
            ):
                break
        if not plain or (self.args.trace and not traced):
            raise RunFailed("no successful sample")
        self.labels["slowdown"] = statistics.median(s["slowdown"] for s in plain)
        self.labels["probe"] = {"cpu": self.speed.cpu, "realtime": self.speed.realtime}
        return probes, plain, traced

    def run_oneshot(self) -> dict:
        self.expected = self.expected_oneshot()
        setup_probe = lambda: self.oneshot(setup_only=True)  # noqa: E731
        probes, plain, traced = self.measure(setup_probe, setup_probe, self.oneshot)
        self.samples = {"mines": len(plain), "probes": len(probes), "traced": len(traced)}
        if self.args.trace:
            return self.layer_metrics(plain, traced)
        # every mine is one cold query: its answer time is ready -> answer
        answers = [s["answer"] for s in plain]
        setups = [s["setup"] for s in probes + plain]
        n = len(plain)
        return {
            "wall_s": (statistics.median(s["wall"] for s in plain), "s", n),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (statistics.median(s["rss"] for s in plain), "MB", n),
            "first_query_s": (statistics.median(answers), "s", n),
            "query_p50_s": (statistics.median(answers), "s", n),
            "query_p90_s": (percentile(answers, 0.9), "s", n),
        }

    # -- the session workload ------------------------------------------

    def session(self, trace: bool = False, queries=None):
        """One session process: (sample or None, attempts, failures).

        ``queries`` defaults to the workload's; a set-up probe sends none
        (opening the session is its one attempt).  A traced session
        asks the same plan as an untraced one.
        """
        marks = self._path("marks")
        plan_path = self._path("plan")
        count = self.queries if queries is None else queries
        plan = session_plan(self.spec, self.rows, count) if count else []
        plan_path.write_text(json.dumps(plan))
        t_spawn, t_exit, code, rss = self.spawn(
            [PY, CHILD, "session", str(marks), *(["--trace"] if trace else []),
             "--basket", str(self.db_path), "--snapshot", str(self.snap_path),
             "--plan", str(plan_path)]
        )
        attempts = max(1, len(plan))
        if code != 0 or not marks.is_file():
            return None, attempts, attempts
        m = json.loads(marks.read_text())
        seconds = self.speed.seconds
        if not plan:
            return {"setup": seconds(t_spawn, m["t_ready"])}, 1, 0
        self.labels.setdefault("engine", m.get("engine"))
        self.labels.setdefault("evidence", m.get("evidence"))
        self.labels.setdefault("numpy", m.get("numpy"))
        wrong = sum(
            1
            for threshold, answer in zip(plan, m["answers"])
            if answer is None or answer[1] != self.expected_at(threshold)
        )
        if wrong:
            self.problems.append(
                "%d wrong or failed session answers; errors: %s" % (wrong, m["errors"][:3])
            )
        queries = [
            seconds(start, start + spent)
            for start, spent in zip(m["query_t"], m["query_s"])
        ]
        sample = {
            "setup": seconds(t_spawn, m["t_ready"]),
            "wall": seconds(m["t_sweep_start"], m["t_sweep_end"]),
            "rss": rss,
            "first": queries[0],
            "rest": queries[1:],
            "marks": m,
            "slowdown": self.speed.slowdown(t_spawn, m["t_sweep_end"]),
            "scale": seconds(t_spawn, m["t_sweep_end"]) / (m["t_sweep_end"] - t_spawn),
            "raw_import": m["t_imported"] - t_spawn,
            "raw_wall": m["t_sweep_end"] - t_spawn,
        }
        return sample, len(plan), wrong

    def expected_at(self, threshold: int) -> str:
        if threshold not in self.answers:
            if threshold < self.reference_lo:
                raise RunFailed("threshold %d below the reference" % threshold)
            self.answers[threshold] = mfs_digest(maximal_at(self.reference, threshold))
            pinned = self.pins.get("session", {}).get("thresholds", {})
            pin = pinned.get(str(threshold))
            if self.labels.get("reference") == "pinned" and pin and pin != self.answers[threshold]:
                raise RunFailed("derived answer at %d disagrees with its pin" % threshold)
        return self.answers[threshold]

    def run_session(self) -> dict:
        self.reference, self.reference_lo = self.session_reference()
        self.answers = {}
        probes, plain, traced = self.measure(
            lambda: self.session(queries=1),
            lambda: self.session(queries=0),
            self.session,
        )
        self.samples = {"sessions": len(plain), "probes": len(probes), "traced": len(traced)}
        if self.args.trace:
            return self.layer_metrics(plain, traced)
        # the cold first query is first_query_s; the warm rest are pooled
        rest = [q for s in plain for q in s["rest"]]
        setups = [s["setup"] for s in probes + plain]
        firsts = [s["first"] for s in plain]
        n = len(plain)
        return {
            "wall_s": (statistics.median(s["wall"] for s in plain), "s", n),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (statistics.median(s["rss"] for s in plain), "MB", n),
            "first_query_s": (statistics.median(firsts), "s", len(firsts)),
            "query_p50_s": (statistics.median(rest), "s", len(rest)),
            "query_p90_s": (percentile(rest, 0.9), "s", len(rest)),
        }

    # -- the traced run ------------------------------------------------

    def layer_metrics(self, plain, traced) -> dict:
        """Per-layer medians over traced samples, plus trace health."""
        session = self.spec["kind"] == "session"
        rows = []
        for sample in traced:
            m = sample["marks"]
            trace = m["trace"]
            # every time below is in reference seconds: raw times scaled
            # by the process's reference seconds per raw second
            scale = sample["scale"]
            self_s = {k: v * scale for k, v in trace["self_s"].items()}
            work = trace["work"]
            wall = sample["raw_wall"] * scale
            layer = lambda name: self_s.get(name, 0.0)  # noqa: E731
            teardown = (
                (m["t_released"] - m["t_main_end"]) * scale
                if "t_released" in m else 0.0
            )
            imported = sample["raw_import"] * scale
            attributed = imported + teardown + sum(
                v for k, v in self_s.items() if k not in GLUE_LAYERS
            )
            itemsets = work.get("itemsets", 0)
            count_s = layer("db.counting.count")
            load_s = layer("db.io.load")
            cache = m.get("cache", {})
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            rows.append({
                "cli.import_s": (imported, "s"),
                "db.io.load_s": (load_s, "s"),
                "db.io.rows_per_s": (sample.get("rows", 0) / load_s if load_s else 0.0, "1/s"),
                "db.snapshot.attach_s": (layer("db.snapshot.attach"), "s"),
                "db.counting.resolve_s": (layer("db.counting.resolve"), "s"),
                "db.vertical.build_s": (layer("db.vertical.build"), "s"),
                "db.counting.count_s": (count_s, "s"),
                "db.counting.passes": (work.get("passes", 0), "count"),
                "db.counting.itemsets": (itemsets, "count"),
                "db.counting.itemsets_per_s": (itemsets / count_s if count_s else 0.0, "1/s"),
                "core.kernel.generate_s": (layer("core.kernel"), "s"),
                "core.kernel.candidates": (work.get("candidates", 0), "count"),
                "core.kernel.useful_ratio": (work.get("frequent", 0) / itemsets if itemsets else 0.0, "ratio"),
                "core.mfcs.update_s": (layer("core.mfcs"), "s"),
                "core.mfcs.splits": (work.get("splits", 0), "count"),
                "core.mfcs.cover_queries": (work.get("cover_queries", 0), "count"),
                "core.mfcs.cover_node_visits": (work.get("cover_node_visits", 0), "count"),
                "core.mfcs.peak_size": (trace["peak_mfcs"], "count"),
                "core.pincer.self_s": (layer("core.pincer"), "s"),
                "core.adaptive.abandon_pass": (trace["abandon_pass"], "pass"),
                "core.session.open_s": (layer("core.session.open"), "s"),
                "core.session.self_s": (layer("core.session"), "s"),
                "core.session.warm_ratio": (m["warm_queries"] / m["queries"] if session and m["queries"] else 0.0, "ratio"),
                "core.supportcache.hit_ratio": (cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
                "core.supportcache.lookup_s": (layer("core.supportcache.lookup"), "s"),
                "cli.output_s": (layer("cli.output"), "s"),
                "cli.teardown_s": (teardown, "s"),
                "cli.glue_s": (wall - attributed, "s"),
                "trace.wall_s": (wall, "s"),
                "trace.attributed_fraction": (attributed / wall, "ratio"),
                "host.slowdown": (sample["slowdown"], "ratio"),
            })
        n = len(traced)
        metrics = {
            name: (statistics.median(r[name][0] for r in rows), rows[0][name][1], n)
            for name in rows[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(s["wall"] for s in traced)
            - statistics.median(s["wall"] for s in plain),
            "s",
            n,
        )
        return metrics

    # -- driver --------------------------------------------------------

    def run(self) -> int:
        try:
            with SpeedProbe() as self.speed:
                self.prepare()
                if self.spec["kind"] == "session":
                    metrics = self.run_session()
                else:
                    metrics = self.run_oneshot()
        except RunFailed as exc:
            sys.stderr.write("perfbench: %s\n" % exc)
            for problem in self.problems:
                sys.stderr.write("  %s\n" % problem)
            return 1
        baseline = self.pins.get("engine", {}).get(self.args.workload)
        self.labels.update(
            workload=self.args.workload,
            seed=self.args.seed,
            trace=self.args.trace,
            seconds=self.args.seconds,
            samples=self.samples,
            host={
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": self.labels.pop("numpy", None),
                "machine": platform.machine(),
            },
            baseline_engine=baseline,
            engine_changed=bool(baseline) and baseline != self.labels.get("engine"),
        )
        if self.labels["engine_changed"]:
            sys.stdout.write(
                "WARNING: engine resolved to %s, baseline is %s; compare as an "
                "engine change, not as noise\n" % (self.labels.get("engine"), baseline)
            )
        for problem in self.problems:
            sys.stdout.write("problem: %s\n" % problem)
        for name, (value, unit, n) in metrics.items():
            sys.stdout.write("%-30s %14.6f %-6s samples=%d\n" % (name, value, unit, n))
        sys.stdout.write("record: %s\n" % json.dumps(self.labels, sort_keys=True))
        result = {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in metrics.items()
            },
        }
        sys.stdout.write(json.dumps(result) + "\n")
        return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="row permutation and query mix seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quest-seed", type=int, default=0,
                        help="pincer generate --seed (pins exist for 0)")
    parser.add_argument("--transactions", type=int, default=None,
                        help="override |D| (smoke tests); default: the name's")
    parser.add_argument("--queries", type=int, default=None,
                        help="override queries per session (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.stderr.write(
            "perfbench: %s has no program source (src/repro); run from a "
            "checkout of the repository\n" % ROOT
        )
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return Bench(args, run_dir).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
