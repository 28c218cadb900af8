"""End-to-end observability tests: miners, engines, CLI, and bench.

The acceptance contract of the observability layer: a traced run emits a
schema-valid JSONL span tree covering every pass, with per-pass candidate
totals exactly matching the run's :class:`~repro.core.stats.MiningStats`;
sharded runs report per-shard timings and a correct aggregated
``records_read``.
"""

import json
import logging
import os

import pytest

from repro.cli import main
from repro.core.pincer import PincerSearch
from repro.db import io
from repro.db.counting import get_counter
from repro.db.parallel import ShardedCounter
from repro.db.transaction_db import TransactionDatabase
from repro.obs import (
    capture,
    configure_logging,
    validate_metrics_file,
    validate_trace_file,
)

TRANSACTIONS = [
    [1, 2, 3, 4], [1, 2, 3], [1, 2, 3], [1, 2], [2, 3], [1, 3],
    [3, 4], [4, 5], [1, 2, 3, 5],
] * 5


def read_trace(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def spans_named(events, *names):
    return [
        event for event in events
        if event["type"] == "span" and event["name"] in names
    ]


class TestTraceMatchesStats:
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_pass_spans_cover_every_pass(self, tmp_path, adaptive):
        db = TransactionDatabase(TRANSACTIONS)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        result = PincerSearch(adaptive=adaptive).mine(db, 0.25, obs=obs)
        obs.finish()

        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)

        # exactly one root run span, carrying the run totals
        (run,) = spans_named(events, "run")
        assert run["parent"] is None
        assert run["attrs"]["passes"] == result.stats.num_passes
        assert run["attrs"]["total_candidates"] == result.stats.total_candidates
        assert run["attrs"]["records_read"] == result.stats.records_read
        assert run["attrs"]["mfs_size"] == len(result.mfs)

        # pass/sweep spans that counted anything match MiningStats exactly
        counted = [
            (event["attrs"]["pass_number"], event["attrs"]["total_candidates"])
            for event in spans_named(events, "pass", "sweep")
            if event["attrs"].get("total_candidates", 0) > 0
        ]
        expected = [
            (stats.pass_number, stats.total_candidates)
            for stats in result.stats.passes
        ]
        assert sorted(counted) == sorted(expected)
        assert len(counted) == result.stats.num_passes

        # every pass/sweep span hangs off the run span
        for event in spans_named(events, "pass", "sweep"):
            assert event["parent"] == run["span"]

    def test_engine_count_spans_nest_under_passes(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        PincerSearch(adaptive=True).mine(db, 0.25, obs=obs)
        obs.finish()
        events = read_trace(trace_path)
        by_id = {
            event["span"]: event
            for event in events if event["type"] == "span"
        }
        counts = spans_named(events, "count")
        assert counts
        for event in counts:
            assert by_id[event["parent"]]["name"] in ("pass", "sweep")
            assert event["attrs"]["batch_size"] > 0

    def test_metrics_agree_with_stats(self, tmp_path):
        from repro.datagen.configs import SCATTERED, scaled
        from repro.datagen.quest import generate

        # the toy database keeps its MFCS; the scattered one abandons it
        # at pass 2 and finishes with completion-sweep passes
        cases = [
            (TransactionDatabase(TRANSACTIONS), 0.25, None),
            (generate(scaled(SCATTERED["T10.I4.D100K"], 3000)), 0.01, 2),
        ]
        for index, (db, support, abandon_pass) in enumerate(cases):
            metrics_path = str(tmp_path / ("m%d.json" % index))
            obs = capture(metrics_path=metrics_path)
            result = PincerSearch(adaptive=True).mine(db, support, obs=obs)
            obs.finish()
            assert result.stats.abandon_pass == abandon_pass
            validate_metrics_file(metrics_path)
            with open(metrics_path) as handle:
                document = json.load(handle)
            counters = document["counters"]
            assert counters["miner.runs"] == 1
            assert (
                counters["miner.candidates.bottom_up"]
                + counters["miner.candidates.mfcs"]
                == result.stats.total_candidates
            )
            assert counters["miner.frequent_found"] == sum(
                stats.frequent_found for stats in result.stats.passes
            )
            assert counters["engine.records_read"] == result.stats.records_read
            assert document["gauges"]["miner.mfs_size"] == len(result.mfs)

    def test_mfcs_cover_query_counters_emitted(self, tmp_path):
        """The MFCS sub-linearity signal must survive to the metrics doc.

        ``mfcs.cover_node_visits / mfcs.cover_queries`` is the regression
        guard for the cover-index early exits: a full scan would pay
        roughly one visit per member item bitmap, so the mean visits per
        query must stay a small constant.
        """
        db = TransactionDatabase(TRANSACTIONS)
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        # pin the bitmask kernel: only the mask-native cover tracks the
        # query/visit counters this test guards
        PincerSearch(adaptive=True, kernel="bitmask").mine(db, 0.25, obs=obs)
        obs.finish()
        with open(metrics_path) as handle:
            document = json.load(handle)
        counters = document["counters"]
        assert counters["mfcs.cover_queries"] > 0
        assert counters["mfcs.cover_node_visits"] > 0
        mean_visits = (
            counters["mfcs.cover_node_visits"] / counters["mfcs.cover_queries"]
        )
        assert mean_visits <= 24

    def test_prefix_cache_metrics_emitted(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        PincerSearch(adaptive=True).mine(
            db, 0.25, counter=get_counter("bitmap"), obs=obs
        )
        obs.finish()
        with open(metrics_path) as handle:
            document = json.load(handle)
        assert document["counters"]["prefix_cache.misses"] > 0
        assert document["gauges"]["engine.prefix_cache.size"] > 0


class TestShardedObservability:
    def test_records_read_matches_serial_engine(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        serial = PincerSearch(adaptive=True).mine(
            db, 0.25, counter=get_counter("bitmap")
        )
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        with ShardedCounter(num_shards=3) as counter:
            sharded = PincerSearch(adaptive=True).mine(
                db, 0.25, counter=counter, obs=obs
            )
            shard_seconds = list(counter.last_shard_seconds)
        obs.finish()

        assert sharded.mfs == serial.mfs
        # the satellite fix: per-shard reports aggregate to the exact
        # serial figure (len(db) records per pass, every pass)
        assert sharded.stats.records_read == serial.stats.records_read
        assert (
            sharded.stats.records_read
            == len(db) * sharded.stats.num_passes
        )
        assert len(shard_seconds) == 3
        assert all(seconds >= 0.0 for seconds in shard_seconds)

        validate_metrics_file(metrics_path)
        with open(metrics_path) as handle:
            document = json.load(handle)
        assert document["gauges"]["shard.count"] == 3
        worker_seconds = document["histograms"]["shard.worker_seconds"]
        assert worker_seconds["count"] == 3 * sharded.stats.num_passes
        assert document["gauges"]["shard.last_pass_max_seconds"] >= 0


class TestCliObservability:
    @pytest.fixture()
    def basket_file(self, tmp_path):
        path = tmp_path / "toy.dat"
        io.save(TransactionDatabase(TRANSACTIONS), path)
        return str(path)

    def test_mine_writes_schema_valid_trace_and_metrics(
        self, basket_file, tmp_path, capsys
    ):
        trace_path = str(tmp_path / "run.jsonl")
        metrics_path = str(tmp_path / "m.json")
        code = main([
            "mine", basket_file, "--min-support", "25",
            "--trace", trace_path, "--metrics-out", metrics_path,
        ])
        assert code == 0
        assert "maximum frequent set" in capsys.readouterr().out
        assert validate_trace_file(trace_path) > 0
        validate_metrics_file(metrics_path)
        events = read_trace(trace_path)
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"command", "run", "pass", "count"} <= names
        # the CLI's command span is the root of everything
        (command,) = spans_named(events, "command")
        assert command["parent"] is None
        (run,) = spans_named(events, "run")
        assert run["parent"] == command["span"]

    def test_mine_log_level_prints_run_summary(self, basket_file, capsys):
        try:
            code = main([
                "mine", basket_file, "--min-support", "25",
                "--log-level", "debug",
            ])
        finally:
            # --log-level configures the process-wide 'repro' logger;
            # quiet it again so later tests are unaffected
            configure_logging(logging.WARNING)
            logging.getLogger("repro").setLevel(logging.WARNING)
        assert code == 0
        assert "repro.core.pincer" in capsys.readouterr().err

    def test_bench_trace_has_sweep_and_cell_spans(self, tmp_path, capsys):
        trace_path = str(tmp_path / "bench.jsonl")
        code = main([
            "bench", "fig3-t5-i2", "--scale", "150",
            "--min-support", "8", "--trace", trace_path,
        ])
        assert code == 0
        assert "relative time" in capsys.readouterr().out
        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)
        (sweep,) = spans_named(events, "sweep")
        cells = spans_named(events, "cell")
        assert len(cells) == 2  # pincer-search and apriori
        for cell in cells:
            assert cell["parent"] == sweep["span"]
        miners = {cell["attrs"]["miner"] for cell in cells}
        assert miners == {"pincer-search", "apriori"}


class TestOverheadBenchmark:
    def test_run_overhead_benchmark_smoke(self, tmp_path):
        from repro.bench.obs_overhead import (
            run_overhead_benchmark,
            write_overhead_benchmark,
        )

        record = run_overhead_benchmark(
            database="T5.I2.D100K", min_support_percent=8.0,
            scale=300, repeats=1,
        )
        for key in (
            "count_seconds_raw", "count_seconds_guarded",
            "overhead_disabled_pct", "mine_seconds_disabled",
            "mine_seconds_enabled", "overhead_enabled_pct",
            "trace_events_per_run",
        ):
            assert key in record
        assert record["trace_events_per_run"] > 0
        out = tmp_path / "BENCH_obs.json"
        write_overhead_benchmark(str(out), record)
        assert json.loads(out.read_text())["benchmark"] == "obs-overhead"

    def test_committed_record_meets_disabled_budget(self):
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "BENCH_obs.json",
        )
        with open(path) as handle:
            record = json.load(handle)
        assert record["overhead_disabled_pct"] < 2.0
