"""Unit tests for the telemetry readers (find/resolve, summarize, tail)."""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    TelemetrySink,
    find_runs,
    latest_run,
    read_events,
    resolve_run,
    summarize,
    tail,
)

pytestmark = pytest.mark.telemetry


def make_run(root, name):
    sink = TelemetrySink(root / name)
    sink.write_manifest(command="run", seed=7)
    return sink


class TestRunDiscovery:
    def test_find_runs_sorted_oldest_first(self, tmp_path):
        for name in ("20260101T000000-1", "20250101T000000-1"):
            make_run(tmp_path, name)
        (tmp_path / "not-a-run").mkdir()  # no manifest/events: ignored
        assert [p.name for p in find_runs(tmp_path)] == [
            "20250101T000000-1", "20260101T000000-1",
        ]

    def test_latest_run(self, tmp_path):
        make_run(tmp_path, "20250101T000000-1")
        make_run(tmp_path, "20260101T000000-1")
        assert latest_run(tmp_path).name == "20260101T000000-1"

    def test_latest_run_raises_when_empty(self, tmp_path):
        with pytest.raises(TelemetryError, match="no telemetry runs"):
            latest_run(tmp_path)

    def test_latest_run_accepts_a_run_dir_itself(self, tmp_path):
        # bound_session layouts (e.g. a service job's
        # <telemetry_root>/<job_id>) have no run subdirectory: the
        # given dir IS the run, and --dir must resolve it as such.
        run = make_run(tmp_path, "20250101T000000-1").run_dir
        assert latest_run(run) == run
        assert resolve_run(None, run) == run

    def test_resolve_run_variants(self, tmp_path):
        run = make_run(tmp_path, "20250101T000000-1").run_dir
        assert resolve_run(None, tmp_path) == run  # latest
        assert resolve_run("20250101T000000-1", tmp_path) == run  # id
        assert resolve_run(str(run), tmp_path / "elsewhere") == run  # path
        with pytest.raises(TelemetryError, match="no telemetry run"):
            resolve_run("nope", tmp_path)


class TestReadEvents:
    def test_torn_trailing_line_skipped(self, tmp_path):
        sink = make_run(tmp_path, "r")
        sink.counter("hits")
        with open(sink.events_path, "ab") as fh:
            fh.write(b'{"ev": "counter", "name": "torn", "val')  # killed writer
        events = read_events(sink.run_dir)
        assert [e["name"] for e in events] == ["hits"]

    def test_missing_events_file_reads_empty(self, tmp_path):
        assert read_events(make_run(tmp_path, "r").run_dir) == []


class TestSummarize:
    def test_aggregates_all_record_kinds(self, tmp_path):
        sink = make_run(tmp_path, "r")
        sink.span_event("executor.task", 0.2, outcome="ok")
        sink.span_event("executor.task", 0.4, outcome="ok")
        sink.span_event("executor.task", 0.1, outcome="timeout")
        sink.counter("cache.hits", 3)
        sink.counter("cache.hits", 2)
        sink.gauge("arena.best_index", 1.0)
        sink.gauge("arena.best_index", 2.5)
        sink.event("run.start")
        text = summarize(sink.run_dir)
        assert "=== telemetry run r" in text
        assert "command: run" in text
        assert "seed: 7" in text
        assert "8 events from 1 process(es)" in text
        assert "executor.task" in text
        assert "ok:2 timeout:1" in text
        assert "cache.hits" in text and "5" in text
        assert "arena.best_index" in text
        assert "run.start" in text

    def test_stages_table_lists_only_spans_with_stages(self, tmp_path):
        sink = make_run(tmp_path, "r")
        sink.span_event("sim.run", 0.5, stages={"resolve": 0.2, "sampling": 0.1})
        sink.span_event("sim.run", 0.5, stages={"resolve": 0.1, "sampling": 0.1})
        sink.span_event("executor.task", 0.2, outcome="ok")
        text = summarize(sink.run_dir)
        table = text.split("\nstages\n", 1)[1].split("\n\n", 1)[0]
        rows = [line.split() for line in table.splitlines()[2:]]
        # Totals per (span, stage), as a share of the span's summed dur.
        assert rows == [
            ["sim.run", "resolve", "0.300", "30.0%"],
            ["sim.run", "sampling", "0.200", "20.0%"],
        ]

    def test_empty_run(self, tmp_path):
        text = summarize(make_run(tmp_path, "r").run_dir)
        assert "(no events recorded)" in text


class TestTail:
    def test_tail_returns_last_n_compact_lines(self, tmp_path):
        sink = make_run(tmp_path, "r")
        for i in range(5):
            sink.counter("tick", i=i)
        lines = tail(sink.run_dir, n=2).splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["attrs"]["i"] for line in lines] == [3, 4]

    def test_tail_zero_is_empty(self, tmp_path):
        sink = make_run(tmp_path, "r")
        sink.counter("tick")
        assert tail(sink.run_dir, n=0) == ""
