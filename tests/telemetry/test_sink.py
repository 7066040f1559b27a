"""Unit tests for the telemetry event sink and its activation lifecycle.

The sink's contract: append-only JSONL with monotonic ``t`` offsets and
the writing ``pid``, locked appends that survive forked workers, a
manifest stamped with enough environment to re-run the experiment, and
a disabled path that is exactly one ``get_sink() is None`` check.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.telemetry.sink as sink_mod
from repro.engine.executor import run_tasks
from repro.errors import TelemetryError
from repro.telemetry import (
    TELEMETRY_DIR_ENV,
    TELEMETRY_SCHEMA,
    TelemetrySink,
    activate,
    deactivate,
    default_telemetry_dir,
    get_sink,
    read_events,
    read_manifest,
    session,
)

pytestmark = pytest.mark.telemetry

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs os.fork"
)


@pytest.fixture(autouse=True)
def no_leaked_sink():
    yield
    deactivate()


class TestSinkRecords:
    def test_disabled_by_default(self):
        assert get_sink() is None

    def test_emit_stamps_offset_and_pid(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        sink.emit({"ev": "event", "name": "x", "attrs": {}})
        (record,) = read_events(tmp_path / "run")
        assert record["pid"] == os.getpid()
        assert record["t"] >= 0.0

    def test_typed_record_shapes(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        sink.span_event("work", 0.25, outcome="ok")
        sink.counter("hits", 3, shard=1)
        sink.gauge("fitness", 1.5, generation=0)
        sink.event("spawned", worker_pid=1234)
        span, counter, gauge, event = read_events(tmp_path / "run")
        assert (span["ev"], span["name"], span["dur"]) == ("span", "work", 0.25)
        assert span["attrs"] == {"outcome": "ok"}
        assert (counter["ev"], counter["value"]) == ("counter", 3)
        assert (gauge["ev"], gauge["value"]) == ("gauge", 1.5)
        assert (event["ev"], event["attrs"]) == (
            "event", {"worker_pid": 1234}
        )

    def test_span_context_manager_measures(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        with sink.span("body", tag="t"):
            pass
        (record,) = read_events(tmp_path / "run")
        assert record["name"] == "body"
        assert record["dur"] >= 0.0
        assert record["attrs"] == {"tag": "t"}

    def test_timestamps_are_monotone_in_append_order(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        for i in range(5):
            sink.counter("tick")
        offsets = [e["t"] for e in read_events(tmp_path / "run")]
        assert offsets == sorted(offsets)

    def test_emit_after_torn_tail_is_kept(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        sink.events_path.write_bytes(b'{"ev": "span", "name": "cut')
        sink.event("after")
        assert [e["name"] for e in read_events(tmp_path / "run")] == ["after"]

    def test_append_without_fcntl(self, tmp_path, monkeypatch):
        import repro.locking as locking

        monkeypatch.setattr(locking, "fcntl", None)
        sink = TelemetrySink(tmp_path / "run")
        sink.counter("hits")
        sink.counter("hits")
        assert len(read_events(tmp_path / "run")) == 2
        assert list(tmp_path.rglob("*.lock")) == []


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        sink = TelemetrySink(tmp_path / "run")
        manifest = sink.write_manifest(seed=11, experiments=["E1"])
        on_disk = read_manifest(tmp_path / "run")
        assert on_disk == json.loads(json.dumps(manifest, default=str))
        assert on_disk["telemetry_schema"] == TELEMETRY_SCHEMA
        assert on_disk["run_id"] == "run"
        assert on_disk["seed"] == 11
        assert on_disk["experiments"] == ["E1"]
        assert on_disk["host"]["cpus"] >= 1
        assert isinstance(on_disk["argv"], list)
        assert "engine_version" in on_disk

    def test_missing_manifest_reads_empty(self, tmp_path):
        assert read_manifest(tmp_path) == {}


class TestActivation:
    def test_activate_deactivate_lifecycle(self, tmp_path):
        sink = activate(tmp_path, manifest={"seed": 3})
        assert get_sink() is sink
        assert sink.run_dir.parent == tmp_path
        deactivate()
        assert get_sink() is None
        names = [e["name"] for e in read_events(sink.run_dir)]
        assert names[0] == "run.start"
        assert names[-1] == "run.end"
        assert read_manifest(sink.run_dir)["seed"] == 3

    def test_reactivation_closes_previous_run(self, tmp_path):
        first = activate(tmp_path)
        second = activate(tmp_path)
        assert get_sink() is second
        assert first.run_dir != second.run_dir
        assert [e["name"] for e in read_events(first.run_dir)][-1] == "run.end"

    def test_session_context_manager(self, tmp_path):
        with session(tmp_path) as sink:
            assert get_sink() is sink
        assert get_sink() is None

    def test_default_dir_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path / "tele"))
        assert default_telemetry_dir() == tmp_path / "tele"
        monkeypatch.delenv(TELEMETRY_DIR_ENV)
        assert default_telemetry_dir().name == ".repro-telemetry"

    def test_run_dir_collision_gets_suffix(self, tmp_path, monkeypatch):
        # Two activations inside the same second (same pid) must land
        # in distinct directories.
        a = sink_mod._new_run_dir(tmp_path)
        monkeypatch.setattr(
            sink_mod.time, "strftime", lambda *args: a.name.rsplit("-", 1)[0]
        )
        b = sink_mod._new_run_dir(tmp_path)
        assert a != b and b.is_dir()

    def test_run_dir_exhaustion_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sink_mod.time, "strftime", lambda *args: "fixed")
        base = f"fixed-{os.getpid()}"
        (tmp_path / base).mkdir()
        for k in range(2, 100):
            (tmp_path / f"{base}-{k}").mkdir()
        with pytest.raises(TelemetryError, match="run directory"):
            sink_mod._new_run_dir(tmp_path)


@needs_fork
class TestForkedWriters:
    def test_workers_append_to_the_same_log(self, tmp_path):
        with session(tmp_path) as sink:
            def make(i):
                def task():
                    s = get_sink()
                    s.counter("worker.tick", task=i)
                    return i
                return task

            results = run_tasks([make(i) for i in range(8)], jobs=2)
        assert results == list(range(8))
        events = read_events(sink.run_dir)
        ticks = [e for e in events if e["name"] == "worker.tick"]
        assert len(ticks) == 8  # locked appends: no torn/lost lines
        assert sorted(e["attrs"]["task"] for e in ticks) == list(range(8))
        assert len({e["pid"] for e in ticks} - {os.getpid()}) >= 1
        # Executor instrumentation rode along on the parent side.
        names = {e["name"] for e in events}
        assert "executor.batch" in names
        assert "executor.worker.spawn" in names
        assert "executor.worker.exit" in names
