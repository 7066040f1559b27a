"""CLI-level telemetry tests: ``--telemetry`` capture, on/off report
byte-identity, and the ``telemetry summarize|tail`` group."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.telemetry import deactivate, find_runs

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def no_leaked_sink():
    yield
    deactivate()


class TestRunWithTelemetry:
    def test_e1_report_byte_identical_on_and_off(self, tmp_path, capsys):
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        tele = tmp_path / "tele"
        assert main(["run", "E1", "--seed", "11", "--save", str(plain)]) == 0
        assert main(
            ["run", "E1", "--seed", "11", "--save", str(traced),
             "--telemetry", str(tele)]
        ) == 0
        capsys.readouterr()
        assert (plain / "E1.json").read_bytes() == (
            traced / "E1.json"
        ).read_bytes()

    def test_run_creates_manifest_and_events(self, tmp_path, capsys):
        tele = tmp_path / "tele"
        assert main(
            ["run", "E1", "--seed", "11", "--telemetry", str(tele)]
        ) == 0
        out = capsys.readouterr().out
        (run_dir,) = find_runs(tele)
        assert f"telemetry: {run_dir}" in out
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "events.jsonl").is_file()

    def test_telemetry_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "envtele"))
        # Bare --telemetry (no DIR value) falls back to the env root.
        assert main(["run", "E1", "--seed", "11", "--telemetry"]) == 0
        capsys.readouterr()
        assert len(find_runs(tmp_path / "envtele")) == 1


class TestTelemetryCommand:
    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        # One-trial groups: every trial takes the scalar loop, whose
        # spans are ``sim.run``.
        tele = tmp_path / "tele"
        main(
            ["run", "E1", "--seed", "11", "--batch", "1",
             "--telemetry", str(tele)]
        )
        capsys.readouterr()
        return tele

    def test_summarize_latest(self, recorded, capsys):
        assert main(["telemetry", "summarize", "--dir", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "=== telemetry run" in out
        assert "command: run" in out
        assert "seed: 11" in out
        assert "executor.task" in out
        assert "sim.run" in out
        assert any(  # the engine's stage split, as a stages-table row
            line.split()[:2] == ["sim.run", "resolve"]
            for line in out.splitlines()
        )
        assert "experiment.run" in out
        assert "run.start" in out

    def test_summarize_default_batch_shows_lockstep_stages(
        self, tmp_path, capsys
    ):
        tele = tmp_path / "tele"
        assert main(
            ["run", "E1", "--seed", "11", "--telemetry", str(tele)]
        ) == 0
        assert main(["telemetry", "summarize", "--dir", str(tele)]) == 0
        out = capsys.readouterr().out
        assert any(  # E1's one lockstep group, as a stages-table row
            line.split()[:2] == ["sim.run_batch", "resolve"]
            for line in out.splitlines()
        )

    def test_summarize_specific_run_id(self, recorded, capsys):
        (run_dir,) = find_runs(recorded)
        assert main(
            ["telemetry", "summarize", run_dir.name, "--dir", str(recorded)]
        ) == 0
        assert f"=== telemetry run {run_dir.name}" in capsys.readouterr().out

    def test_tail(self, recorded, capsys):
        assert main(
            ["telemetry", "tail", "--dir", str(recorded), "-n", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert '"ev":' in lines[-1]

    def test_summarize_without_runs_fails_cleanly(self, tmp_path, capsys):
        rc = main(["telemetry", "summarize", "--dir", str(tmp_path / "none")])
        assert rc != 0
        assert "no telemetry runs" in capsys.readouterr().err
