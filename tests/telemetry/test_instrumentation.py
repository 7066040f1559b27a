"""Instrumentation-site coverage: each subsystem emits what it claims.

Every test runs the real subsystem under an active sink and checks the
advertised records land — and, where it matters, that enabling the sink
does not change the science (bit-identical results on/off).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries import SilentAdversary
from repro.arena.search import evolve, random_search
from repro.arena.space import StrategySpace, protocol_factory
from repro.engine.simulator import run
from repro.experiments import RunConfig, run_experiment
from repro.experiments.runner import replicate
from repro.protocols import OneToOneBroadcast, OneToOneParams
from repro.telemetry import deactivate, read_events, session

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def no_leaked_sink():
    yield
    deactivate()


def events_named(run_dir, name):
    return [e for e in read_events(run_dir) if e["name"] == name]


class TestSimulatorSpans:
    def test_sim_run_span_emitted(self, tmp_path):
        with session(tmp_path) as sink:
            result = run(
                OneToOneBroadcast(OneToOneParams.sim()),
                SilentAdversary(), seed=7,
            )
        (span,) = events_named(sink.run_dir, "sim.run")
        assert span["ev"] == "span"
        assert span["attrs"]["phases"] == result.phases
        assert span["attrs"]["slots"] == result.slots
        assert span["attrs"]["events"] >= 0
        expected = round(span["attrs"]["events"] / result.slots, 6)
        assert span["attrs"]["events_per_slot"] == expected

    def test_results_identical_with_and_without_sink(self, tmp_path):
        plain = run(
            OneToOneBroadcast(OneToOneParams.sim()), SilentAdversary(), seed=7
        )
        with session(tmp_path):
            traced = run(
                OneToOneBroadcast(OneToOneParams.sim()),
                SilentAdversary(), seed=7,
            )
        assert np.array_equal(plain.node_costs, traced.node_costs)
        assert plain.adversary_cost == traced.adversary_cost
        assert plain.slots == traced.slots


class TestCacheTelemetry:
    def _replicate(self, tmp_path):
        return replicate(
            lambda: OneToOneBroadcast(OneToOneParams.sim()),
            SilentAdversary,
            3,
            seed=0,
            config=RunConfig(cache=True, cache_dir=tmp_path / "cache"),
        )

    def test_miss_then_hit_counters_and_put_spans(self, tmp_path):
        with session(tmp_path / "tele") as sink:
            self._replicate(tmp_path)  # all misses
            self._replicate(tmp_path)  # all hits
        events = read_events(sink.run_dir)
        counters = {}
        for e in events:
            if e["ev"] == "counter":
                counters[e["name"]] = counters.get(e["name"], 0) + e["value"]
        assert counters["cache.misses"] == 3
        assert counters["cache.hits"] == 3
        assert counters["cache.bytes_written"] > 0
        assert counters["cache.bytes_read"] > 0
        assert len(events_named(sink.run_dir, "cache.put")) == 3
        get_spans = events_named(sink.run_dir, "cache.get_many")
        assert [s["attrs"]["hits"] for s in get_spans] == [0, 3]


class TestExperimentTelemetry:
    def test_run_experiment_opens_scoped_session(self, tmp_path, capsys):
        cfg = RunConfig(seed=5, quick=True, telemetry=tmp_path)
        run_experiment("E1", cfg)
        capsys.readouterr()
        runs = sorted(tmp_path.iterdir())
        assert len(runs) == 1
        (span,) = events_named(runs[0], "experiment.run")
        assert span["attrs"]["eid"] == "E1"
        assert span["attrs"]["seed"] == 5
        assert span["attrs"]["config_fingerprint"] == cfg.fingerprint()
        names = [e["name"] for e in read_events(runs[0])]
        assert names[0] == "run.start" and names[-1] == "run.end"

    def test_fingerprint_covers_science_fields_only(self):
        base = RunConfig(seed=5, quick=True)
        assert base.fingerprint() == RunConfig(
            seed=5, quick=True, jobs=8, telemetry="/tmp/x"
        ).fingerprint()
        assert base.fingerprint() != RunConfig(seed=6, quick=True).fingerprint()
        assert base.fingerprint() != RunConfig(seed=5, quick=False).fingerprint()


SPACE = StrategySpace(families=["suffix", "random"], budget_log2=(8, 10))
FIG1 = protocol_factory("fig1")


class TestArenaTelemetry:
    def test_random_search_gauge(self, tmp_path):
        with session(tmp_path) as sink:
            result = random_search(
                SPACE, FIG1, iterations=3, n_reps=1, seed=21
            )
        (gauge,) = events_named(sink.run_dir, "arena.best_index")
        assert gauge["value"] == result.best.index
        assert gauge["attrs"]["algo"] == "random"
        assert gauge["attrs"]["evaluated"] == result.n_evaluated

    def test_evolve_gauge_per_generation(self, tmp_path):
        with session(tmp_path) as sink:
            result = evolve(
                SPACE, FIG1,
                generations=2, population=3, n_reps=1, seed=5,
            )
        gauges = events_named(sink.run_dir, "arena.best_index")
        assert [g["attrs"]["generation"] for g in gauges] == [0, 1]
        assert [g["value"] for g in gauges] == result.history
