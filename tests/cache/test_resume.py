"""Integration tests: cached replication, sweep checkpoint/resume, CLI.

The contract under test: a warm cache serves bit-identical results, an
interrupted sweep leaves its completed cells behind, and re-running the
same command recomputes only the missing cells.
"""

from __future__ import annotations

import json

import pytest

from repro.adversaries.blocking import EpochTargetJammer, QBlockingJammer
from repro.cache.store import CacheStore
from repro.cli import main as cli_main
from repro.experiments.registry import RunConfig
from repro.experiments.runner import mc_replicate, replicate, sweep_epoch_targets
from repro.multichannel import CZBroadcast, CZParams, FractionJammer
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams
from repro.store import run_result_to_dict

pytestmark = pytest.mark.cache

PARAMS = OneToOneParams.sim()
T1 = PARAMS.first_epoch + 2
T2 = PARAMS.first_epoch + 4


class FlakyJammer(EpochTargetJammer):
    """Test-only jammer with a runtime kill switch.

    ``BOOM_TARGETS`` is class state, invisible to ``vars(instance)`` and
    therefore to the fingerprint — exactly like an external fault
    (OOM kill, ctrl-C): the task's identity is unchanged, only its
    execution is interrupted.
    """

    BOOM_TARGETS: frozenset = frozenset()

    def plan_phase(self, ctx):
        if self.target_epoch in self.BOOM_TARGETS:
            raise RuntimeError("boom")
        return super().plan_phase(ctx)


def cache_config(tmp_path, **kw) -> RunConfig:
    return RunConfig(cache=True, cache_dir=tmp_path / "cache", **kw)


def snapshots(results) -> list[str]:
    return [json.dumps(run_result_to_dict(r), sort_keys=True) for r in results]


def run_replicate(config, n_reps=4, **sim_kwargs):
    return replicate(
        lambda: OneToOneBroadcast(PARAMS),
        lambda: EpochTargetJammer(T1, q=1.0, target_listener=True),
        n_reps,
        seed=3,
        config=config,
        **sim_kwargs,
    )


class TestReplicateCache:
    def test_warm_run_bit_identical(self, tmp_path):
        cold_cfg = cache_config(tmp_path)
        cold = run_replicate(cold_cfg)
        assert cold_cfg.stats.cache_hits == 0
        assert cold_cfg.stats.cache_misses == 4
        assert cold_cfg.stats.cache_bytes_written > 0

        warm_cfg = cache_config(tmp_path)
        warm = run_replicate(warm_cfg)
        assert warm_cfg.stats.cache_hits == 4
        assert warm_cfg.stats.cache_misses == 0
        assert warm_cfg.stats.cache_hit_rate == 1.0
        assert snapshots(warm) == snapshots(cold)

    def test_no_resume_recomputes_but_refreshes(self, tmp_path):
        cold = run_replicate(cache_config(tmp_path))
        fresh_cfg = cache_config(tmp_path, resume=False)
        fresh = run_replicate(fresh_cfg)
        assert fresh_cfg.stats.cache_hits == 0
        assert fresh_cfg.stats.cache_misses == 4
        assert snapshots(fresh) == snapshots(cold)
        # ... and the refreshed entries still serve.
        warm_cfg = cache_config(tmp_path)
        run_replicate(warm_cfg)
        assert warm_cfg.stats.cache_hits == 4

    def test_uncacheable_adversary_bypasses(self, tmp_path):
        config = cache_config(tmp_path)
        results = replicate(
            lambda: OneToOneBroadcast(PARAMS),
            # The lambda predicate has no canonical form: must run
            # uncached, not crash and not poison the cache.
            lambda: QBlockingJammer(1.0, predicate=lambda tags: True),
            2,
            seed=3,
            config=config,
        )
        assert len(results) == 2
        assert config.stats.cache_requests == 0

    def test_history_runs_bypass(self, tmp_path):
        config = cache_config(tmp_path)
        results = run_replicate(config, n_reps=2, keep_history=True)
        assert all(r.phase_history for r in results)
        assert config.stats.cache_requests == 0

    def test_parallel_jobs_share_cache(self, tmp_path):
        cold = run_replicate(cache_config(tmp_path, jobs=2))
        warm_cfg = cache_config(tmp_path)  # serial warm read
        warm = run_replicate(warm_cfg)
        assert warm_cfg.stats.cache_hits == 4
        assert snapshots(warm) == snapshots(cold)


class TestTaskKeysPinned:
    """A cache written by an earlier build must keep hitting: these are
    the recorded ``task_key`` digests of one ``replicate`` and one
    ``mc_replicate`` task.  A change that moves them invalidates every
    stored entry and should bump the engine version instead."""

    def test_replicate_key(self, tmp_path):
        run_replicate(cache_config(tmp_path, experiment="TKEY"), n_reps=1)
        assert CacheStore(tmp_path / "cache").get(
            "c34ddb9b9b9a4c0c1dc37d33e280fd1236fce96608f6dbcce96575a41fb85054"
        ) is not None

    def test_mc_replicate_key(self, tmp_path):
        mc_replicate(
            lambda: CZBroadcast(CZParams.sim(n_nodes=8, n_channels=2)),
            lambda: FractionJammer(0.2, max_total=500),
            1,
            seed=3,
            n_channels=2,
            config=cache_config(tmp_path, experiment="TKEY"),
        )
        assert CacheStore(tmp_path / "cache").get(
            "7fb02703dbafa59692e3af2cce1aa9463e64044fb22f01cbd494c4c231c541bd"
        ) is not None


def run_sweep(config, targets):
    return sweep_epoch_targets(
        lambda: OneToOneBroadcast(PARAMS),
        lambda t: EpochTargetJammer(t, q=1.0, target_listener=True),
        targets,
        n_reps=3,
        seed=5,
        config=config,
    )


class TestSweepResume:
    def test_only_missing_cells_recomputed(self, tmp_path):
        run_sweep(cache_config(tmp_path), [T1])
        grown_cfg = cache_config(tmp_path)
        run_sweep(grown_cfg, [T1, T2])
        assert grown_cfg.stats.cache_hits == 3  # all of T1
        assert grown_cfg.stats.cache_misses == 3  # all of T2

    @staticmethod
    def abort_then_resume(tmp_path, batch):
        def flaky_sweep(config):
            return sweep_epoch_targets(
                lambda: OneToOneBroadcast(PARAMS),
                lambda t: FlakyJammer(t, q=1.0, target_listener=True),
                [T1, T2],
                n_reps=3,
                seed=5,
                config=config,
            )

        FlakyJammer.BOOM_TARGETS = frozenset({T2})
        try:
            with pytest.raises(Exception, match="boom"):
                flaky_sweep(cache_config(tmp_path, batch=batch))
        finally:
            FlakyJammer.BOOM_TARGETS = frozenset()

        # The T1 cells completed before the abort and were checkpointed;
        # the re-run serves them warm and computes only T2.
        resumed_cfg = cache_config(tmp_path, batch=batch)
        points = flaky_sweep(resumed_cfg)
        assert len(points) == 2
        assert resumed_cfg.stats.cache_hits == 3
        assert resumed_cfg.stats.cache_misses == 3

    def test_aborted_sweep_resumes(self, tmp_path):
        # The checkpoint unit is the group; one-trial groups checkpoint
        # every T1 trial before the first T2 trial raises.
        self.abort_then_resume(tmp_path, batch=1)

    def test_aborted_sweep_resumes_from_lockstep_groups(self, tmp_path):
        # Groups of 3 line up with the two 3-trial cells: the T1 group
        # is checkpointed before the T2 group raises.  The T2 group
        # plays the lockstep loop, which must plan FlakyJammer through
        # its own plan_phase, not EpochTargetJammer.plan_phase_batch.
        self.abort_then_resume(tmp_path, batch=3)

    def test_sweep_results_bit_identical(self, tmp_path):
        cold = run_sweep(cache_config(tmp_path), [T1, T2])
        warm_cfg = cache_config(tmp_path)
        warm = run_sweep(warm_cfg, [T1, T2])
        assert warm_cfg.stats.cache_hit_rate == 1.0
        assert warm == cold  # SweepPoint dataclasses compare by value


class TestCliCache:
    def test_cold_vs_warm_byte_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "E1", "--seed", "11", "--cache", "--cache-dir", cache_dir]
        assert cli_main(argv + ["--save", str(tmp_path / "cold")]) == 0
        cold_out = capsys.readouterr().out
        assert "(0%" in cold_out
        assert cli_main(argv + ["--save", str(tmp_path / "warm")]) == 0
        warm_out = capsys.readouterr().out
        assert "(100%" in warm_out
        cold = (tmp_path / "cold" / "E1.json").read_bytes()
        warm = (tmp_path / "warm" / "E1.json").read_bytes()
        assert cold == warm

    def test_cache_maintenance_commands(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(
            ["run", "E1", "--cache", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "unique keys" in capsys.readouterr().out
        assert cli_main(
            ["cache", "gc", "--cache-dir", cache_dir, "--max-bytes", "1K"]
        ) == 0
        assert "freed" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out
