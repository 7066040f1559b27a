"""Lockstep groups that span a sweep's cells.

The runner chunks a call's cache misses in trial order across cell
bounds, up to ``RunConfig.batch`` trials per group (the default
:data:`~repro.experiments.registry.DEFAULT_BATCH`), and with
``jobs > 1`` splits them so every worker gets a group.  Each trial keeps
its own cell's adversary, seed path and cache key, so every grouping
must give the points of one-trial groups.
"""

from __future__ import annotations

import pytest

from repro.adversaries.basic import SilentAdversary
from repro.adversaries.blocking import EpochTargetJammer
from repro.engine.simulator import Simulator
from repro.experiments import runner
from repro.experiments.registry import DEFAULT_BATCH, RunConfig
from repro.experiments.runner import replicate, sweep_epoch_targets
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

PARAMS = OneToOneParams.sim(epsilon=0.1)
# E1's quick shape: 4 jam targets x 5 reps.
TARGETS = list(range(PARAMS.first_epoch + 2, PARAMS.first_epoch + 9, 2))


def mk_protocol():
    return OneToOneBroadcast(PARAMS)


def jammer(target):
    return EpochTargetJammer(target, q=1.0, target_listener=True)


def e1_sweep(config, targets=TARGETS, make_adversary=jammer):
    return sweep_epoch_targets(
        mk_protocol, make_adversary, targets, n_reps=5, seed=7, config=config
    )


@pytest.fixture
def group_log(monkeypatch):
    """Record the adversaries of every ``run_batch`` call in this
    process, one list per group."""
    calls = []
    real = Simulator.run_batch

    def spy(self, seeds, *, adversaries=None):
        calls.append(list(adversaries))
        return real(self, seeds, adversaries=adversaries)

    monkeypatch.setattr(Simulator, "run_batch", spy)
    return calls


@pytest.fixture(scope="module")
def reference():
    """The E1-shaped sweep in one-trial groups."""
    return e1_sweep(RunConfig(batch=1))


def test_default_is_one_group_over_every_cell(reference, group_log):
    config = RunConfig()
    assert config.batch == DEFAULT_BATCH == 64
    assert e1_sweep(config) == reference
    assert config.stats.batch_tasks == 1
    assert config.stats.batch_trials == 20
    (group,) = group_log
    assert [a.target_epoch for a in group] == [
        t for t in TARGETS for _ in range(5)
    ]


def test_capped_groups_span_cells(reference, group_log):
    config = RunConfig(batch=3)
    assert e1_sweep(config) == reference
    assert config.stats.batch_tasks == 7  # 3 x 6 + 2
    assert [len(g) for g in group_log] == [3] * 6 + [2]
    spanning = [g for g in group_log if len({a.target_epoch for a in g}) > 1]
    assert spanning  # e.g. trials 3-5: two of cell 0, one of cell 1


def test_group_mixes_adversary_types(group_log):
    silent = TARGETS[1]

    def mixed(target):
        return SilentAdversary() if target == silent else jammer(target)

    want = e1_sweep(RunConfig(batch=1), make_adversary=mixed)
    assert e1_sweep(RunConfig(), make_adversary=mixed) == want
    group = group_log[-1]
    assert len(group) == 20
    assert {type(a) for a in group} == {SilentAdversary, EpochTargetJammer}


def test_warm_cell_thins_the_groups(reference, tmp_path):
    def cached(**kw):
        return RunConfig(
            cache=True, cache_dir=tmp_path, experiment="TGROUP", **kw
        )

    # Warm one cell, the way a finished part of a killed sweep would.
    e1_sweep(cached(batch=1), targets=TARGETS[1:2])
    config = cached(batch=4)
    assert e1_sweep(config) == reference
    assert config.stats.cache_hits == 5
    assert config.stats.batch_trials == 15
    assert config.stats.batch_tasks == 4  # 4 + 4 + 4 + 3, across the gap


class TestGroupSize:
    @pytest.mark.parametrize(
        "batch,jobs,misses,size",
        [
            (64, 1, 20, 20),
            (64, 1, 100, 64),
            (3, 1, 20, 3),
            (64, 2, 20, 10),
            (64, 3, 20, 7),
            (4, 2, 20, 4),
            (64, 2, 1, 1),
            (1, 4, 20, 1),
        ],
    )
    def test_cap_and_split(self, batch, jobs, misses, size):
        config = RunConfig(batch=batch, jobs=jobs)
        assert runner._group_size(config, misses) == size

    def test_jobs_zero_is_the_core_count(self, monkeypatch):
        from repro.engine import executor

        monkeypatch.setattr(executor, "available_cpus", lambda: 4)
        assert runner._group_size(RunConfig(jobs=0), 20) == 5

    def test_no_config_means_one_trial_groups(self):
        assert runner._group_size(None, 20) == 1


class TestTimeoutPerTrial:
    """``RunConfig.timeout`` is per trial: ``run_tasks`` gets it times
    the largest group's trial count."""

    @pytest.fixture
    def timeouts(self, monkeypatch):
        seen = []
        real = runner.run_tasks

        def spy(tasks, **kwargs):
            seen.append(kwargs["timeout"])
            return real(tasks, **kwargs)

        monkeypatch.setattr(runner, "run_tasks", spy)
        return seen

    @pytest.mark.parametrize(
        "batch,jobs,want",
        [(1, 1, 2.0), (4, 1, 8.0), (64, 1, 20.0), (64, 2, 10.0)],
    )
    def test_scaled_by_largest_group(self, timeouts, batch, jobs, want):
        replicate(
            mk_protocol, SilentAdversary, 10, seed=1,
            config=RunConfig(batch=batch, jobs=jobs, timeout=2.0),
        )
        assert timeouts == [want]

    def test_no_timeout_stays_none(self, timeouts):
        replicate(mk_protocol, SilentAdversary, 3, seed=1, config=RunConfig())
        assert timeouts == [None]
