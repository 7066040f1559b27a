"""Determinism under parallelism: jobs=N must not change the science.

Every task derives its seed from indices fixed before execution, so a
parallel run must serialize byte-for-byte identically to the serial
one.  ``scripts/check_parallel_determinism.sh`` runs this suite (via
the ``parallel`` marker) plus a CLI-level file comparison in CI.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import RunConfig, run_experiment, replicate
from repro.experiments.runner import sweep_epoch_targets
from repro.store import report_to_dict

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif(
        not hasattr(os, "fork"), reason="process backend needs os.fork"
    ),
]


def canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.mark.parametrize("eid", ["E1", "E4"])
def test_report_byte_identical_across_jobs(eid):
    serial = run_experiment(eid, RunConfig(seed=3, quick=True, jobs=1))
    parallel = run_experiment(eid, RunConfig(seed=3, quick=True, jobs=4))
    assert canonical(serial) == canonical(parallel)


def test_parallel_run_records_executor_stats():
    cfg = RunConfig(seed=3, quick=True, jobs=2)
    report = run_experiment("E4", cfg)
    assert cfg.stats.tasks > 0
    assert cfg.stats.backend == "process"
    runtime_notes = [n for n in report.notes if n.startswith("[runtime]")]
    assert len(runtime_notes) == 1
    # ... but runtime notes never reach the persisted form.
    assert not any(
        n.startswith("[runtime]") for n in report_to_dict(report)["notes"]
    )


@pytest.mark.parametrize("backend", ["process", "pool"])
def test_jobs_split_default_batch_over_workers(backend):
    # At the default batch, E4's 20 trials would fit one group; -j 2
    # splits them so both workers get a group.
    from repro.engine.executor import WorkerPool

    with WorkerPool(2) as pool:
        cfg = RunConfig(
            seed=3, quick=True, jobs=2,
            pool=pool if backend == "pool" else None,
        )
        report = run_experiment("E4", cfg)
    assert cfg.stats.tasks >= 2
    assert cfg.stats.backend == backend
    serial = run_experiment("E4", RunConfig(seed=3, quick=True, batch=1))
    assert canonical(report) == canonical(serial)


def test_replicate_identical_across_jobs():
    from repro.adversaries.basic import SilentAdversary
    from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

    make = lambda: OneToOneBroadcast(OneToOneParams.sim())
    serial = replicate(make, SilentAdversary, 8, seed=5)
    parallel = replicate(
        make, SilentAdversary, 8, seed=5, config=RunConfig(jobs=4)
    )
    assert [list(r.node_costs) for r in serial] == [
        list(r.node_costs) for r in parallel
    ]
    assert [r.slots for r in serial] == [r.slots for r in parallel]


def test_sweep_identical_across_jobs():
    from repro.adversaries.blocking import EpochTargetJammer
    from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams

    params = OneToOneParams.sim()
    targets = range(params.first_epoch + 2, params.first_epoch + 7, 2)

    def sweep(config):
        return sweep_epoch_targets(
            lambda: OneToOneBroadcast(params),
            lambda t: EpochTargetJammer(t, q=1.0, target_listener=True),
            targets, n_reps=3, seed=11, config=config,
        )

    assert sweep(None) == sweep(RunConfig(jobs=4))
