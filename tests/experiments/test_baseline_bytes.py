"""Byte gate: the cheap quick seed-0 reports equal their committed
baselines in ``results/baseline/``.

``scripts/check_parallel_determinism.sh`` compares all 23 reports at
the default batch (64); this runs the 15 that take seconds in the unit
suite.  E15 and the 1-to-1 set of the ``oneone_serial`` bench workload
(E1, E3, E4, E16, A4) also run at batch 1, where every trial is a
one-trial group on the scalar loop.  Of the 1-to-n experiments, E8 runs
at the default batch: it is Figure 2 (Theorem 3's ``OneToNBroadcast``)
through the lockstep sampler and resolver, which no other gated report
exercises (E18 runs Chen–Zheng, the rest are 1-to-1).  The others
(E6, E7, E9, E10, E12, E13, A3, A6) are left to the CI script until
they are cheap enough for every test run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import RunConfig, run_experiment
from repro.store import report_to_bytes

BASELINE = Path(__file__).resolve().parents[2] / "results" / "baseline"

CHEAP = (
    "E1", "E2", "E3", "E4", "E5", "E8", "E11", "E14", "E15", "E16",
    "E17", "E18", "A1", "A4", "A5",
)
SCALAR = ("E15", "E1", "E3", "E4", "E16", "A4")


@pytest.mark.parametrize(
    "eid,batch",
    [(eid, 64) for eid in CHEAP] + [(eid, 1) for eid in SCALAR],
    ids=(
        [f"{eid}-batch64" for eid in CHEAP]
        + [f"{eid}-batch1" for eid in SCALAR]
    ),
)
def test_quick_report_matches_baseline(eid, batch):
    report = run_experiment(eid, RunConfig(seed=0, quick=True, batch=batch))
    assert report_to_bytes(report) == (BASELINE / f"{eid}.json").read_bytes()
