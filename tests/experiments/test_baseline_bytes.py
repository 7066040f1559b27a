"""Byte gate: the cheap quick seed-0 reports equal their committed
baselines in ``results/baseline/``.

``scripts/check_parallel_determinism.sh`` compares all 23 reports at
the default batch (64); this runs the 14 that take seconds in the unit
suite.  E15 is also run at batch 1, the one-trial-group path.
The 1-to-n experiments (E6-E10, E12, E13, A3, A6) are left to the CI
script until they are cheap enough for every test run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import RunConfig, run_experiment
from repro.store import report_to_bytes

BASELINE = Path(__file__).resolve().parents[2] / "results" / "baseline"

CHEAP = (
    "E1", "E2", "E3", "E4", "E5", "E11", "E14", "E15", "E16", "E17",
    "E18", "A1", "A4", "A5",
)


@pytest.mark.parametrize(
    "eid,batch",
    [(eid, 64) for eid in CHEAP] + [("E15", 1)],
    ids=[f"{eid}-batch64" for eid in CHEAP] + ["E15-batch1"],
)
def test_quick_report_matches_baseline(eid, batch):
    report = run_experiment(eid, RunConfig(seed=0, quick=True, batch=batch))
    assert report_to_bytes(report) == (BASELINE / f"{eid}.json").read_bytes()
