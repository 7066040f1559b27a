"""Tests for the benchmark harness, on shrunken workloads.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "oneone_serial": {"experiments": ("E4",)},
    "broadcast_batched": {"cells": (("n16_silent", 16, None),), "reps": 2},
    "multichannel": {
        "experiments": ("E18",), "presets": ("cz-c4",), "genomes": 3,
        "reps": 2,
    },
    "service_restart": {"cold": 2, "warm": 5, "restart": 2},
}


def _units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def _printed_units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_match_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_run(name):
    result, _ = run.run_workload(name, seed=1, seconds=0, setup_runs=1,
                                 **SMALL[name])
    assert _printed_units(result) == _units(SPEC["end_to_end"])
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 2
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_passes_self_check(name):
    result, _ = run.run_workload(name, seed=1, seconds=0, trace=True,
                                 **SMALL[name])
    assert _printed_units(result) == _units(SPEC["per_layer"])
    assert result["failed"] == 0 and result["correct"]
    metrics = result["metrics"]
    for required in workloads.WORKLOADS[name].required:
        assert metrics[required]["value"] > 0


def test_self_check_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        workloads.OneToOneSerial, "required", ("mc_simulator.calls",)
    )
    with pytest.raises(SystemExit, match="mc_simulator.calls is 0"):
        run.run_workload("oneone_serial", seed=1, seconds=0, trace=True,
                         experiments=("E4",))


def test_seed0_matches_committed_baseline():
    result, _ = run.run_workload("oneone_serial", seed=0, seconds=0,
                                 setup_runs=1, experiments=("E4",))
    assert result["failed"] == 0


def test_corrupted_reference_digest_fails():
    result, _ = run.run_workload("oneone_serial", seed=0, seconds=0,
                                 setup_runs=1, reference={"E4": "0" * 64},
                                 experiments=("E4",))
    assert result["failed"] > 0 and not result["correct"]
