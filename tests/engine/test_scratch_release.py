"""The resolver's dense scratch buffers live for one run.

Both phase loops resolve through ``resolve_phase_batch_core``, whose
dense membership passes reuse process-wide scratch buffers across the
phases of a run.  A run grows them to its largest key space; when the
run returns (or raises) the loop drops them, so neither a long-lived
``serve`` nor a process that ran one large sweep keeps them resident.
"""

from __future__ import annotations

import pytest

from repro.adversaries import EpochTargetJammer
from repro.channel import model
from repro.engine.simulator import Simulator
from repro.errors import BudgetExceededError
from repro.experiments.registry import RunConfig, run_experiment
from repro.protocols import OneToOneBroadcast, OneToOneParams

pytestmark = pytest.mark.engine


@pytest.fixture
def grown(monkeypatch):
    """Largest size each scratch buffer was asked for."""
    sizes: dict[str, int] = {}
    dense_buf = model._dense_buf

    def spy(name, size, dtype):
        sizes[name] = max(sizes.get(name, 0), size)
        return dense_buf(name, size, dtype)

    monkeypatch.setattr(model, "_dense_buf", spy)
    return sizes


@pytest.mark.parametrize(
    "eid,config",
    [
        # E15's C = 16 cells on the lockstep loop: a 1 MiB content pass.
        ("E15", RunConfig(quick=False, batch=8)),
        # 1-to-n trials on the scalar loop, where both passes run.
        ("E8", RunConfig(batch=1)),
    ],
    ids=["E15-full-batch8", "E8-batch1"],
)
def test_buffers_released_after_experiment(grown, eid, config):
    run_experiment(eid, config)
    assert grown  # the run did use the buffers
    assert model._dense_scratch == {}


def test_buffers_released_when_a_run_raises(grown):
    params = OneToOneParams.sim()
    jammer = EpochTargetJammer(params.first_epoch + 2, q=1.0)
    sim = Simulator(
        OneToOneBroadcast(params), jammer, max_phases=6, strict=True
    )
    with pytest.raises(BudgetExceededError):
        sim.run(0)
    assert grown
    assert model._dense_scratch == {}
