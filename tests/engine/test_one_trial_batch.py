"""A one-trial ``run_batch`` is a scalar ``run``, on both media.

``Simulator._run_batch`` is the one place that picks a phase loop: a
batch of one trial plays through the scalar loop, which is what lets
the experiment runner send every group, at every batch size, through
``run_batch``.  These tests pin what that branch promises: every
``RunResult`` field equal to ``run`` on fresh instances, one ``sim.run``
telemetry span, the simulator's own adversary left untouched, and
``trace=`` recording working for one trial and rejected for two.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import numpy as np
import pytest

from repro.adversaries import BudgetCap, SuffixJammer
from repro.engine.simulator import RunResult, Simulator
from repro.errors import ConfigurationError
from repro.multichannel import CZBroadcast, CZParams, FractionJammer, MCSimulator
from repro.protocols import OneToOneBroadcast, OneToOneParams
from repro.telemetry import deactivate, read_events, session
from repro.trace import TraceRecorder

pytestmark = pytest.mark.engine


class Medium:
    """An engine class plus the factories of its two parties."""

    def __init__(self, engine, make_protocol, make_adversary):
        self.engine = engine
        self.make_protocol = make_protocol
        self.make_adversary = make_adversary

    def sim(self, **kwargs):
        return self.engine(self.make_protocol(), self.make_adversary(), **kwargs)


SINGLE = Medium(
    Simulator,
    lambda: OneToOneBroadcast(OneToOneParams.sim()),
    lambda: BudgetCap(SuffixJammer(0.5), 3000),
)
MULTI = Medium(
    functools.partial(MCSimulator, n_channels=2),
    lambda: CZBroadcast(CZParams.sim(n_nodes=8, n_channels=2)),
    lambda: FractionJammer(0.2, max_total=500),
)
MEDIA = pytest.mark.parametrize(
    "medium", [SINGLE, MULTI], ids=["single", "multichannel"]
)


@pytest.fixture(autouse=True)
def no_leaked_sink():
    yield
    deactivate()


def assert_same_result(got: RunResult, want: RunResult) -> None:
    for f in dataclasses.fields(RunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@MEDIA
@pytest.mark.parametrize("factories", [False, True], ids=["own", "factories"])
def test_equals_run_on_fresh_instances(medium, factories):
    for seed in (3, 11):
        kwargs = (
            {"adversaries": [medium.make_adversary()]} if factories else {}
        )
        want = medium.sim(keep_history=True).run(seed)
        (got,) = medium.sim(keep_history=True).run_batch([seed], **kwargs)
        assert want.phase_history  # the comparison covers a real history
        assert_same_result(got, want)


@MEDIA
def test_emits_one_sim_run_span(medium, tmp_path):
    with session(tmp_path) as sink:
        (result,) = medium.sim().run_batch([5])
    events = read_events(sink.run_dir)
    (span,) = [e for e in events if e["name"].startswith("sim.")]
    assert span["name"] == "sim.run"
    assert span["attrs"]["phases"] == result.phases
    assert span["attrs"]["slots"] == result.slots


@MEDIA
def test_leaves_the_simulators_adversary_untouched(medium):
    sim = medium.sim()
    before = pickle.dumps(sim.adversary)
    (result,) = sim.run_batch([7])
    assert result.adversary_cost > 0  # the played copy did spend
    assert pickle.dumps(sim.adversary) == before


@MEDIA
def test_records_a_trace_for_one_trial_only(medium):
    want = TraceRecorder()
    medium.sim(trace=want).run(9)
    got = TraceRecorder()
    medium.sim(trace=got).run_batch([9])
    assert len(got.phases) == len(want.phases) > 0
    for a, b in zip(got.phases, want.phases):
        assert (a.phase_index, a.length, a.tags) == (
            b.phase_index, b.length, b.tags,
        )
        assert np.array_equal(a.heard, b.heard)
    with pytest.raises(ConfigurationError):
        medium.sim(trace=TraceRecorder()).run_batch([0, 1])
