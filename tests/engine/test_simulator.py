"""Unit tests for the run loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.basic import SilentAdversary, SuffixJammer
from repro.channel.events import JamPlan, TxKind
from repro.engine.phase import PhaseObservation, PhaseSpec
from repro.engine.simulator import Simulator, run
from repro.errors import (
    AdversaryError,
    BudgetExceededError,
    ProtocolError,
    SimulationError,
)
from repro.protocols.base import Protocol


class PingProtocol(Protocol):
    """Minimal protocol: node 0 sends for `phases` phases, node 1
    listens; succeeds once anything is heard."""

    n_nodes = 2

    def __init__(self, phases: int = 3, length: int = 64):
        self.n_phases = phases
        self.length = length
        self.reset(np.random.default_rng(0))

    def reset(self, rng):
        self.emitted = 0
        self.heard = 0
        self.observations: list[PhaseObservation] = []

    @property
    def done(self):
        return self.emitted >= self.n_phases

    def next_phase(self):
        if self.done:
            return None
        self.emitted += 1
        return PhaseSpec(
            length=self.length,
            send_probs=np.array([0.5, 0.0]),
            send_kinds=np.array([TxKind.DATA, TxKind.DATA], dtype=np.int8),
            listen_probs=np.array([0.0, 0.5]),
            tags={"n": self.emitted},
        )

    def observe(self, obs):
        self.observations.append(obs)
        self.heard += int(obs.heard_data[1])

    def summary(self):
        return {"success": self.heard > 0, "heard": self.heard}


class TestSimulator:
    def test_basic_run(self):
        res = run(PingProtocol(), SilentAdversary(), seed=1)
        assert res.success
        assert res.phases == 3
        assert res.slots == 3 * 64
        assert res.adversary_cost == 0
        assert res.max_node_cost > 0

    def test_costs_accumulate(self):
        proto = PingProtocol(phases=4)
        res = run(proto, SilentAdversary(), seed=2)
        manual = sum(o.cost for o in proto.observations)
        assert list(res.node_costs) == list(manual)

    def test_adversary_cost_tracked(self):
        res = run(PingProtocol(), SuffixJammer(0.5), seed=3)
        assert res.adversary_cost == 3 * 32

    def test_full_jam_blocks_delivery(self):
        res = run(PingProtocol(), SuffixJammer(1.0), seed=4)
        assert not res.success
        assert res.adversary_cost == 3 * 64

    def test_truncation_on_slot_cap(self):
        res = Simulator(
            PingProtocol(phases=100), SilentAdversary(), max_slots=200
        ).run(5)
        assert res.truncated
        assert res.phases == 3  # 3 * 64 = 192 <= 200 < 256

    def test_truncation_on_phase_cap(self):
        res = Simulator(
            PingProtocol(phases=100), SilentAdversary(), max_phases=2
        ).run(5)
        assert res.truncated
        assert res.phases == 2

    def test_strict_raises(self):
        with pytest.raises(BudgetExceededError):
            Simulator(
                PingProtocol(phases=100), SilentAdversary(),
                max_slots=200, strict=True,
            ).run(5)

    def test_history_kept_on_request(self):
        res = Simulator(
            PingProtocol(), SilentAdversary(), keep_history=True
        ).run(6)
        assert len(res.phase_history) == 3
        assert res.phase_history[0].tags == {"n": 1}

    def test_history_off_by_default(self):
        res = run(PingProtocol(), SilentAdversary(), seed=6)
        assert res.phase_history == []

    def test_determinism(self):
        r1 = run(PingProtocol(), SuffixJammer(0.3), seed=42)
        r2 = run(PingProtocol(), SuffixJammer(0.3), seed=42)
        assert list(r1.node_costs) == list(r2.node_costs)
        assert r1.adversary_cost == r2.adversary_cost
        assert r1.stats == r2.stats

    def test_different_seeds_differ(self):
        r1 = run(PingProtocol(), SilentAdversary(), seed=1)
        r2 = run(PingProtocol(), SilentAdversary(), seed=2)
        assert list(r1.node_costs) != list(r2.node_costs)

    def test_protocol_not_done_without_phase_raises(self):
        class Liar(PingProtocol):
            def next_phase(self):
                return None  # claims no phase but done is False

        with pytest.raises(ProtocolError):
            run(Liar(), SilentAdversary(), seed=1)

    def test_run_result_aliases(self):
        res = run(PingProtocol(), SuffixJammer(0.5), seed=1)
        assert res.T == res.adversary_cost
        assert res.max_node_cost == int(res.node_costs.max())


class RecordingAdversary(Adversary):
    """Captures the contexts it is offered (for contract tests)."""

    def __init__(self):
        self.contexts = []
        self.outcomes = 0

    def plan_phase(self, ctx):
        self.contexts.append(ctx)
        return JamPlan.silent(ctx.length)

    def observe_outcome(self, ctx, outcome):
        self.outcomes += 1


class TestAdversaryContract:
    def test_context_contents(self):
        adv = RecordingAdversary()
        run(PingProtocol(phases=2), adv, seed=9)
        assert len(adv.contexts) == 2
        ctx = adv.contexts[0]
        assert ctx.phase_index == 0
        assert ctx.length == 64
        assert ctx.tags == {"n": 1}
        assert ctx.n_nodes == 2
        assert float(ctx.send_probs[0]) == 0.5
        assert adv.outcomes == 2

    def test_spent_accumulates(self):
        class CountingSuffix(SuffixJammer):
            def __init__(self):
                super().__init__(0.5)
                self.spents = []

            def plan_phase(self, ctx):
                self.spents.append(ctx.spent)
                return super().plan_phase(ctx)

        adv = CountingSuffix()
        run(PingProtocol(phases=3), adv, seed=9)
        assert adv.spents == [0, 32, 64]

    @pytest.mark.parametrize("kind", [0, 9])
    def test_spoof_kinds_outside_txkind_refused(self, kind):
        # The resolver packs kinds into three bits beside the slot, so
        # kind 9 would land on the next slot; both loops must refuse it.
        class Spoofer(Adversary):
            def plan_phase(self, ctx):
                return JamPlan(
                    ctx.length, spoof_slots=np.array([1]),
                    spoof_kinds=np.array([kind], dtype=np.int8),
                )

        sim = Simulator(PingProtocol(phases=3), Spoofer())
        with pytest.raises(AdversaryError, match="TxKind"):
            sim.run(1)
        with pytest.raises(AdversaryError, match="TxKind"):
            sim.run_batch([1, 2])

    def test_plan_length_checked_by_both_loops(self):
        class Short(Adversary):
            def plan_phase(self, ctx):
                return JamPlan.silent(ctx.length - 1)

        sim = Simulator(PingProtocol(phases=3), Short())
        with pytest.raises(SimulationError, match="does not match"):
            sim.run(1)
        with pytest.raises(SimulationError, match="does not match"):
            sim.run_batch([1, 2])
