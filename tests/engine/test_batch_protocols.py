"""Differential tests for the batched protocol layer.

The trial-batched kernel stacked sampling and resolution; this layer
stacks the *protocols* themselves (``reset_batch`` /
``next_phase_batch`` / ``observe_batch`` / ``summary_batch``), so the
contract to enforce is the same but one level up: every trial of the
lockstep ``run_batch`` loop must stay bit-identical to a scalar
``run`` — for the *entire* protocol zoo crossed with the adversary zoo,
ablation variants included.  ``run(seed)`` on fresh instances is the
differential oracle.

Also covered here: the masking rule (early-finished trials freeze, never
re-activate, and never disturb survivors' rng streams), the serial-clone
fallback on the ``Protocol`` base class, the ``next_phase_batch`` mask
contract, and ``summary_batch`` ≡ stacked serial summaries.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    BudgetCap,
    EpochTargetJammer,
    GreedyAdaptiveJammer,
    QBlockingJammer,
    RandomJammer,
    SilentAdversary,
    SpoofingAdversary,
    SuffixJammer,
)
from repro.channel.events import TxKind
from repro.engine.phase import BatchPhaseSpec, PhaseSpec
from repro.engine.simulator import Simulator, run_batch
from repro.errors import ProtocolError
from repro.protocols import (
    AlwaysOnSender,
    CombinedOneToOne,
    FixedProbabilityProtocol,
    GilbertYoungStyleBroadcast,
    KSYOneToOne,
    KSYParams,
    KSYStyleBroadcast,
    NaiveHaltingBroadcast,
    OneToNBroadcast,
    OneToNParams,
    OneToOneBroadcast,
    OneToOneParams,
    Protocol,
)
from repro.store import run_result_to_dict
from repro.telemetry import read_events, session

pytestmark = pytest.mark.engine

P11 = OneToOneParams.sim()
PN = OneToNParams.sim()


def result_json(result) -> str:
    return json.dumps(run_result_to_dict(result), sort_keys=True)


# The full protocol zoo — every module with a stacked batch
# implementation, plus the ablation variants that flip internal
# branches (no-nack Figure 1, no-noise Figure 2, fixed halt_after).
PROTOCOL_ZOO = [
    ("fig1", lambda: OneToOneBroadcast(P11)),
    (
        "fig1-no-nack",
        lambda: OneToOneBroadcast(
            dataclasses.replace(P11, use_nack=False, blind_epochs=2)
        ),
    ),
    ("ksy", lambda: KSYOneToOne(KSYParams.sim())),
    ("combined", lambda: CombinedOneToOne()),
    ("fig2", lambda: OneToNBroadcast(6, PN)),
    (
        "fig2-no-noise",
        lambda: OneToNBroadcast(5, OneToNParams.sim(uninformed_noise=False)),
    ),
    ("naive-always-on", lambda: AlwaysOnSender(chunk=64, max_chunks=40)),
    ("naive-fixed-p", lambda: FixedProbabilityProtocol(0.25, chunk=64, max_chunks=40)),
    ("naive-halting", lambda: NaiveHaltingBroadcast(5, PN)),
    ("naive-halting-fixed", lambda: NaiveHaltingBroadcast(5, PN, halt_after=3)),
    ("ksy-style", lambda: KSYStyleBroadcast(6)),
    ("gy-style", lambda: GilbertYoungStyleBroadcast(6)),
]

# Adversary styles that exercise distinct engine paths: silent,
# stochastic, interval suffix, budget-wrapped (observe_outcome
# override), adaptive (stateful + observe_outcome), epoch-targeted
# (keys off tags), spoofing (extra tx events).
ADVERSARY_ZOO = [
    ("silent", SilentAdversary),
    ("random", lambda: RandomJammer(0.3)),
    ("suffix", lambda: SuffixJammer(0.7)),
    ("budget-cap", lambda: BudgetCap(SuffixJammer(1.0), budget=2048)),
    ("greedy", lambda: GreedyAdaptiveJammer(1024)),
    ("epoch-target", lambda: EpochTargetJammer(P11.first_epoch + 2, q=0.9)),
    ("spoofing", lambda: SpoofingAdversary(budget=1024)),
]


#: Caps for the zoo grid: small enough to bound every cell's runtime,
#: large enough to cross several epochs.  Runs that truncate at the cap
#: must be bit-identical too, so nothing is lost by bounding.
GRID_CAPS = dict(max_slots=60_000, max_phases=250)


def batch_vs_oracle(mk_protocol, mk_adversary, seeds, **sim_kwargs):
    """Assert lockstep trials ≡ run(seed) on fresh instances."""
    oracle = [
        Simulator(mk_protocol(), mk_adversary(), **sim_kwargs).run(s)
        for s in seeds
    ]
    batch = Simulator(
        mk_protocol(), mk_adversary(), **sim_kwargs
    ).run_batch(seeds, adversaries=[mk_adversary() for _ in seeds])
    assert len(batch) == len(oracle)
    for got, want in zip(batch, oracle):
        assert result_json(got) == result_json(want)
    return batch, oracle


class TestZooBitIdentity:
    @pytest.mark.parametrize(
        "mk_protocol", [p for _, p in PROTOCOL_ZOO],
        ids=[name for name, _ in PROTOCOL_ZOO],
    )
    @pytest.mark.parametrize(
        "mk_adversary", [a for _, a in ADVERSARY_ZOO],
        ids=[name for name, _ in ADVERSARY_ZOO],
    )
    def test_batch_driver_bit_identical(self, mk_protocol, mk_adversary):
        batch_vs_oracle(mk_protocol, mk_adversary, [0, 1, 2], **GRID_CAPS)

    @pytest.mark.parametrize(
        "mk_protocol", [p for _, p in PROTOCOL_ZOO],
        ids=[name for name, _ in PROTOCOL_ZOO],
    )
    def test_matches_single_runs(self, mk_protocol):
        # A second adversary shape against run() for every protocol.
        mk_a = lambda: SuffixJammer(0.5)  # noqa: E731
        seeds = [3, 4]
        serial = [
            Simulator(mk_protocol(), mk_a(), **GRID_CAPS).run(s) for s in seeds
        ]
        batch = Simulator(mk_protocol(), mk_a(), **GRID_CAPS).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=5),
        q=st.floats(0.0, 1.0),
    )
    def test_hypothesis_fig2_blocking(self, seeds, q):
        batch_vs_oracle(
            lambda: OneToNBroadcast(5, PN), lambda: QBlockingJammer(q), seeds,
            **GRID_CAPS,
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
        q=st.floats(0.0, 1.0),
    )
    def test_hypothesis_combined_blocking(self, seeds, q):
        batch_vs_oracle(
            CombinedOneToOne, lambda: QBlockingJammer(q), seeds, **GRID_CAPS
        )


class TestMaskingInvariants:
    def test_stragglers_stay_bit_identical(self):
        # Trials halt at genuinely different phases; early finishers are
        # masked out and survivors must stay on their serial streams.
        mk_a = lambda: EpochTargetJammer(PN.first_epoch + 1, q=0.9)  # noqa: E731
        mk_p = lambda: OneToNBroadcast(6, PN)  # noqa: E731
        seeds = list(range(5))
        batch, oracle = batch_vs_oracle(mk_p, mk_a, seeds)
        assert len({r.phases for r in oracle}) > 1  # staggered halts

    def test_done_rows_freeze(self):
        # Drive the batch API by hand: once a trial goes inactive it
        # must never re-emit, and its state must stop changing.
        proto = OneToOneBroadcast(P11)
        rngs = [np.random.default_rng(s) for s in range(3)]
        proto.reset_batch(rngs)
        mask = np.ones(3, dtype=bool)
        seen_inactive = np.zeros(3, dtype=bool)
        for _ in range(200):
            spec = proto.next_phase_batch(mask)
            if spec is None:
                break
            assert not (spec.active & seen_inactive).any()
            seen_inactive |= ~spec.active
            n = proto.n_nodes
            from repro.engine.phase import BatchPhaseObservation

            proto.observe_batch(
                BatchPhaseObservation(
                    lengths=spec.lengths,
                    heard=np.zeros((3, n, 5), dtype=np.int64),
                    send_cost=np.zeros((3, n), dtype=np.int64),
                    listen_cost=np.zeros((3, n), dtype=np.int64),
                    active=spec.active,
                    tags=spec.tags,
                )
            )
        assert proto.done_batch().all()

    def test_mask_excludes_trial_from_emission(self):
        proto = OneToOneBroadcast(P11)
        rngs = [np.random.default_rng(s) for s in range(3)]
        proto.reset_batch(rngs)
        mask = np.array([True, False, True])
        spec = proto.next_phase_batch(mask)
        assert spec is not None
        assert not spec.active[1]
        assert (spec.active <= mask).all()

    def test_awaiting_guard_raises(self):
        proto = OneToOneBroadcast(P11)
        rngs = [np.random.default_rng(s) for s in range(2)]
        proto.reset_batch(rngs)
        spec = proto.next_phase_batch(np.ones(2, dtype=bool))
        assert spec is not None
        with pytest.raises(ProtocolError):
            proto.next_phase_batch(np.ones(2, dtype=bool))
        # But a mask excluding the awaiting rows (the engine's truncated
        # set) is legal and emits nothing.
        assert proto.next_phase_batch(np.zeros(2, dtype=bool)) is None


class TestRngStreamConsumption:
    def test_posterior_generator_states_pinned_to_serial(self):
        # After a batched run, each trial's protocol rng must sit in
        # exactly the state a serial run leaves it in — the next draw is
        # where stream divergence would first show up.
        from repro.rng import RngFactory

        for mk_p in (
            lambda: OneToOneBroadcast(P11),
            lambda: OneToNBroadcast(5, PN),
            CombinedOneToOne,
        ):
            seeds = [0, 1, 2]
            serial_rngs = []
            for s in seeds:
                f = RngFactory(s)
                rng = f.get("protocol")
                sim = Simulator(mk_p(), SuffixJammer(0.6))
                sim.run(rng)  # run() consumes the stream we hold
                serial_rngs.append(rng)
            batch_rngs = [RngFactory(s).get("protocol") for s in seeds]
            proto, adv = mk_p(), SuffixJammer(0.6)
            sim = Simulator(proto, adv)
            # Drive run_batch on pre-built generators: seeds are the
            # generators.
            sim.run_batch(batch_rngs)
            for a, b in zip(serial_rngs, batch_rngs):
                assert a.integers(2**62) == b.integers(2**62)

    def test_rng_pin_hardcoded(self):
        # Regression pin through both loops and the stacked fig2
        # implementation: fails if any draw moves generator or call
        # order.  Values recorded from fresh-instance run(seed).
        mk_p = lambda: OneToNBroadcast(5, PN)  # noqa: E731
        mk_a = lambda: EpochTargetJammer(PN.first_epoch + 1, q=1.0)  # noqa: E731
        batch = run_batch(mk_p(), mk_a(), [0, 1])
        oracle = [Simulator(mk_p(), mk_a()).run(s) for s in (0, 1)]
        for got in (batch, oracle):
            assert [r.node_costs.tolist() for r in got] == [
                [18128, 19874, 21386, 20907, 21697],
                [20119, 19766, 18973, 20168, 20663],
            ]
            assert [r.slots for r in got] == [47056, 45008]
            assert [r.phases for r in got] == [378, 370]
            assert [r.adversary_cost for r in got] == [656, 656]


class TestSummaryBatch:
    @pytest.mark.parametrize(
        "mk_protocol", [p for _, p in PROTOCOL_ZOO],
        ids=[name for name, _ in PROTOCOL_ZOO],
    )
    def test_summary_batch_equals_stacked_serial(self, mk_protocol):
        mk_a = lambda: RandomJammer(0.25)  # noqa: E731
        seeds = [0, 1, 2]
        serial = [
            Simulator(mk_protocol(), mk_a(), **GRID_CAPS).run(s) for s in seeds
        ]
        batch = Simulator(mk_protocol(), mk_a(), **GRID_CAPS).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        for got, want in zip(batch, serial):
            assert json.dumps(got.stats, sort_keys=True, default=str) == \
                json.dumps(want.stats, sort_keys=True, default=str)


class TestSerialCloneFallback:
    class MinimalProtocol(Protocol):
        """Deliberately batch-unaware: exercises the base-class default."""

        n_nodes = 2

        def __init__(self):
            self.reset(np.random.default_rng(0))

        def reset(self, rng):
            self._rng = rng
            self.rounds = 0
            self.heard_any = False

        def next_phase(self):
            if self.done:
                return None
            return PhaseSpec(
                length=8,
                send_probs=np.array([0.5, 0.0]),
                send_kinds=np.full(2, TxKind.DATA, dtype=np.int8),
                listen_probs=np.array([0.0, 0.5]),
                tags={"round": self.rounds},
            )

        def observe(self, obs):
            self.rounds += 1
            if obs.heard_data[1] > 0:
                self.heard_any = True

        @property
        def done(self):
            return self.rounds >= 3 or self.heard_any

        def summary(self):
            return {"success": self.heard_any, "rounds": self.rounds}

    def test_fallback_bit_identical(self):
        mk_p = self.MinimalProtocol
        mk_a = lambda: RandomJammer(0.2)  # noqa: E731
        seeds = [0, 1, 2, 3]
        serial = [Simulator(mk_p(), mk_a()).run(s) for s in seeds]
        batch = Simulator(mk_p(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_stack_rejects_group_disagreement(self):
        a = PhaseSpec(
            length=4,
            send_probs=np.zeros(2),
            send_kinds=np.full(2, TxKind.DATA, dtype=np.int8),
            listen_probs=np.zeros(2),
            groups=np.array([0, 1]),
        )
        b = PhaseSpec(
            length=4,
            send_probs=np.zeros(2),
            send_kinds=np.full(2, TxKind.DATA, dtype=np.int8),
            listen_probs=np.zeros(2),
            groups=None,
        )
        with pytest.raises(ProtocolError):
            BatchPhaseSpec.stack([a, b], n_nodes=2)


class TestProfileHooks:
    """The phase loops' stage clocks ride their telemetry spans."""

    STAGES = {"protocol", "sampling", "adversary", "resolve", "accounting"}
    PLAYS = {
        "run": lambda sim: [sim.run(0)],
        "one-trial run_batch": lambda sim: list(sim.run_batch([0])),
        "run_batch": lambda sim: list(sim.run_batch([0, 1, 2])),
    }

    @staticmethod
    def sim():
        return Simulator(OneToOneBroadcast(P11), SuffixJammer(0.5))

    def traced(self, tmp_path, play):
        """Play under a session; returns (results, the sim.* span)."""
        with session(tmp_path) as sink:
            results = play(self.sim())
        (span,) = [
            e for e in read_events(sink.run_dir) if e["name"].startswith("sim.")
        ]
        stages = span["attrs"]["stages"]
        assert set(stages) == self.STAGES
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= span["dur"]
        return results, span

    def test_batch_profile_accumulates_stages(self, tmp_path):
        _, span = self.traced(tmp_path, self.PLAYS["run_batch"])
        assert span["name"] == "sim.run_batch"
        assert span["attrs"]["trials"] == 3
        _, span = self.traced(tmp_path, self.PLAYS["one-trial run_batch"])
        assert span["name"] == "sim.run"

    def test_serial_profile_accumulates_stages(self, tmp_path):
        _, span = self.traced(tmp_path, self.PLAYS["run"])
        assert span["name"] == "sim.run"

    def test_profile_does_not_perturb_results(self, tmp_path):
        for play in self.PLAYS.values():
            traced, _ = self.traced(tmp_path, play)
            assert [result_json(r) for r in traced] == [
                result_json(r) for r in play(self.sim())
            ]


class TestTruncationUnderBatchDriver:
    def test_truncated_trials_match_serial(self):
        mk_p = lambda: OneToNBroadcast(5, PN)  # noqa: E731
        mk_a = lambda: RandomJammer(0.4)  # noqa: E731
        kwargs = dict(max_phases=6)
        seeds = [0, 1, 2]
        serial = [
            Simulator(mk_p(), mk_a(), **kwargs).run(s) for s in seeds
        ]
        assert any(r.truncated for r in serial)
        batch, _ = batch_vs_oracle(mk_p, mk_a, seeds, **kwargs)
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_strict_raises(self):
        sim = Simulator(
            OneToNBroadcast(5, PN), RandomJammer(0.4),
            max_phases=4, strict=True,
        )
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            sim.run_batch([0, 1, 2])
