"""Differential tests for the multichannel medium of the shared loops.

The contract mirrors the single-channel suite in
``tests/engine/test_batch.py``: trial ``t`` of
``MCSimulator.run_batch(seeds)`` must equal ``run(seeds[t])`` on fresh
instances exactly — same per-trial rng streams (``protocol``,
``hopping``, ``adversary``), same costs, same stats, same phase
history — for every protocol and adversary in the multichannel zoo.
On top of that sit the regression pins for the MC-specific bug
classes: hop-rng stream ordering at C>1, real-slot cap semantics,
engine reuse, and outcome feedback to adaptive adversaries.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import SilentAdversary, SuffixJammer
from repro.channel.model import resolve_phase_batch_core
from repro.channel.model_dense import resolve_phase_dense
from repro.engine import simulator
from repro.engine.sampling import sample_action_events
from repro.engine.simulator import Simulator
from repro.errors import BudgetExceededError
from repro.experiments.registry import RunConfig
from repro.experiments.runner import mc_replicate
from repro.multichannel import (
    ChannelBandJammer,
    ChannelFollowerJammer,
    ChannelJamPlan,
    ChannelSweepJammer,
    CZBroadcast,
    CZParams,
    FractionJammer,
    MCBudgetCap,
    MCEpochTargetJammer,
    MCSimulator,
)
from repro.multichannel.adversaries import MCAdversary
from repro.multichannel.engine import HoppingChannels, _hop, _half_duplex
from repro.channel.events import JamPlan, ListenEvents, SendEvents
from repro.protocols import OneToNBroadcast, OneToNParams
from repro.rng import RngFactory
from repro.store import run_result_to_dict
from repro.telemetry import read_events, session

pytestmark = pytest.mark.engine

C = 4


def mk_cz():
    return CZBroadcast(CZParams.sim(n_nodes=16, n_channels=C))


def mk_pair():
    from repro.multichannel import cz_pair_protocol

    return cz_pair_protocol(C)


ADVERSARIES = {
    "fraction": lambda: FractionJammer(0.15, max_total=2000),
    "fraction-unbounded": lambda: FractionJammer(0.4),
    "sweep": lambda: ChannelSweepJammer(2, step=3, q=0.8, max_total=2000),
    "follower": lambda: ChannelFollowerJammer(q=0.9),
    "follower-budget": lambda: ChannelFollowerJammer(q=0.9, max_total=600),
    "band": lambda: ChannelBandJammer(2, q=0.6, max_total=2000),
    "epoch-target": lambda: MCEpochTargetJammer(12, q=1.0),
    "cap-fraction": lambda: MCBudgetCap(FractionJammer(0.25), budget=500),
    "cap-sweep": lambda: MCBudgetCap(
        ChannelSweepJammer(3, step=1, q=1.0), budget=800
    ),
}


def result_json(result) -> str:
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def assert_identical(batch, serial):
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert result_json(got) == result_json(want)
        assert got.phase_history == want.phase_history


class TestMCDifferential:
    """run_batch == run across the protocol × adversary grid."""

    @pytest.mark.parametrize("adv", sorted(ADVERSARIES), ids=sorted(ADVERSARIES))
    @pytest.mark.parametrize(
        "mk_p", [mk_cz, mk_pair], ids=["cz", "pair-hop"]
    )
    def test_grid(self, mk_p, adv):
        mk_a = ADVERSARIES[adv]
        seeds = [5, 6, 7]
        sim = MCSimulator(
            mk_p(), mk_a(), C, max_slots=100_000, keep_history=True
        )
        batch = sim.run_batch(seeds, adversaries=[mk_a() for _ in seeds])
        serial = [
            MCSimulator(
                mk_p(), mk_a(), C, max_slots=100_000, keep_history=True
            ).run(s)
            for s in seeds
        ]
        assert_identical(batch, serial)

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=5),
        q=st.floats(0.0, 1.0),
        eps=st.floats(0.05, 0.95),
    )
    def test_hypothesis_differential(self, seeds, q, eps):
        mk_a = lambda: MCBudgetCap(  # noqa: E731
            ChannelFollowerJammer(q=q), budget=400
        )
        mk_b = lambda: FractionJammer(eps, max_total=1500)  # noqa: E731
        for mk_adv in (mk_a, mk_b):
            sim = MCSimulator(mk_cz(), mk_adv(), C, max_slots=50_000)
            batch = sim.run_batch(
                seeds, adversaries=[mk_adv() for _ in seeds]
            )
            serial = [
                MCSimulator(mk_cz(), mk_adv(), C, max_slots=50_000).run(s)
                for s in seeds
            ]
            assert_identical(batch, serial)

    def test_heterogeneous_adversaries_fall_back(self):
        # Mixed adversary types per trial route through the MCAdversary
        # base loop; results must still match serial exactly.
        zoo = [
            lambda: FractionJammer(0.2, max_total=1000),
            lambda: ChannelSweepJammer(2, q=0.7),
            lambda: ChannelFollowerJammer(q=0.5),
        ]
        calls = iter(range(100))
        mk_a = lambda: zoo[next(calls) % len(zoo)]()  # noqa: E731
        seeds = [1, 2, 3]
        sim = MCSimulator(mk_cz(), zoo[0](), C, max_slots=50_000)
        batch = sim.run_batch(seeds, adversaries=[mk_a() for _ in seeds])
        serial = []
        for i, s in enumerate(seeds):
            serial.append(
                MCSimulator(
                    mk_cz(), zoo[i % len(zoo)](), C, max_slots=50_000
                ).run(s)
            )
        assert_identical(batch, serial)

    def test_dense_resolver_matches(self, dense_oracle):
        mk_a = ADVERSARIES["fraction"]
        seeds = [3, 4]
        sparse = MCSimulator(mk_cz(), mk_a(), C, max_slots=20_000).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        with dense_oracle() as calls:
            dense = MCSimulator(mk_cz(), mk_a(), C, max_slots=20_000).run_batch(
                seeds, adversaries=[mk_a() for _ in seeds]
            )
        assert calls["run_batch"] > 0
        assert_identical(dense, list(sparse))


class TestHopRngContract:
    """The medium's hop, which both phase loops call per trial, consumes
    the ``hopping`` stream in a fixed order (half-duplex filter, then
    sends, then listens) at C>1.  The C=1 bit-identity tests consume
    zero hop draws and cover none of this."""

    def _events(self, rng, length, n_nodes=6, n_each=10):
        s_nodes = rng.integers(0, n_nodes, n_each).astype(np.int64)
        s_slots = rng.integers(0, length, n_each).astype(np.int64)
        l_nodes = rng.integers(0, n_nodes, n_each).astype(np.int64)
        l_slots = rng.integers(0, length, n_each).astype(np.int64)
        kinds = np.zeros(n_each, dtype=np.int8)
        return (
            SendEvents(s_nodes, s_slots, kinds),
            ListenEvents(l_nodes, l_slots),
        )

    def test_hop_batch_matches_serial_order_and_stream_state(self):
        length, n_channels = 32, 4
        gen = np.random.default_rng(7)
        events = [self._events(gen, length) for _ in range(3)]
        rngs_a = [np.random.default_rng(100 + t) for t in range(3)]
        rngs_b = [np.random.default_rng(100 + t) for t in range(3)]

        medium = HoppingChannels(n_channels)
        for t, (sends, listens) in enumerate(events):
            v_sends, v_listens = medium.hop(sends, listens, length, rngs_a[t])
            kept = _half_duplex(sends, listens, length)
            want_s = _hop(sends.slots, length, n_channels, rngs_b[t])
            want_l = _hop(kept.slots, length, n_channels, rngs_b[t])
            assert np.array_equal(v_sends.slots, want_s)
            assert np.array_equal(v_listens.slots, want_l)
            assert np.array_equal(v_listens.nodes, kept.nodes)
            # Stream end-state: exactly the serial draws, no more.
            assert rngs_a[t].integers(2**62) == rngs_b[t].integers(2**62)

    def test_half_duplex_filter_feeds_listen_hop(self):
        # The filter removes listen events *before* the listen hop, so
        # swapping filter and hop would draw a different count.  Build a
        # case where every listen collides with a send.
        length, n_channels = 16, 4
        nodes = np.arange(4, dtype=np.int64)
        slots = np.arange(4, dtype=np.int64)
        sends = SendEvents(nodes, slots, np.zeros(4, dtype=np.int8))
        listens = ListenEvents(nodes, slots)
        rng = np.random.default_rng(0)
        ref = np.random.default_rng(0)
        _, v_listens = HoppingChannels(n_channels).hop(
            sends, listens, length, rng
        )
        assert len(v_listens) == 0  # all filtered
        ref.integers(0, n_channels, 4)  # only the send hop drew
        assert rng.integers(2**62) == ref.integers(2**62)

    def test_rng_stream_regression_pin(self):
        """Hard-coded results at C>1: any silent permutation of the
        hopping (or protocol/adversary) stream order shows up here."""
        mk_a = lambda: FractionJammer(0.15, max_total=2000)  # noqa: E731
        seeds = [0, 1, 2]
        batch = MCSimulator(mk_cz(), mk_a(), C, max_slots=100_000).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        assert [int(r.node_costs.sum()) for r in batch] == PIN_NODE_TOTALS
        assert [r.adversary_cost for r in batch] == PIN_ADV_COSTS
        assert [r.slots for r in batch] == PIN_SLOTS
        assert [r.phases for r in batch] == PIN_PHASES
        assert [r.stats["success"] for r in batch] == PIN_SUCCESS

    def test_factory_streams_are_name_keyed(self):
        # The three per-trial streams must come from the same named
        # factory slots the serial loop uses.
        f1, f2 = RngFactory(123), RngFactory(123)
        a = [f1.get("protocol"), f1.get("hopping"), f1.get("adversary")]
        b = [f2.get(n) for n in ("adversary", "protocol", "hopping")]
        assert a[0].integers(2**62) == b[1].integers(2**62)
        assert a[1].integers(2**62) == b[2].integers(2**62)
        assert a[2].integers(2**62) == b[0].integers(2**62)


class TestHalfDuplexSkip:
    """Both phase loops skip the resolver's half-duplex pass exactly
    when the medium hops: ``hop`` has already dropped every listen that
    shares a real slot with the same node's send, so no (node, virtual
    slot) pair can hold both.  One channel has no hop and keeps the
    pass.  The dense oracle, which always applies half-duplex, is the
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_channels=st.integers(2, 16),
        n_nodes=st.integers(1, 8),
        lengths=st.lists(st.integers(1, 48), min_size=1, max_size=5),
        p_max=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pass_drops_nothing_after_hop(
        self, n_channels, n_nodes, lengths, p_max, seed
    ):
        rng = np.random.default_rng(seed)
        medium = HoppingChannels(n_channels)
        sends_list, listens_list, plans = [], [], []
        for length in lengths:
            sends, listens = sample_action_events(
                rng, length,
                rng.uniform(0.0, p_max, n_nodes),
                rng.integers(1, 3, n_nodes).astype(np.int8),
                rng.uniform(0.0, p_max, n_nodes),
            )
            sends, listens = medium.hop(sends, listens, length, rng)
            extent = n_channels * length
            n_spoofs = int(rng.integers(0, 3))
            plans.append(JamPlan(
                extent,
                global_slots=rng.choice(extent, rng.integers(0, extent // 3 + 1)),
                spoof_slots=rng.integers(0, extent, n_spoofs),
                spoof_kinds=rng.integers(1, 3, n_spoofs).astype(np.int8),
            ))
            sends_list.append(sends)
            listens_list.append(listens)
        extents = [n_channels * length for length in lengths]
        got = resolve_phase_batch_core(
            extents, n_nodes, sends_list, listens_list, plans,
            [None] * len(lengths), half_duplex=False,
        )
        for t, args in enumerate(zip(extents, sends_list, listens_list, plans)):
            extent, sends, listens, plan = args
            want = resolve_phase_dense(extent, n_nodes, sends, listens, plan)
            got_t = got.outcome_for(t)
            for f in dataclasses.fields(want):
                assert np.array_equal(
                    getattr(got_t, f.name), getattr(want, f.name)
                )

    @pytest.mark.parametrize(
        "engine,expected",
        [
            (lambda p, a: Simulator(p, a), True),
            (lambda p, a: MCSimulator(p, a, 1), False),
        ],
        ids=["single-channel", "hopping-c1"],
    )
    def test_only_single_channel_keeps_the_pass(
        self, monkeypatch, dense_oracle, engine, expected
    ):
        # Figure 2's nodes send and listen in one phase, so on one
        # channel the pass drops listens in this batch; scalar runs on
        # the dense oracle, which always applies half-duplex, are the
        # reference.  At C=1 the hop consumes no rng, so both engines
        # share these pins.
        seen, dropped = set(), []

        def spy(*args, **kwargs):
            seen.add(kwargs["half_duplex"])
            on = resolve_phase_batch_core(*args, **dict(kwargs, half_duplex=True))
            off = resolve_phase_batch_core(*args, **dict(kwargs, half_duplex=False))
            dropped.append(int(off.listen_cost.sum() - on.listen_cost.sum()))
            return resolve_phase_batch_core(*args, **kwargs)

        mk_p = lambda: OneToNBroadcast(4, OneToNParams.sim())  # noqa: E731
        seeds = [0, 1, 2]
        with dense_oracle():
            serial = [engine(mk_p(), SilentAdversary()).run(s) for s in seeds]
        monkeypatch.setattr(simulator, "resolve_phase_batch_core", spy)
        batch = engine(mk_p(), SilentAdversary()).run_batch(seeds)
        assert seen == {expected}
        assert_identical(batch, serial)
        assert [r.slots for r in batch] == [38864, 43984, 45776]
        assert [int(r.node_costs.sum()) for r in batch] == [58658, 81598, 89898]
        # On one channel the resolver's pass does the dropping; after a
        # hop there is nothing left for it to drop.
        assert (sum(dropped) > 0) == expected


class TestRealSlotCapSemantics:
    """Satellite: ``max_slots`` caps *real* slots (latency), not the
    ``C * length`` virtual extent the ledger charges."""

    def _first_length(self):
        p = CZParams.sim(n_nodes=16, n_channels=C)
        return 1 << p.first_epoch

    def test_cap_boundary_counts_real_slots(self):
        L0 = self._first_length()
        mk_a = lambda: ChannelBandJammer(0)  # noqa: E731
        # Cap exactly at the first phase length: under real-slot
        # semantics the first phase runs (0 + L0 <= L0) and the second
        # (doubled) phase truncates; under virtual-slot semantics
        # C * L0 > L0 would truncate immediately with zero phases.
        # Two trials, so the batch goes through the lockstep loop (a
        # one-trial batch plays the scalar loop of ``run``).
        serial = MCSimulator(
            mk_cz(), mk_a(), C, max_slots=L0, keep_history=True
        ).run(3)
        batch = list(
            MCSimulator(
                mk_cz(), mk_a(), C, max_slots=L0, keep_history=True
            ).run_batch([3, 4], adversaries=[mk_a(), mk_a()])
        )
        assert len(batch) == 2
        for r in [serial, *batch]:
            assert r.truncated
            assert r.phases == 1
            assert r.slots == L0  # real slots
            # ...while the ledger's history records the virtual extent.
            assert r.phase_history[0].length == C * L0

    def test_strict_raises_identically_in_both_paths(self):
        L0 = self._first_length()
        mk_a = lambda: ChannelBandJammer(0)  # noqa: E731
        with pytest.raises(BudgetExceededError) as serial_exc:
            MCSimulator(mk_cz(), mk_a(), C, max_slots=L0, strict=True).run(3)
        # Two trials: the lockstep loop, not the scalar one-trial path.
        with pytest.raises(BudgetExceededError) as batch_exc:
            MCSimulator(
                mk_cz(), mk_a(), C, max_slots=L0, strict=True
            ).run_batch([3, 3], adversaries=[mk_a(), mk_a()])
        assert str(serial_exc.value) == str(batch_exc.value)


class TestRunBatchReuse:
    """Reusing one engine: without factories ``run_batch`` drives the
    engine's live protocol and deep copies of its live adversary, whose
    ``reset_batch`` / ``begin_run`` re-initialise all run state, so no
    earlier ``run`` or ``run_batch`` may leak into a later one.  Runs on
    the C-channel medium here and on the single channel in
    :class:`TestRunBatchReuseOneChannel`."""

    @staticmethod
    def engine():
        return MCSimulator(
            mk_cz(), FractionJammer(0.15, max_total=2000), C,
            max_slots=100_000,
        )

    def test_back_to_back_run_batch_bit_identical(self):
        sim = self.engine()
        seeds = [11, 12, 13]
        first = [result_json(r) for r in sim.run_batch(seeds)]
        second = [result_json(r) for r in sim.run_batch(seeds)]
        assert first == second
        fresh = [result_json(self.engine().run(s)) for s in seeds]
        assert first == fresh

    def test_run_then_run_batch_not_dirtied(self):
        want = [result_json(r) for r in self.engine().run_batch([7, 8])]
        dirty = self.engine()
        dirty.run(42)  # mutates the live protocol/adversary
        got = [result_json(r) for r in dirty.run_batch([7, 8])]
        assert got == want

    def test_empty_batch(self):
        assert list(self.engine().run_batch([])) == []


class TestRunBatchReuseOneChannel(TestRunBatchReuse):
    """The same reuse contract on the single-channel medium."""

    @staticmethod
    def engine():
        return Simulator(
            OneToNBroadcast(6, OneToNParams.sim()), SuffixJammer(0.6),
            max_slots=100_000,
        )


class EchoJammer(MCAdversary):
    """Adaptive stub: each phase jams the suffix half of as many
    channels as the previous outcome had decodable data slots (mod
    ``C + 1``), and records every outcome it is shown."""

    def begin_run(self, n_nodes, n_channels, rng):
        super().begin_run(n_nodes, n_channels, rng)
        self.seen = []

    def plan_phase(self, ctx):
        k = self.seen[-1][0] % (ctx.n_channels + 1) if self.seen else 0
        return ChannelJamPlan.band_suffix(
            ctx.length, ctx.n_channels, k, ctx.length // 2
        ).compile()

    def observe_outcome(self, ctx, outcome):
        self.seen.append((
            int(outcome.data_slots), int(outcome.adversary_cost),
            int(outcome.n_noise), outcome.heard.tolist(),
        ))


class HalfEpsFractionJammer(FractionJammer):
    """Overrides only ``plan_phase`` (another ``eps``) on a jammer whose
    ``plan_phase_batch`` is batched."""

    def plan_phase(self, ctx):
        return ChannelJamPlan.fraction(
            ctx.length, ctx.n_channels, self.eps / 2
        ).compile()


def test_subclass_plan_phase_honoured_in_lockstep():
    mk_a = lambda: HalfEpsFractionJammer(0.6)  # noqa: E731
    seeds = [3, 4, 5]

    def serial(make):
        return [
            MCSimulator(mk_cz(), make(), C, max_slots=50_000).run(s)
            for s in seeds
        ]

    want = serial(mk_a)
    # The override changes the science, so planning through the
    # parent's batch form would show.
    assert [r.adversary_cost for r in want] != [
        r.adversary_cost for r in serial(lambda: FractionJammer(0.6))
    ]
    batch = MCSimulator(mk_cz(), mk_a(), C, max_slots=50_000).run_batch(
        seeds, adversaries=[mk_a() for _ in seeds]
    )
    assert_identical(batch, want)


class TestSharedLoopParity:
    """The MC engine gets outcome feedback and telemetry spans, with
    their stage clocks, from the shared phase loops."""

    STAGES = {"protocol", "sampling", "adversary", "resolve", "accounting"}

    def test_adaptive_adversary_sees_same_outcomes(self):
        seeds = [3, 4, 5]
        made = []

        def mk_a():
            made.append(EchoJammer())
            return made[-1]

        batch = MCSimulator(mk_cz(), EchoJammer(), C, max_slots=50_000).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        serial, serial_seen = [], []
        for s in seeds:
            adv = EchoJammer()
            serial.append(MCSimulator(mk_cz(), adv, C, max_slots=50_000).run(s))
            serial_seen.append(adv.seen)
        assert_identical(batch, serial)
        assert [a.seen for a in made] == serial_seen
        assert all(len(seen) == r.phases for seen, r in zip(serial_seen, serial))
        # The feedback steered the plans: some phase jammed channels.
        assert any(r.adversary_cost > 0 for r in serial)

    @pytest.mark.parametrize("runner", ["run", "one_trial_batch", "run_batch"])
    def test_profile_stages(self, runner, tmp_path):
        play = {
            "run": lambda sim: [sim.run(5)],
            "one_trial_batch": lambda sim: list(sim.run_batch([5])),
            "run_batch": lambda sim: list(sim.run_batch([5, 6, 7])),
        }[runner]

        def mk_sim():
            return MCSimulator(
                mk_cz(), FractionJammer(0.15, max_total=2000), C,
                max_slots=100_000,
            )

        with session(tmp_path) as sink:
            got = play(mk_sim())
        (span,) = [
            e for e in read_events(sink.run_dir) if e["name"].startswith("sim.")
        ]
        assert span["name"] == (
            "sim.run_batch" if runner == "run_batch" else "sim.run"
        )
        stages = span["attrs"]["stages"]
        assert set(stages) == self.STAGES
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= span["dur"]
        assert_identical(got, play(mk_sim()))

    def test_telemetry_spans(self, tmp_path):
        mk_a = lambda: FractionJammer(0.15, max_total=2000)  # noqa: E731
        with session(tmp_path) as sink:
            one = MCSimulator(mk_cz(), mk_a(), C, max_slots=100_000).run(5)
            many = MCSimulator(mk_cz(), mk_a(), C, max_slots=100_000).run_batch(
                [5, 6]
            )
        events = read_events(sink.run_dir)
        (run_span,) = [e for e in events if e["name"] == "sim.run"]
        assert run_span["ev"] == "span"
        assert run_span["attrs"]["phases"] == one.phases
        assert run_span["attrs"]["slots"] == one.slots
        (batch_span,) = [e for e in events if e["name"] == "sim.run_batch"]
        assert batch_span["attrs"]["trials"] == 2
        assert batch_span["attrs"]["phases"] == int(many.phases.sum())
        assert batch_span["attrs"]["events"] > 0
        plain = MCSimulator(mk_cz(), mk_a(), C, max_slots=100_000).run(5)
        assert result_json(plain) == result_json(one)


class TestMCReplicateBatchCache:
    """Satellite: mc_replicate batch × cache interplay at C>1, mirroring
    the single-channel suite."""

    MK_A = staticmethod(lambda: FractionJammer(0.2, max_total=1500))

    def _replicate(self, n, config=None):
        return mc_replicate(
            mk_cz, self.MK_A, n, seed=9, n_channels=C,
            max_slots=50_000, config=config,
        )

    def test_batched_bit_identical(self):
        serial = self._replicate(7)
        batched = self._replicate(7, RunConfig(batch=3))
        assert [result_json(r) for r in serial] == [
            result_json(r) for r in batched
        ]

    def test_cache_interplay_mixed_hits_and_misses(self, tmp_path):
        reference = self._replicate(6)

        # Warm the store with a serial run of the first 3 replications —
        # the state a killed sweep leaves behind.
        warm = RunConfig(
            cache=True, cache_dir=tmp_path, batch=1, experiment="TMC"
        )
        self._replicate(3, warm)

        # A batched resume over all 6 must serve the 3 warm entries as
        # hits, batch only the missing trials, and still match serially.
        config = RunConfig(
            cache=True, cache_dir=tmp_path, batch=4, experiment="TMC"
        )
        batched = self._replicate(6, config)
        assert [result_json(r) for r in batched] == [
            result_json(r) for r in reference
        ]
        assert config.stats.cache_hits == 3
        assert config.stats.batch_trials == 3  # only the misses ran

        # Second batched run: all hits, nothing batched.
        config2 = RunConfig(
            cache=True, cache_dir=tmp_path, batch=4, experiment="TMC"
        )
        again = self._replicate(6, config2)
        assert [result_json(r) for r in again] == [
            result_json(r) for r in reference
        ]
        assert config2.stats.cache_hits == 6
        assert config2.stats.batch_tasks == 0

    def test_serial_warm_batched_resume_cross_driver(self, tmp_path):
        # Entries cached by one-trial groups (batch 1) must satisfy a
        # batch-2 resume byte-for-byte.
        cfg_serial = RunConfig(
            cache=True, cache_dir=tmp_path, batch=1, experiment="TMX"
        )
        first = self._replicate(5, cfg_serial)
        cfg_batch = RunConfig(
            cache=True, cache_dir=tmp_path, batch=2, experiment="TMX"
        )
        resumed = self._replicate(5, cfg_batch)
        assert [result_json(r) for r in first] == [
            result_json(r) for r in resumed
        ]
        assert cfg_batch.stats.cache_hits == 5
        assert cfg_batch.stats.batch_tasks == 0


# Hard-coded pins for test_rng_stream_regression_pin (C=4, CZ sim
# params, FractionJammer(0.15, max_total=2000), seeds [0, 1, 2]).
PIN_NODE_TOTALS = [1689, 2730, 1643]
PIN_ADV_COSTS = [1523, 2000, 1523]
PIN_SLOTS = [448, 960, 448]
PIN_PHASES = [3, 4, 3]
PIN_SUCCESS = [True, True, True]
