"""Unit tests for the multichannel extension."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel.events import ListenEvents, SendEvents, TxKind
from repro.channel.intervals import SlotSet
from repro.errors import ConfigurationError
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
    hopping_rate_params,
    mc_run,
)
from repro.multichannel.adversaries import MCContext
from repro.multichannel.engine import _hop
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams


def ctx(length=64, C=4, tags=None, spent=0):
    return MCContext(
        phase_index=0,
        length=length,
        n_channels=C,
        n_nodes=2,
        tags=tags or {},
        sends=SendEvents.empty(),
        listens=ListenEvents.empty(),
        spent=spent,
    )


class TestHop:
    def test_preserves_real_slot(self, rng):
        slots = np.arange(50, dtype=np.int64)
        virtual = _hop(slots, 100, 4, rng)
        assert np.array_equal(virtual % 100, slots)
        assert (virtual // 100 < 4).all()

    def test_channels_uniform(self, rng):
        slots = np.zeros(8000, dtype=np.int64)
        virtual = _hop(slots, 10, 4, rng)
        counts = np.bincount(virtual // 10, minlength=4)
        assert (np.abs(counts - 2000) < 5 * np.sqrt(2000)).all()

    def test_empty(self, rng):
        out = _hop(np.empty(0, dtype=np.int64), 10, 4, rng)
        assert len(out) == 0

    def test_c1_is_identity_and_draws_no_rng(self, rng):
        # At C = 1 there is nothing to hop over; consuming the stream
        # anyway would desynchronise the C = 1 engine from Simulator.
        slots = np.arange(50, dtype=np.int64)
        before = rng.bit_generator.state
        out = _hop(slots, 100, 1, rng)
        assert np.array_equal(out, slots)
        assert rng.bit_generator.state == before


class TestAdversaries:
    def test_band_jammer_costs_k_per_slot(self):
        plan = ChannelBandJammer(n_channels_jammed=3, q=0.5).plan_phase(
            ctx(length=64, C=4)
        )
        assert plan.cost == 3 * 32
        assert plan.length == 4 * 64

    def test_band_clamped_to_C(self):
        plan = ChannelBandJammer(n_channels_jammed=9, q=1.0).plan_phase(
            ctx(length=10, C=4)
        )
        assert plan.cost == 40

    def test_band_budget(self):
        adv = ChannelBandJammer(n_channels_jammed=4, q=1.0, max_total=7)
        assert adv.plan_phase(ctx(length=10, C=4, spent=3)).cost == 4

    def test_epoch_target_blankets_all_channels(self):
        adv = MCEpochTargetJammer(target_epoch=10, q=1.0)
        plan = adv.plan_phase(ctx(length=16, C=8, tags={"epoch": 9}))
        assert plan.cost == 8 * 16
        assert adv.plan_phase(ctx(length=16, C=8, tags={"epoch": 11})).cost == 0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ChannelBandJammer(-1)
        with pytest.raises(ConfigurationError):
            MCEpochTargetJammer(5, q=1.5)


class TestChannelJamPlan:
    def test_band_and_compile(self):
        plan = ChannelJamPlan.band(64, 4, 3, SlotSet.range(0, 32))
        assert plan.cost == 3 * 32
        assert np.array_equal(plan.channel_costs(), [32, 32, 32, 0])
        compiled = plan.compile()
        assert compiled.length == 4 * 64
        assert compiled.cost == 3 * 32

    def test_band_suffix_matches_manual(self):
        plan = ChannelJamPlan.band_suffix(100, 2, 2, 30)
        assert plan.channels[0] == SlotSet.range(70, 100)
        assert plan.cost == 60

    def test_rejects_out_of_range(self):
        from repro.errors import AdversaryError

        with pytest.raises(AdversaryError):
            ChannelJamPlan(64, 4, {4: SlotSet.range(0, 1)})
        with pytest.raises(AdversaryError):
            ChannelJamPlan(64, 4, {0: SlotSet.range(0, 65)})

    def test_take_first_cells_is_time_major(self):
        # 3 full channels of 4 slots: budget 7 covers slots 0 and 1
        # (3 cells each) plus one cell of slot 2 on the lowest channel.
        plan = ChannelJamPlan.band(4, 4, 3, SlotSet.range(0, 4))
        cut = plan.take_first_cells(7)
        assert cut.cost == 7
        assert np.array_equal(cut.channel_costs(), [3, 2, 2, 0])

    def test_take_first_cells_degenerate(self):
        plan = ChannelJamPlan.band(4, 2, 2, SlotSet.range(0, 4))
        assert plan.take_first_cells(0).cost == 0
        assert plan.take_first_cells(99) is plan

    def test_virtual_and_compiled_round_trips(self):
        plan = ChannelJamPlan.band_suffix(16, 4, 2, 8)
        again = ChannelJamPlan.from_compiled(16, 4, plan.compile())
        assert again.channels == plan.channels
        virtual = plan.compile().global_slots
        assert ChannelJamPlan.from_virtual(16, 4, virtual).channels == plan.channels

    def test_json_round_trip(self):
        plan = ChannelJamPlan.band_suffix(16, 4, 3, 5)
        assert ChannelJamPlan.from_json(plan.to_json()).channels == plan.channels


class TestCZParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CZParams(n_nodes=1)
        with pytest.raises(ConfigurationError):
            CZParams(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            CZParams(n_channels=0)
        with pytest.raises(ConfigurationError):
            CZParams(first_epoch=10, max_epoch=9)

    def test_rates_decay_and_cap(self):
        p = CZParams.sim(n_nodes=16, n_channels=4)
        i = p.first_epoch
        assert p.rate(i + 2) < p.rate(i) <= p.send_cap
        # ~1 expected sender per channel once informed: p_send <= C/n.
        assert p.send_probability(i) <= 4 / 16

    def test_phase_length_doubles(self):
        p = CZParams.sim()
        assert p.phase_length(p.first_epoch + 1) == 2 * p.phase_length(p.first_epoch)


class TestCZBroadcast:
    def test_spreads_unjammed(self):
        for C in (1, 4):
            res = mc_run(
                CZBroadcast(CZParams.sim(n_nodes=16, n_channels=C)),
                ChannelBandJammer(0), C, seed=5,
            )
            assert res.success
            assert res.stats["n_informed"] == 16

    def test_aborts_past_max_epoch(self):
        params = CZParams(
            n_nodes=16, n_channels=1, first_epoch=1, max_epoch=2,
            send_cap=1e-6,
        )
        res = mc_run(CZBroadcast(params), ChannelBandJammer(0), 1, seed=0)
        assert not res.success
        assert res.stats["aborted"]

    def test_channel_count_must_match_engine(self):
        proto = CZBroadcast(CZParams.sim(n_nodes=16, n_channels=4))
        with pytest.raises(ConfigurationError):
            MCSimulator(proto, ChannelBandJammer(0), 2)


class TestNewMCAdversaries:
    def test_fraction_jammer_cell_rate(self):
        # (1-eps) * C cells per slot, spread as full bands + a prefix.
        plan = FractionJammer(0.25).plan_phase(ctx(length=100, C=4))
        assert plan.cost == 300
        decompiled = ChannelJamPlan.from_compiled(100, 4, plan)
        assert np.array_equal(decompiled.channel_costs(), [100, 100, 100, 0])

    def test_fraction_jammer_c1_jams_prefix(self):
        plan = FractionJammer(0.1).plan_phase(ctx(length=100, C=1))
        assert plan.cost == 90
        decompiled = ChannelJamPlan.from_compiled(100, 1, plan)
        assert decompiled.channels[0] == SlotSet.range(0, 90)

    def test_fraction_jammer_budget_stays_fractional(self):
        # A time-major cut keeps her a fraction jammer while the
        # battery lasts, instead of collapsing onto channel 0.
        plan = FractionJammer(0.25, max_total=30).plan_phase(
            ctx(length=100, C=4)
        )
        assert plan.cost == 30
        costs = ChannelJamPlan.from_compiled(100, 4, plan).channel_costs()
        assert costs.max() - costs[costs > 0].min() <= 1

    def test_sweep_rotates_with_phase(self):
        adv = ChannelSweepJammer(width=2, step=1, q=1.0)
        plans = {}
        for i in (0, 1, 4):
            c = dataclasses.replace(ctx(length=10, C=4), phase_index=i)
            plans[i] = ChannelJamPlan.from_compiled(
                10, 4, adv.plan_phase(c)
            ).channel_costs()
        assert np.array_equal(plans[0], [10, 10, 0, 0])
        assert np.array_equal(plans[1], [0, 10, 10, 0])
        assert np.array_equal(plans[4], [10, 10, 0, 0])  # wrapped around

    def test_follower_jams_observed_cells(self):
        listens = ListenEvents(
            np.array([0, 1], dtype=np.int64),
            np.array([1 * 10 + 9, 3 * 10 + 8], dtype=np.int64),
        )
        c = dataclasses.replace(ctx(length=10, C=4), listens=listens)
        plan = ChannelFollowerJammer(q=0.5).plan_phase(c)
        decompiled = ChannelJamPlan.from_compiled(10, 4, plan)
        assert decompiled.channels[1] == SlotSet.range(9, 10)
        assert decompiled.channels[3] == SlotSet.range(8, 9)
        assert plan.cost == 2

    def test_budget_cap_exhausts_exactly(self):
        adv = MCBudgetCap(FractionJammer(0.25), budget=350)
        res = mc_run(
            CZBroadcast(CZParams.sim(n_nodes=16, n_channels=4)),
            adv, 4, seed=1, max_slots=100_000,
        )
        assert res.adversary_cost <= 350

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            FractionJammer(0.0)
        with pytest.raises(ConfigurationError):
            FractionJammer(1.0)
        with pytest.raises(ConfigurationError):
            ChannelSweepJammer(-1)
        with pytest.raises(ConfigurationError):
            ChannelFollowerJammer(q=1.5)
        with pytest.raises(ConfigurationError):
            MCBudgetCap(FractionJammer(0.5), budget=-1)


class TestMCSimulator:
    def test_c1_equivalent_semantics(self):
        # One channel: the multichannel engine is the ordinary model.
        res = mc_run(
            OneToOneBroadcast(OneToOneParams.sim()),
            MCEpochTargetJammer(target_epoch=0),
            1, seed=0,
        )
        assert res.success
        assert res.max_node_cost < 300

    def test_adversary_pays_C_per_horizon(self):
        # Note: delivery is NOT asserted here — the uncorrected protocol
        # legitimately fails sometimes at C=4 (hop dilution, see E15a);
        # this test pins only the energy accounting.
        params = OneToOneParams.sim()
        target = params.first_epoch + 4
        runs = {}
        for C in (1, 4):
            runs[C] = mc_run(
                OneToOneBroadcast(params),
                MCEpochTargetJammer(target, q=1.0),
                C, seed=1,
            )
        assert (
            runs[1].stats["final_epoch"] == runs[4].stats["final_epoch"]
        )  # same blocked horizon
        assert runs[4].adversary_cost == 4 * runs[1].adversary_cost

    def test_invalid_channels(self):
        with pytest.raises(ConfigurationError):
            MCSimulator(
                OneToOneBroadcast(OneToOneParams.sim()),
                MCEpochTargetJammer(5), 0,
            )

    def test_latency_counted_in_real_slots(self):
        params = OneToOneParams.sim()
        res = mc_run(
            OneToOneBroadcast(params), MCEpochTargetJammer(target_epoch=0),
            8, seed=2,
        )
        # One epoch = two phases of 2^first_epoch real slots each
        # (plus possibly a second epoch).
        assert res.slots % (2 ** params.first_epoch) == 0

    def test_determinism(self):
        a = mc_run(OneToOneBroadcast(OneToOneParams.sim()),
                   MCEpochTargetJammer(8, q=1.0), 4, seed=9)
        b = mc_run(OneToOneBroadcast(OneToOneParams.sim()),
                   MCEpochTargetJammer(8, q=1.0), 4, seed=9)
        assert list(a.node_costs) == list(b.node_costs)
        assert a.adversary_cost == b.adversary_cost


class TestHoppingRateParams:
    def test_identity_at_one_channel(self):
        base = OneToOneParams.sim()
        assert hopping_rate_params(base, 1) is base

    def test_rate_boosted_by_sqrt_C(self):
        base = OneToOneParams.sim()
        C = 4
        corrected = hopping_rate_params(base, C)
        i = corrected.first_epoch
        ratio = corrected.send_probability(i) / base.send_probability(i)
        assert ratio == pytest.approx(np.sqrt(C), rel=1e-9)

    def test_probability_stays_valid(self):
        base = OneToOneParams.sim()
        for C in (2, 8, 16, 64):
            p = hopping_rate_params(base, C)
            assert p.send_probability(p.first_epoch) <= 0.75

    def test_correction_restores_success(self):
        base = OneToOneParams.sim(epsilon=0.1)
        C = 8
        corrected = hopping_rate_params(base, C)
        wins = sum(
            mc_run(
                OneToOneBroadcast(corrected),
                MCEpochTargetJammer(target_epoch=0),
                C, seed=s,
            ).success
            for s in range(40)
        )
        assert wins >= 36

    def test_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            hopping_rate_params(object(), 4)

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(ConfigurationError):
            hopping_rate_params(OneToOneParams.sim(), 0)

    def test_raises_first_and_max_epoch_when_needed(self):
        # A tiny first epoch cannot hold the sqrt(C)-boosted rate; the
        # correction must push first_epoch up (and keep max_epoch a
        # full ladder above it) rather than emit probabilities > 1.
        base = dataclasses.replace(
            OneToOneParams.sim(), first_epoch=2, max_epoch=5
        )
        corrected = hopping_rate_params(base, 16)
        assert corrected.first_epoch > base.first_epoch
        assert corrected.max_epoch >= corrected.first_epoch + 20
        assert corrected.send_probability(corrected.first_epoch) <= 1.0


class TestSingleChannelEquivalence:
    """C = 1 on the MC engine must be statistically indistinguishable
    from the ordinary engine: same cost scale, same success rate."""

    def test_distribution_match(self):
        from repro.adversaries.blocking import EpochTargetJammer as SCJammer
        from repro.engine.simulator import run as sc_run

        params = OneToOneParams.sim()
        target = params.first_epoch + 4
        reps = 15
        mc_costs, sc_costs = [], []
        for s in range(reps):
            mc = mc_run(
                OneToOneBroadcast(params),
                MCEpochTargetJammer(target, q=1.0),
                1, seed=s,
            )
            sc = sc_run(
                OneToOneBroadcast(params),
                SCJammer(target, q=1.0),  # global jam: same cost model at C=1
                seed=1000 + s,
            )
            assert mc.success and sc.success
            mc_costs.append(mc.max_node_cost)
            sc_costs.append(sc.max_node_cost)
        mc_mean, sc_mean = np.mean(mc_costs), np.mean(sc_costs)
        assert abs(mc_mean - sc_mean) / sc_mean < 0.25

    def test_exact_bit_identity_at_c1(self):
        # Stronger than the distributional check: with the C = 1 hop
        # skipped, the MC engine consumes byte-for-byte the same rng
        # streams as Simulator, so every measured number must agree
        # exactly on the same seed.
        from repro.adversaries.blocking import EpochTargetJammer as SCJammer
        from repro.engine.simulator import run as sc_run

        params = OneToOneParams.sim()
        target = params.first_epoch + 4
        for s in (0, 3, 9):
            mc = mc_run(
                OneToOneBroadcast(params),
                MCEpochTargetJammer(target, q=1.0),
                1, seed=s,
            )
            sc = sc_run(
                OneToOneBroadcast(params), SCJammer(target, q=1.0), seed=s
            )
            assert list(mc.node_costs) == list(sc.node_costs)
            assert mc.adversary_cost == sc.adversary_cost
            assert mc.slots == sc.slots
            assert mc.success == sc.success


class TestBatchIdentity:
    """MCSimulator.run_batch must stay per-trial bit-identical to run
    across the new protocol and adversary zoo."""

    @pytest.mark.parametrize(
        "make_adversary",
        [
            lambda: FractionJammer(0.15, max_total=2000),
            lambda: ChannelSweepJammer(2, step=3, q=0.8, max_total=2000),
            lambda: ChannelFollowerJammer(q=0.9, max_total=2000),
            lambda: MCBudgetCap(FractionJammer(0.25), budget=500),
            lambda: ChannelBandJammer(2, q=0.6, max_total=2000),
        ],
        ids=["fraction", "sweep", "follower", "budget-cap", "band"],
    )
    def test_batch_matches_serial(self, make_adversary):
        C = 4
        make_protocol = lambda: CZBroadcast(  # noqa: E731
            CZParams.sim(n_nodes=16, n_channels=C)
        )
        seeds = [11, 12, 13]
        sim = MCSimulator(
            make_protocol(), make_adversary(), C, max_slots=100_000
        )
        batched = list(
            sim.run_batch(
                seeds, adversaries=[make_adversary() for _ in seeds]
            )
        )
        for seed, b in zip(seeds, batched):
            solo = MCSimulator(
                make_protocol(), make_adversary(), C, max_slots=100_000
            ).run(seed)
            assert list(b.node_costs) == list(solo.node_costs)
            assert b.adversary_cost == solo.adversary_cost
            assert b.slots == solo.slots
            assert b.success == solo.success


class TestFigure2UnderHopping:
    """Figure 2 composes with hopping too — with a twist worth pinning:
    the noise-floor self-measurement reads *per-channel* occupancy, so
    the ``n_u = 2^i/S**2`` estimate comes out as ``~n/C`` rather than
    ``n``.  Correctness survives (helpers still only terminate once
    everyone is informed in practice), and termination comes earlier
    because the diluted floor releases rates sooner."""

    def test_broadcast_succeeds_and_estimates_per_channel_load(self):
        from repro.protocols.one_to_n import OneToNBroadcast

        n, C = 32, 4
        res = mc_run(
            OneToNBroadcast(n), MCEpochTargetJammer(0), C, seed=3,
            max_slots=60_000_000,
        )
        assert res.success
        assert res.stats["n_informed"] == n
        est = res.stats["n_estimates"]
        est = est[~np.isnan(est)]
        assert len(est) == n
        # The estimate tracks n/C within a small constant.
        assert n / C / 4 <= np.median(est) <= n / C * 4

    def test_single_channel_estimate_tracks_n(self):
        from repro.protocols.one_to_n import OneToNBroadcast

        n = 32
        res = mc_run(
            OneToNBroadcast(n), MCEpochTargetJammer(0), 1, seed=3,
            max_slots=60_000_000,
        )
        est = res.stats["n_estimates"]
        est = est[~np.isnan(est)]
        assert n / 4 <= np.median(est) <= n * 4
