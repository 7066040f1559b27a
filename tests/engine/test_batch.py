"""Differential tests for the trial-batched kernel.

The batched engine's whole contract is *bit-identity*: trial ``t`` of
``Simulator.run_batch(seeds)`` must equal ``Simulator.run(seeds[t])``
exactly — same rng stream per trial, same costs, same stats — for every
protocol/adversary in the zoo.  These tests enforce that contract at
every layer: the stacked samplers and resolver, ``JamPlan`` batch
algebra, ``run_batch`` itself, the experiment drivers (``replicate`` /
``sweep_epoch_targets`` with ``RunConfig(batch=...)``), the cache
interplay, and a hard-coded rng-stream regression pin.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    BudgetCap,
    EpochTargetJammer,
    GreedyAdaptiveJammer,
    MarkovJammer,
    PeriodicJammer,
    QBlockingJammer,
    RandomJammer,
    ReactiveProductJammer,
    SilentAdversary,
    SpoofingAdversary,
    SuffixJammer,
    WindowedJammer,
)
from repro.channel.events import JamPlan, PhaseOutcome
from repro.channel.model import resolve_phase_batch
from repro.channel.model_dense import resolve_phase_dense
from repro.engine.executor import ExecutorStats
from repro.engine.sampling import (
    sample_action_events,
    sample_action_events_batch,
)
from repro.engine.simulator import BatchResult, Simulator, run, run_batch
from repro.errors import ConfigurationError
from repro.experiments.registry import RunConfig
from repro.experiments.runner import replicate, sweep_epoch_targets
from repro.protocols import (
    OneToNBroadcast,
    OneToNParams,
    OneToOneBroadcast,
    OneToOneParams,
)
from repro.store import run_result_to_dict

pytestmark = pytest.mark.engine

P11 = OneToOneParams.sim()


def mk_one_to_one():
    return OneToOneBroadcast(P11)


def mk_one_to_n():
    return OneToNBroadcast(6, OneToNParams.sim())


def result_json(result) -> str:
    """Canonical byte-level serialization of a RunResult."""
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def serial_reference(mk_protocol, mk_adversary, seeds, **sim_kwargs):
    return [
        Simulator(mk_protocol(), mk_adversary(), **sim_kwargs).run(s)
        for s in seeds
    ]


# One entry per adversary style: silent, stochastic, deterministic
# schedule, interval (batched plan emission), blocking (batched
# override), budget-wrapped, reactive, adaptive, spoofing — on both
# protocol families.
ZOO = [
    ("silent", mk_one_to_one, SilentAdversary),
    ("random", mk_one_to_one, lambda: RandomJammer(0.3)),
    ("periodic", mk_one_to_one, lambda: PeriodicJammer(5, 2)),
    ("suffix", mk_one_to_one, lambda: SuffixJammer(0.7)),
    ("qblock", mk_one_to_one, lambda: QBlockingJammer(0.5)),
    (
        "epoch-target",
        mk_one_to_one,
        lambda: EpochTargetJammer(
            P11.first_epoch + 2, q=1.0, target_listener=True
        ),
    ),
    (
        "budget-cap",
        mk_one_to_one,
        lambda: BudgetCap(SuffixJammer(1.0), budget=2048),
    ),
    ("markov", mk_one_to_one, lambda: MarkovJammer(0.05, 0.2, max_total=4096)),
    ("windowed", mk_one_to_one, lambda: WindowedJammer(0.4, max_total=4096)),
    ("greedy", mk_one_to_one, lambda: GreedyAdaptiveJammer(2048)),
    ("reactive", mk_one_to_one, lambda: ReactiveProductJammer(512)),
    ("spoofing", mk_one_to_one, lambda: SpoofingAdversary(budget=2048)),
    ("n-silent", mk_one_to_n, SilentAdversary),
    ("n-random", mk_one_to_n, lambda: RandomJammer(0.2)),
    (
        "n-epoch-target",
        mk_one_to_n,
        lambda: EpochTargetJammer(OneToNParams.sim().first_epoch + 1, q=0.9),
    ),
]


class TestRunBatchDifferential:
    @pytest.mark.parametrize(
        "mk_protocol,mk_adversary",
        [(p, a) for _, p, a in ZOO],
        ids=[name for name, _, _ in ZOO],
    )
    def test_bit_identical_to_serial(self, mk_protocol, mk_adversary):
        seeds = [0, 1, 2]
        serial = serial_reference(mk_protocol, mk_adversary, seeds)
        batch = Simulator(mk_protocol(), mk_adversary()).run_batch(
            seeds, adversaries=[mk_adversary() for _ in seeds]
        )
        assert len(batch) == len(seeds)
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_deepcopy_default_matches_factories(self):
        mk_a = lambda: SuffixJammer(0.6)  # noqa: E731
        seeds = [5, 6, 7]
        with_factories = Simulator(mk_one_to_one(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        defaulted = run_batch(mk_one_to_one(), mk_a(), seeds)
        for got, want in zip(defaulted, with_factories):
            assert result_json(got) == result_json(want)

    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=5),
        q=st.floats(0.0, 1.0),
    )
    def test_hypothesis_seeds_and_blocking_fractions(self, seeds, q):
        mk_a = lambda: QBlockingJammer(q)  # noqa: E731
        serial = serial_reference(mk_one_to_one, mk_a, seeds)
        batch = Simulator(mk_one_to_one(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_uneven_halting_keeps_stragglers_identical(self):
        # 1-to-n trials halt at genuinely different phases: the
        # lockstep batch thins out and survivors must stay on-stream.
        pn = OneToNParams.sim()
        mk_a = lambda: EpochTargetJammer(pn.first_epoch + 1, q=0.9)  # noqa: E731
        seeds = list(range(4))
        serial = serial_reference(mk_one_to_n, mk_a, seeds)
        assert len({r.phases for r in serial}) > 1  # they really stagger
        batch = Simulator(mk_one_to_n(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_rng_stream_regression_pin(self):
        # Hard-coded outputs: fails if *any* draw anywhere in the
        # batched path moves to a different generator or call order.
        batch = run_batch(
            mk_one_to_one(),
            BudgetCap(SuffixJammer(1.0), budget=4096),
            [0, 1, 2],
        )
        assert batch.node_costs.tolist() == [[737, 662], [797, 636], [801, 662]]
        assert batch.adversary_costs.tolist() == [4096, 4096, 4096]
        assert batch.slots.tolist() == [8064, 8064, 8064]
        assert batch.phases.tolist() == [12, 12, 12]
        assert batch.successes.tolist() == [True, True, True]

    def test_trace_recording_rejected(self):
        from repro.trace import TraceRecorder

        sim = Simulator(
            mk_one_to_one(), SilentAdversary(), trace=TraceRecorder()
        )
        with pytest.raises(ConfigurationError):
            sim.run_batch([0, 1])

    def test_empty_batch(self):
        batch = Simulator(mk_one_to_one(), SilentAdversary()).run_batch([])
        assert len(batch) == 0 and list(batch) == []

    def test_adversaries_must_match_seeds(self):
        sim = Simulator(mk_one_to_one(), SilentAdversary())
        with pytest.raises(ConfigurationError, match="2 adversaries for 3"):
            sim.run_batch(
                [0, 1, 2], adversaries=[SilentAdversary(), SilentAdversary()]
            )


class QuarterEpochJammer(EpochTargetJammer):
    """Overrides only ``plan_phase`` (another ``q``) on a jammer whose
    ``plan_phase_batch`` is batched."""

    def plan_phase(self, ctx):
        want, group = self._want_and_group(ctx)
        if want == 0:
            return JamPlan.silent(ctx.length)
        return JamPlan.suffix(ctx.length, ctx.length // 4, group=group)


class TestSubclassPlanPhase:
    """The lockstep loop plans a subclass through its own
    ``plan_phase`` when it overrides that below the nearest
    ``plan_phase_batch``."""

    def test_run_batch_matches_run(self):
        target = P11.first_epoch + 2
        mk_a = lambda: QuarterEpochJammer(  # noqa: E731
            target, q=1.0, target_listener=True
        )
        seeds = [0, 1, 2]
        serial = serial_reference(mk_one_to_one, mk_a, seeds)
        parent = serial_reference(
            mk_one_to_one,
            lambda: EpochTargetJammer(target, q=1.0, target_listener=True),
            seeds,
        )
        # The override changes the science, so planning through the
        # parent's batch form would show.
        assert [r.adversary_cost for r in serial] != [
            r.adversary_cost for r in parent
        ]
        batch = Simulator(mk_one_to_one(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        assert [result_json(r) for r in batch] == [
            result_json(r) for r in serial
        ]


class TestBatchResultApi:
    def make(self):
        return run_batch(mk_one_to_one(), SuffixJammer(0.5), [0, 1, 2, 3])

    def test_sequence_protocol(self):
        batch = self.make()
        assert len(batch) == 4
        assert batch[1] is list(batch)[1]
        assert batch.seeds == (0, 1, 2, 3)

    def test_stacked_views_match_per_trial(self):
        batch = self.make()
        assert batch.node_costs.shape == (4, 2)
        for t, r in enumerate(batch):
            np.testing.assert_array_equal(batch.node_costs[t], r.node_costs)
            assert batch.max_node_costs[t] == r.max_node_cost
            assert batch.adversary_costs[t] == r.adversary_cost
            assert batch.slots[t] == r.slots
            assert batch.phases[t] == r.phases
            assert batch.successes[t] == r.success
            assert batch.truncated[t] == r.truncated


class TestStackedKernels:
    def _random_phase(self, rng, n_nodes):
        length = int(rng.integers(1, 200))
        send_probs = rng.uniform(0, 1, n_nodes) * rng.integers(0, 2, n_nodes)
        listen_probs = rng.uniform(0, 1, n_nodes)
        send_kinds = rng.integers(1, 5, n_nodes).astype(np.int8)  # TxKind
        groups = (
            rng.integers(0, 3, n_nodes) if rng.integers(0, 2) else None
        )
        return length, send_probs, send_kinds, listen_probs, groups

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 6))
    def test_resolve_phase_batch_matches_serial(self, seed, batch_size):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 6))
        lengths, sends_list, listens_list, plans, groups_list = [], [], [], [], []
        for _ in range(batch_size):
            length, sp, sk, lp, groups = self._random_phase(rng, n_nodes)
            sends, listens = sample_action_events(rng, length, sp, sk, lp)
            n_jam = int(rng.integers(0, length + 1))
            group = None if groups is None else int(rng.integers(0, 3))
            plan = JamPlan.suffix(length, n_jam, group)
            lengths.append(length)
            sends_list.append(sends)
            listens_list.append(listens)
            plans.append(plan)
            groups_list.append(groups)
        batched = resolve_phase_batch(
            lengths, n_nodes, sends_list, listens_list, plans, groups_list
        )
        for t in range(batch_size):
            want = resolve_phase_dense(
                lengths[t],
                n_nodes,
                sends_list[t],
                listens_list[t],
                plans[t],
                groups_list[t],
            )
            got = batched[t]
            assert isinstance(got, PhaseOutcome)
            np.testing.assert_array_equal(got.heard, want.heard)
            np.testing.assert_array_equal(got.send_cost, want.send_cost)
            np.testing.assert_array_equal(got.listen_cost, want.listen_cost)
            assert got.adversary_cost == want.adversary_cost
            assert got.n_clear == want.n_clear
            assert got.n_noise == want.n_noise
            assert got.data_slots == want.data_slots

    def test_sampling_batch_matches_serial_across_dispatch(self):
        # Trials straddling every regime of _distinct_positions_multi:
        # tiny lockstep trials, a heavy-node trial (count > length // 2,
        # sampled as a complement), and an array-bound trial with
        # thousands of positions, which stays on the lockstep key axis.
        specs = [
            (8, 0.3, 0.5),
            (5, 0.95, 0.9),  # heavy: counts hug the phase length
            (2048, 0.6, 0.6),  # large: thousands of positions per node
            (1, 1.0, 1.0),
        ]
        n_nodes = 3
        rngs_a = [np.random.default_rng(100 + t) for t in range(len(specs))]
        rngs_b = [np.random.default_rng(100 + t) for t in range(len(specs))]
        lengths = [length for length, _, _ in specs]
        sp = [np.full(n_nodes, p_send) for _, p_send, _ in specs]
        sk = [np.zeros(n_nodes, dtype=np.int8) for _ in specs]
        lp = [np.full(n_nodes, p_listen) for _, _, p_listen in specs]
        batched = sample_action_events_batch(rngs_a, lengths, sp, sk, lp)
        for t in range(len(specs)):
            sends, listens = sample_action_events(
                rngs_b[t], lengths[t], sp[t], sk[t], lp[t]
            )
            got_sends, got_listens = batched[t]
            np.testing.assert_array_equal(got_sends.nodes, sends.nodes)
            np.testing.assert_array_equal(got_sends.slots, sends.slots)
            np.testing.assert_array_equal(got_sends.kinds, sends.kinds)
            np.testing.assert_array_equal(got_listens.nodes, listens.nodes)
            np.testing.assert_array_equal(got_listens.slots, listens.slots)
            # The generators must land in the same state: the *next*
            # draw is where stream divergence would first show up.
            assert rngs_a[t].integers(2**62) == rngs_b[t].integers(2**62)

    def test_suffix_batch_matches_suffix(self):
        lengths = [1, 7, 16, 100, 100]
        n_jammed = [0, 7, 3, 250, 99]  # includes clamping past length
        groups = [None, 0, 2, None, 1]
        plans = JamPlan.suffix_batch(lengths, n_jammed, groups)
        for t in range(len(lengths)):
            want = JamPlan.suffix(lengths[t], n_jammed[t], groups[t])
            got = plans[t]
            assert got.length == want.length
            assert got.cost == want.cost
            assert got.to_json() == want.to_json()
            for g in (0, 1, 2):
                np.testing.assert_array_equal(
                    got.jam_mask(g), want.jam_mask(g)
                )


class TestBatchedDrivers:
    def test_replicate_batched_bit_identical(self):
        mk_a = lambda: SuffixJammer(0.5)  # noqa: E731
        serial = replicate(mk_one_to_one, mk_a, 7, seed=3)
        batched = replicate(
            mk_one_to_one, mk_a, 7, seed=3, config=RunConfig(batch=3)
        )
        assert [result_json(r) for r in serial] == [
            result_json(r) for r in batched
        ]

    def test_sweep_batched_bit_identical(self):
        mk_a = lambda t: EpochTargetJammer(t, q=1.0)  # noqa: E731
        targets = [P11.first_epoch + 1, P11.first_epoch + 2]
        serial = sweep_epoch_targets(mk_one_to_one, mk_a, targets, 4, seed=1)
        batched = sweep_epoch_targets(
            mk_one_to_one, mk_a, targets, 4, seed=1, config=RunConfig(batch=3)
        )
        assert serial == batched  # SweepPoint is a plain dataclass

    def test_batch_stats_accounting(self):
        config = RunConfig(batch=4)
        replicate(mk_one_to_one, SilentAdversary, 10, seed=0, config=config)
        stats = config.stats
        assert stats.batch_trials == 10
        assert stats.batch_tasks == 3  # 4 + 4 + 2
        assert stats.batch_capacity == 12
        assert stats.trials_per_task == pytest.approx(10 / 3)
        assert stats.batch_fill_rate == pytest.approx(10 / 12)
        assert "batched 10 trials in 3 tasks" in stats.summary()

    def test_batch_one_runs_one_trial_groups(self):
        config = RunConfig(batch=1)
        replicate(mk_one_to_one, SilentAdversary, 5, seed=0, config=config)
        stats = config.stats
        assert stats.batch_tasks == stats.batch_trials == 5
        assert stats.batch_capacity == 5
        assert "batched 5 trials in 5 tasks (1.0/task, fill 100%)" in (
            stats.summary()
        )

    def test_stats_properties_zero_safe(self):
        stats = ExecutorStats()
        assert stats.trials_per_task == 0.0
        assert stats.batch_fill_rate == 0.0
        assert "batched" not in stats.summary()

    def test_batch_rejects_bad_value(self):
        with pytest.raises(ConfigurationError):
            replicate(
                mk_one_to_one,
                SilentAdversary,
                2,
                seed=0,
                config=RunConfig(batch=0),
            )

    def test_cache_interplay_mixed_hits_and_misses(self, tmp_path):
        mk_a = lambda: SuffixJammer(0.4)  # noqa: E731
        reference = replicate(mk_one_to_one, mk_a, 6, seed=9)

        # Warm the store with a serial run of the first 3 replications.
        warm = RunConfig(
            cache=True, cache_dir=tmp_path, batch=1, experiment="TB"
        )
        replicate(mk_one_to_one, mk_a, 3, seed=9, config=warm)

        # A batched run over all 6 must serve the 3 warm entries as
        # hits, batch only the misses, and still match serially.
        config = RunConfig(cache=True, cache_dir=tmp_path, batch=4, experiment="TB")
        batched = replicate(mk_one_to_one, mk_a, 6, seed=9, config=config)
        assert [result_json(r) for r in batched] == [
            result_json(r) for r in reference
        ]
        assert config.stats.cache_hits == 3
        assert config.stats.batch_trials == 3  # only the misses ran

        # Second batched run: all hits, nothing batched.
        config2 = RunConfig(cache=True, cache_dir=tmp_path, batch=4, experiment="TB")
        again = replicate(mk_one_to_one, mk_a, 6, seed=9, config=config2)
        assert [result_json(r) for r in again] == [
            result_json(r) for r in reference
        ]
        assert config2.stats.cache_hits == 6
        assert config2.stats.batch_tasks == 0


class TestMultichannelBatch:
    def test_run_batch_matches_serial(self):
        from repro.multichannel import MCEpochTargetJammer
        from repro.multichannel.engine import MCSimulator

        mk_a = lambda: MCEpochTargetJammer(P11.first_epoch + 2, q=1.0)  # noqa: E731
        seeds = [0, 1, 2]
        serial = [
            MCSimulator(mk_one_to_one(), mk_a(), 2).run(s) for s in seeds
        ]
        batch = MCSimulator(mk_one_to_one(), mk_a(), 2).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
        assert isinstance(batch, BatchResult)
        for got, want in zip(batch, serial):
            assert result_json(got) == result_json(want)

    def test_resolver_knob(self, dense_oracle):
        # No resolver option: the dense oracle runs the MC loops only
        # when a test patches it in, and matches the sparse kernels.
        from repro.multichannel import MCEpochTargetJammer
        from repro.multichannel.engine import MCSimulator

        with pytest.raises(TypeError):
            MCSimulator(mk_one_to_one(), SilentAdversary(), 2, resolver="dense")
        mk_a = lambda: MCEpochTargetJammer(P11.first_epoch + 2, q=1.0)  # noqa: E731
        seeds = [0, 1]

        def play():
            one = MCSimulator(mk_one_to_one(), mk_a(), 2).run(seeds[0])
            batch = MCSimulator(mk_one_to_one(), mk_a(), 2).run_batch(seeds)
            return [result_json(r) for r in (one, *batch)]

        sparse = play()
        with dense_oracle() as calls:
            dense = play()
        assert calls["run"] > 0 and calls["run_batch"] > 0
        assert dense == sparse


def test_simulator_resolver_independent_of_batching(dense_oracle):
    # The dense oracle patched into both loops: the lockstep batch must
    # match the serial dense runs bit-for-bit.
    mk_a = lambda: SuffixJammer(0.5)  # noqa: E731
    seeds = [0, 1]
    with dense_oracle() as calls:
        serial = [Simulator(mk_one_to_one(), mk_a()).run(s) for s in seeds]
        batch = Simulator(mk_one_to_one(), mk_a()).run_batch(
            seeds, adversaries=[mk_a() for _ in seeds]
        )
    assert calls["run"] > 0 and calls["run_batch"] > 0
    for got, want in zip(batch, serial):
        assert result_json(got) == result_json(want)
    # And dense equals sparse as always.
    sparse = run(mk_one_to_one(), mk_a(), seed=0)
    assert result_json(sparse) == result_json(serial[0])
