"""Differential oracle: the sparse O(events) resolver must be
bit-identical to the dense O(L) reference on arbitrary phases.

Every field of :class:`~repro.channel.events.PhaseOutcome` — not just
``heard`` — must agree between :func:`repro.channel.model.resolve_phase`
(the one-trial call of the engine's one sparse kernel,
``resolve_phase_batch_core``) and
:func:`repro.channel.model_dense.resolve_phase_dense`, across spoofs,
targeted jams, interval and explicit-slot plan construction, and
multi-group node assignments.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import EpochTargetJammer, SilentAdversary
from repro.channel import model
from repro.channel.events import (
    JamPlan,
    ListenEvents,
    SendEvents,
    SlotSet,
    SlotStatus,
    TxKind,
)
from repro.channel.model import (
    _unique_tx_content,
    resolve_phase,
    slot_content,
)
from repro.channel.model_dense import resolve_phase_dense
from repro.engine import simulator
from repro.engine.simulator import Simulator, run
from repro.protocols import OneToOneBroadcast, OneToOneParams
from repro.store import run_result_to_dict
from tests.conftest import calling_loop

pytestmark = pytest.mark.engine

KINDS = [int(k) for k in TxKind]


def assert_outcomes_identical(a, b) -> None:
    """Full PhaseOutcome equality, field by field."""
    np.testing.assert_array_equal(a.heard, b.heard)
    np.testing.assert_array_equal(a.send_cost, b.send_cost)
    np.testing.assert_array_equal(a.listen_cost, b.listen_cost)
    assert a.adversary_cost == b.adversary_cost
    assert a.n_clear == b.n_clear
    assert a.n_noise == b.n_noise
    assert a.data_slots == b.data_slots


@st.composite
def full_phase_setup(draw):
    """Random phase with spoofs, targeted jams, and group assignments."""
    length = draw(st.integers(4, 160))
    n_nodes = draw(st.integers(1, 6))
    n_sends = draw(st.integers(0, 50))
    n_listens = draw(st.integers(0, 50))
    n_spoofs = draw(st.integers(0, 8))
    sends = SendEvents(
        np.array(draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_sends,
                               max_size=n_sends)), dtype=np.int64),
        np.array(draw(st.lists(st.integers(0, length - 1), min_size=n_sends,
                               max_size=n_sends)), dtype=np.int64),
        np.array(draw(st.lists(st.sampled_from(KINDS), min_size=n_sends,
                               max_size=n_sends)), dtype=np.int8),
    )
    listens = ListenEvents(
        np.array(draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_listens,
                               max_size=n_listens)), dtype=np.int64),
        np.array(draw(st.lists(st.integers(0, length - 1), min_size=n_listens,
                               max_size=n_listens)), dtype=np.int64),
    )
    n_groups = draw(st.integers(1, 3))
    targeted = {}
    for g in range(n_groups):
        if draw(st.booleans()):
            targeted[g] = np.array(
                draw(st.lists(st.integers(0, length - 1), max_size=length // 2)),
                dtype=np.int64,
            )
    plan = JamPlan(
        length=length,
        global_slots=np.array(
            draw(st.lists(st.integers(0, length - 1), max_size=length)),
            dtype=np.int64,
        ),
        targeted=targeted,
        spoof_slots=np.array(
            draw(st.lists(st.integers(0, length - 1), min_size=n_spoofs,
                          max_size=n_spoofs)), dtype=np.int64),
        spoof_kinds=np.array(
            draw(st.lists(st.sampled_from(KINDS), min_size=n_spoofs,
                          max_size=n_spoofs)), dtype=np.int8),
    )
    # Deliberately allow group assignments that leave group 0 empty.
    groups = np.array(
        draw(st.lists(st.integers(0, n_groups - 1), min_size=n_nodes,
                      max_size=n_nodes)), dtype=np.int64)
    return length, n_nodes, sends, listens, plan, groups


@settings(max_examples=200, deadline=None)
@given(full_phase_setup())
def test_sparse_equals_dense_oracle(setup):
    length, n_nodes, sends, listens, plan, groups = setup
    sparse = resolve_phase(length, n_nodes, sends, listens, plan, groups)
    dense = resolve_phase_dense(length, n_nodes, sends, listens, plan, groups)
    assert_outcomes_identical(sparse, dense)


@settings(max_examples=100, deadline=None)
@given(full_phase_setup())
def test_sparse_equals_dense_without_groups(setup):
    length, n_nodes, sends, listens, plan, _ = setup
    sparse = resolve_phase(length, n_nodes, sends, listens, plan)
    dense = resolve_phase_dense(length, n_nodes, sends, listens, plan)
    assert_outcomes_identical(sparse, dense)


@settings(max_examples=100, deadline=None)
@given(full_phase_setup())
def test_slot_content_at_matches_dense_content(setup):
    # The sparse kernel's per-slot content: its status at each distinct
    # transmission slot, CLEAR everywhere else.
    length, _, sends, _, plan, _ = setup
    dense = slot_content(length, sends, plan)
    sparse = np.zeros(length, dtype=np.int8)  # SlotStatus.CLEAR
    tx_slots = np.concatenate([sends.slots, plan.spoof_slots])
    tx_kinds = np.concatenate([sends.kinds, plan.spoof_kinds])
    if len(tx_slots):
        slots, statuses = _unique_tx_content(tx_slots, tx_kinds)
        sparse[slots] = statuses
    np.testing.assert_array_equal(sparse, dense)


class TestGroundTruthIsGroupZero:
    """Regression: n_clear/n_noise promise *group 0's* view, even when
    no node currently belongs to group 0 (the seed resolver used the
    lowest present group instead)."""

    def test_group_zero_view_with_empty_group_zero(self):
        # Both nodes live in group 1; group 1 is targeted in slot 1.
        # Group 0's channel stays clean, so the ground truth must show
        # zero noise and a decodable channel.
        length = 4
        plan = JamPlan(length=length, targeted={1: np.array([1])})
        sends = SendEvents(
            np.array([0]), np.array([1]), np.array([int(TxKind.DATA)], np.int8)
        )
        groups = np.array([1, 1])
        for resolver in (resolve_phase, resolve_phase_dense):
            out = resolver(length, 2, sends, ListenEvents.empty(), plan, groups)
            assert out.n_noise == 0, resolver.__name__
            assert out.n_clear == length - 1, resolver.__name__

    def test_global_jam_still_counts_for_absent_group_zero(self):
        length = 8
        plan = JamPlan(length=length, global_slots=np.array([0, 1, 2]))
        groups = np.array([2, 2])
        for resolver in (resolve_phase, resolve_phase_dense):
            out = resolver(
                length, 2, SendEvents.empty(), ListenEvents.empty(), plan, groups
            )
            assert out.n_noise == 3, resolver.__name__
            assert out.n_clear == 5, resolver.__name__


class TestHalfDuplexPinned:
    """Half-duplex semantics: a node that schedules a send and a listen
    in the same slot performs only the send — charged once, hears
    nothing — regardless of resolver."""

    @pytest.mark.parametrize("resolver", [resolve_phase, resolve_phase_dense],
                             ids=["sparse", "dense"])
    def test_send_and_listen_same_slot_charged_once(self, resolver):
        sends = SendEvents(
            np.array([0]), np.array([2]), np.array([int(TxKind.DATA)], np.int8)
        )
        listens = ListenEvents(np.array([0, 0, 1]), np.array([2, 3, 2]))
        out = resolver(4, 2, sends, listens, JamPlan.silent(4))
        assert out.send_cost[0] == 1
        assert out.listen_cost[0] == 1  # only the slot-3 listen survives
        assert out.heard[0].sum() == 1
        assert out.heard[0, SlotStatus.CLEAR] == 1  # slot 3, not its own DATA
        # The *other* node's same-slot listen is unaffected.
        assert out.heard[1, SlotStatus.DATA] == 1

    @pytest.mark.parametrize("resolver", [resolve_phase, resolve_phase_dense],
                             ids=["sparse", "dense"])
    def test_many_conflicts_drop_exactly_the_conflicting_listens(self, resolver):
        rng = np.random.default_rng(42)
        length, n_nodes, n_ev = 64, 8, 120
        sends = SendEvents(
            rng.integers(0, n_nodes, n_ev),
            rng.integers(0, length, n_ev),
            np.full(n_ev, int(TxKind.DATA), np.int8),
        )
        listens = ListenEvents(
            rng.integers(0, n_nodes, n_ev), rng.integers(0, length, n_ev)
        )
        out = resolver(length, n_nodes, sends, listens, JamPlan.silent(length))
        send_keys = set(
            (sends.nodes * length + sends.slots).tolist()
        )
        expected_kept = sum(
            1
            for u, s in zip(listens.nodes.tolist(), listens.slots.tolist())
            if u * length + s not in send_keys
        )
        assert out.listen_cost.sum() == expected_kept


@st.composite
def painted_jam_batch(draw):
    """A batch whose global jams are a few intervals under many listens,
    which the core paints rather than searches."""
    b = draw(st.integers(1, 3))
    n = draw(st.integers(8, 32))
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths, sends, listens, plans = [], [], [], []
    for _ in range(b):
        length = int(fill.integers(64, 400))
        n_sends, n_listens = int(fill.integers(0, 50)), int(fill.integers(500, 1500))
        sends.append(SendEvents(
            fill.integers(0, n, n_sends), fill.integers(0, length, n_sends),
            fill.choice(KINDS, n_sends).astype(np.int8),
        ))
        listens.append(ListenEvents(
            fill.integers(0, n, n_listens), fill.integers(0, length, n_listens)
        ))
        edges = np.sort(fill.choice(length + 1, 2 * int(fill.integers(0, 4)),
                                    replace=False))
        n_spoofs = int(fill.integers(0, 4))
        plans.append(JamPlan(
            length,
            global_slots=SlotSet(edges[0::2], edges[1::2]),
            targeted={1: fill.choice(length, int(fill.integers(0, 20)))},
            spoof_slots=fill.integers(0, length, n_spoofs),
            spoof_kinds=fill.choice(KINDS, n_spoofs).astype(np.int8),
        ))
        lengths.append(length)
    groups = [fill.integers(0, 2, n)] * b
    return lengths, n, sends, listens, plans, groups


class TestGlobalJamPaint:
    """A global jam of few intervals under many listens is painted into
    the status buffer; the outcome equals searching every listen among
    the intervals, and the dense reference per trial."""

    @settings(max_examples=60, deadline=None)
    @given(case=painted_jam_batch())
    def test_paint_equals_search_and_dense(self, case):
        lengths, n, sends, listens, plans, groups = case
        paint = model._paint_intervals
        decisions = []

        def spy(jam, n_listens):
            got = paint(jam, n_listens)
            decisions.append(got is not None)
            return got

        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "_paint_intervals", spy)
            painted = model.resolve_phase_batch_core(
                lengths, n, sends, listens, plans, groups
            )
        if any(len(p.global_slots) for p in plans):
            assert decisions == [True]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "_paint_intervals", lambda jam, n_listens: None)
            searched = model.resolve_phase_batch_core(
                lengths, n, sends, listens, plans, groups
            )
        for t in range(len(lengths)):
            want = resolve_phase_dense(
                lengths[t], n, sends[t], listens[t], plans[t], groups[t]
            )
            assert_outcomes_identical(painted.outcome_for(t), want)
            assert_outcomes_identical(searched.outcome_for(t), want)


P11 = OneToOneParams.sim()


def mk_jammer():
    return EpochTargetJammer(P11.first_epoch + 2, q=1.0, target_listener=True)


class TestGetResolver:
    """The engine has one resolver: both phase loops call the sparse
    kernel ``resolve_phase_batch_core`` by name (the scalar loop with
    one trial), ``resolver=`` is not an engine option, and the
    ``REPRO_RESOLVER`` environment variable selects nothing."""

    @staticmethod
    def play(monkeypatch) -> str:
        """One run and one two-trial batch; asserts every phase went
        through the sparse kernel and returns the results as JSON."""
        calls = {"run": 0, "run_batch": 0}

        def spy(*args, **kwargs):
            # The scalar loop resolves its one trial per phase.
            loop = calling_loop()
            if loop == "run":
                assert len(args[4]) == 1
            calls[loop] += 1
            return model.resolve_phase_batch_core(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(simulator, "resolve_phase_batch_core", spy)
            one = Simulator(OneToOneBroadcast(P11), mk_jammer()).run(123)
            two = Simulator(OneToOneBroadcast(P11), mk_jammer()).run_batch(
                [5, 6]
            )
        assert calls["run"] == one.phases
        assert calls["run_batch"] == max(r.phases for r in two)
        return json.dumps(
            [run_result_to_dict(r) for r in (one, *two)], sort_keys=True
        )

    def test_explicit_name(self):
        assert not hasattr(simulator, "resolve_phase")
        assert (
            simulator.resolve_phase_batch_core
            is model.resolve_phase_batch_core
        )
        for name in ("sparse", "dense"):
            with pytest.raises(TypeError):
                Simulator(OneToOneBroadcast(), SilentAdversary(), resolver=name)

    def test_bad_name_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESOLVER", raising=False)
        want = self.play(monkeypatch)
        with pytest.raises(TypeError):
            Simulator(OneToOneBroadcast(), SilentAdversary(), resolver="turbo")
        monkeypatch.setenv("REPRO_RESOLVER", "turbo")
        assert self.play(monkeypatch) == want

    def test_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESOLVER", raising=False)
        want = self.play(monkeypatch)
        for value in ("dense", "sparse"):
            monkeypatch.setenv("REPRO_RESOLVER", value)
            assert self.play(monkeypatch) == want


def test_simulator_resolver_bit_identical(dense_oracle):
    """A full run on the dense oracle yields identical results."""
    sparse = run(OneToOneBroadcast(P11), mk_jammer(), seed=123)
    with dense_oracle() as calls:
        dense = run(OneToOneBroadcast(P11), mk_jammer(), seed=123)
    assert calls["run"] == dense.phases
    np.testing.assert_array_equal(sparse.node_costs, dense.node_costs)
    assert sparse.adversary_cost == dense.adversary_cost
    assert sparse.slots == dense.slots
    assert sparse.phases == dense.phases
    assert sparse.stats == dense.stats
