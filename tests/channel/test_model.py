"""Unit tests for slot resolution — the channel semantics of §1.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.events import (
    JamPlan,
    ListenEvents,
    SendEvents,
    SlotStatus,
    TxKind,
)
from repro.channel.model import resolve_phase, slot_content
from repro.channel.model_dense import resolve_phase_dense
from repro.errors import AdversaryError, SimulationError


def sends(*triples):
    nodes, slots, kinds = zip(*triples) if triples else ((), (), ())
    return SendEvents(
        np.array(nodes, dtype=np.int64),
        np.array(slots, dtype=np.int64),
        np.array(kinds, dtype=np.int8),
    )


def listens(*pairs):
    nodes, slots = zip(*pairs) if pairs else ((), ())
    return ListenEvents(np.array(nodes, dtype=np.int64), np.array(slots, dtype=np.int64))


class TestSlotContent:
    def test_empty_phase_all_clear(self):
        content = slot_content(8, SendEvents.empty(), JamPlan.silent(8))
        assert (content == SlotStatus.CLEAR).all()

    def test_single_sender_decodes(self):
        content = slot_content(4, sends((0, 2, TxKind.DATA)), JamPlan.silent(4))
        assert content[2] == SlotStatus.DATA
        assert (np.delete(content, 2) == SlotStatus.CLEAR).all()

    def test_collision_is_noise(self):
        content = slot_content(
            4, sends((0, 1, TxKind.DATA), (1, 1, TxKind.DATA)), JamPlan.silent(4)
        )
        assert content[1] == SlotStatus.NOISE

    def test_deliberate_noise_tx(self):
        content = slot_content(4, sends((0, 0, TxKind.NOISE)), JamPlan.silent(4))
        assert content[0] == SlotStatus.NOISE

    def test_spoof_alone_decodes(self):
        plan = JamPlan(
            length=4,
            spoof_slots=np.array([3]),
            spoof_kinds=np.array([int(TxKind.NACK)], dtype=np.int8),
        )
        content = slot_content(4, SendEvents.empty(), plan)
        assert content[3] == SlotStatus.NACK

    def test_spoof_collides_with_real_send(self):
        plan = JamPlan(
            length=4,
            spoof_slots=np.array([1]),
            spoof_kinds=np.array([int(TxKind.NACK)], dtype=np.int8),
        )
        content = slot_content(4, sends((0, 1, TxKind.DATA)), plan)
        assert content[1] == SlotStatus.NOISE


class TestResolvePhase:
    def test_listener_hears_message(self):
        out = resolve_phase(
            4, 2, sends((0, 1, TxKind.DATA)), listens((1, 1)), JamPlan.silent(4)
        )
        assert out.heard[1, SlotStatus.DATA] == 1
        assert out.send_cost[0] == 1
        assert out.listen_cost[1] == 1
        assert out.data_slots == 1

    def test_jam_turns_message_to_noise(self):
        plan = JamPlan(length=4, global_slots=np.array([1]))
        out = resolve_phase(4, 2, sends((0, 1, TxKind.DATA)), listens((1, 1)), plan)
        assert out.heard[1, SlotStatus.DATA] == 0
        assert out.heard[1, SlotStatus.NOISE] == 1
        assert out.adversary_cost == 1

    def test_targeted_jam_spares_other_group(self):
        plan = JamPlan(length=4, targeted={1: np.array([1])})
        groups = np.array([0, 1, 1])
        out = resolve_phase(
            4, 3, sends((0, 1, TxKind.DATA)), listens((1, 1), (2, 1)), plan,
            groups=groups,
        )
        # Both listeners are in the jammed group.
        assert out.heard[1, SlotStatus.NOISE] == 1
        assert out.heard[2, SlotStatus.NOISE] == 1
        # Group-0 listener in the same slot would hear the message.
        out2 = resolve_phase(
            4, 3, sends((0, 1, TxKind.DATA)), listens((2, 1)), plan,
            groups=np.array([0, 1, 0]),
        )
        assert out2.heard[2, SlotStatus.DATA] == 1

    def test_half_duplex_send_wins(self):
        # Node 0 schedules both a send and a listen in slot 1: only the
        # send happens and is charged.
        out = resolve_phase(
            4, 2, sends((0, 1, TxKind.DATA)), listens((0, 1), (1, 1)),
            JamPlan.silent(4),
        )
        assert out.send_cost[0] == 1
        assert out.listen_cost[0] == 0
        assert out.heard[0].sum() == 0

    def test_sender_does_not_hear_itself(self):
        out = resolve_phase(
            4, 1, sends((0, 1, TxKind.DATA)), listens((0, 1), (0, 2)),
            JamPlan.silent(4),
        )
        # Slot-1 listen dropped (own send); slot-2 listen hears clear.
        assert out.heard[0, SlotStatus.DATA] == 0
        assert out.heard[0, SlotStatus.CLEAR] == 1
        assert out.listen_cost[0] == 1

    def test_clear_count(self):
        out = resolve_phase(
            8, 2, SendEvents.empty(), listens((0, 0), (0, 1), (0, 2)),
            JamPlan.silent(8),
        )
        assert out.heard[0, SlotStatus.CLEAR] == 3
        assert out.n_clear == 8

    def test_costs_count_every_action(self):
        out = resolve_phase(
            8, 2,
            sends((0, 0, TxKind.DATA), (0, 3, TxKind.DATA), (1, 5, TxKind.NOISE)),
            listens((1, 0), (1, 1)),
            JamPlan.silent(8),
        )
        assert out.send_cost[0] == 2
        assert out.send_cost[1] == 1
        assert out.listen_cost[1] == 2

    def test_node_index_out_of_range(self):
        with pytest.raises(SimulationError):
            resolve_phase(4, 1, sends((1, 0, TxKind.DATA)), ListenEvents.empty(),
                          JamPlan.silent(4))

    def test_slot_index_out_of_range(self):
        with pytest.raises(SimulationError):
            resolve_phase(4, 1, sends((0, 4, TxKind.DATA)), ListenEvents.empty(),
                          JamPlan.silent(4))

    def test_plan_length_mismatch(self):
        with pytest.raises(SimulationError):
            resolve_phase(4, 1, SendEvents.empty(), ListenEvents.empty(),
                          JamPlan.silent(5))

    @pytest.mark.parametrize("kind", [0, 5])
    @pytest.mark.parametrize("resolver", [resolve_phase, resolve_phase_dense],
                             ids=["sparse", "dense"])
    def test_kind_outside_txkind_rejected(self, resolver, kind):
        with pytest.raises(SimulationError):
            resolver(4, 1, sends((0, 1, kind)), ListenEvents.empty(),
                     JamPlan.silent(4))
        # A plan refuses spoof kinds outside TxKind where it is built.
        with pytest.raises(AdversaryError, match="TxKind"):
            JamPlan(4, spoof_slots=np.array([1]),
                    spoof_kinds=np.array([kind], dtype=np.int8))

    def test_groups_shape_checked(self):
        with pytest.raises(SimulationError):
            resolve_phase(4, 2, SendEvents.empty(), ListenEvents.empty(),
                          JamPlan.silent(4), groups=np.array([0]))

    def test_spoof_heard_as_message(self):
        plan = JamPlan(
            length=4,
            spoof_slots=np.array([2]),
            spoof_kinds=np.array([int(TxKind.ACK)], dtype=np.int8),
        )
        out = resolve_phase(4, 1, SendEvents.empty(), listens((0, 2)), plan)
        assert out.heard[0, SlotStatus.ACK] == 1
        assert out.adversary_cost == 1
