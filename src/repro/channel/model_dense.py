"""Dense (O(L)) reference resolver — the differential oracle.

This is the original length-L implementation of the channel semantics:
it materialises a per-slot status array and per-group jam masks, which
makes it easy to audit against Section 1.2 of the paper but puts an
O(L) floor under every phase regardless of traffic.  The production
hot path is the sparse, O(events) resolver in
:mod:`repro.channel.model`; this module is kept verbatim as an
independent oracle:

* the differential test suite (``pytest -m engine``) asserts
  :func:`resolve_phase_dense` and the sparse resolver produce
  bit-identical :class:`~repro.channel.events.PhaseOutcome`\\ s on
  randomised phases, and a test fixture patches it into both phase
  loops to prove whole experiment reports byte-identical under either
  resolver;
* :func:`repro.trace.verify_trace` replays recorded phases through it.
"""

from __future__ import annotations

import numpy as np

from repro.channel.events import (
    _KIND_HI,
    _KIND_LO,
    N_STATUS,
    JamPlan,
    ListenEvents,
    PhaseOutcome,
    SendEvents,
    SlotStatus,
)
from repro.errors import SimulationError

__all__ = ["resolve_phase_dense", "slot_content"]


def slot_content(length: int, sends: SendEvents, plan: JamPlan) -> np.ndarray:
    """Un-jammed channel content per slot, as a ``SlotStatus`` array.

    Spoofed transmissions from ``plan`` participate in collisions exactly
    like node transmissions.  Jamming is *not* applied here — it is
    per-group and applied by the resolvers.  Dense (O(L)): intended for
    the oracle path, the trace timeline, and debugging, not the hot path.
    """
    tx_slots = sends.slots
    tx_kinds = sends.kinds
    if len(plan.spoof_slots):
        tx_slots = np.concatenate([tx_slots, plan.spoof_slots])
        tx_kinds = np.concatenate([tx_kinds, plan.spoof_kinds])

    content = np.zeros(length, dtype=np.int8)  # SlotStatus.CLEAR
    if len(tx_slots) == 0:
        return content

    counts = np.bincount(tx_slots, minlength=length)
    # For slots with exactly one transmission the scatter below writes the
    # unique sender's kind; collided slots are overwritten with NOISE next.
    content[tx_slots] = tx_kinds
    content[counts >= 2] = SlotStatus.NOISE
    return content


def validate_phase_inputs(
    length: int,
    n_nodes: int,
    sends: SendEvents,
    listens: ListenEvents,
    plan: JamPlan,
    groups: np.ndarray | None,
) -> np.ndarray:
    """Shared input validation for both resolvers; returns the groups array."""
    if plan.length != length:
        raise SimulationError(
            f"JamPlan length {plan.length} does not match phase length {length}"
        )
    if len(sends.nodes) and (sends.nodes.min() < 0 or sends.nodes.max() >= n_nodes):
        raise SimulationError("send event node index out of range")
    if len(listens.nodes) and (
        listens.nodes.min() < 0 or listens.nodes.max() >= n_nodes
    ):
        raise SimulationError("listen event node index out of range")
    if len(sends.slots) and (sends.slots.min() < 0 or sends.slots.max() >= length):
        raise SimulationError("send event slot index out of range")
    if len(listens.slots) and (
        listens.slots.min() < 0 or listens.slots.max() >= length
    ):
        raise SimulationError("listen event slot index out of range")
    kinds = sends.kinds  # heard as SlotStatus (JamPlan checks its spoofs)
    if len(kinds) and (kinds.min() < _KIND_LO or kinds.max() > _KIND_HI):
        raise SimulationError("transmission kinds must be TxKind values")

    if groups is None:
        return np.zeros(n_nodes, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    if groups.shape != (n_nodes,):
        raise SimulationError(
            f"groups must have shape ({n_nodes},), got {groups.shape}"
        )
    return groups


def resolve_phase_dense(
    length: int,
    n_nodes: int,
    sends: SendEvents,
    listens: ListenEvents,
    plan: JamPlan,
    groups: np.ndarray | None = None,
) -> PhaseOutcome:
    """Resolve a phase with O(L) dense arrays (reference implementation).

    Same contract as :func:`repro.channel.model.resolve_phase`; see
    there for parameter documentation.
    """
    groups = validate_phase_inputs(length, n_nodes, sends, listens, plan, groups)

    content = slot_content(length, sends, plan)

    # Half-duplex: drop listen events that coincide with the same node's
    # own send.  Key each (node, slot) pair into a single int64.
    listen_nodes, listen_slots = listens.nodes, listens.slots
    if len(sends) and len(listens):
        send_keys = sends.nodes * length + sends.slots
        listen_keys = listen_nodes * length + listen_slots
        keep = ~np.isin(listen_keys, send_keys)
        listen_nodes = listen_nodes[keep]
        listen_slots = listen_slots[keep]

    # Per-group status views.  Group count is tiny (<= l <= 2 in the
    # paper's experiments), so one length-L copy per group is cheap.
    group_ids = np.unique(groups)
    heard = np.zeros((n_nodes, N_STATUS), dtype=np.int64)
    data_decodable = np.zeros(length, dtype=bool)
    for g in group_ids:
        status_g = content.copy()
        jam_mask = plan.jam_mask(int(g))
        status_g[jam_mask] = SlotStatus.NOISE
        data_decodable |= status_g == SlotStatus.DATA

        in_group = groups[listen_nodes] == g
        if not in_group.any():
            continue
        nodes_g = listen_nodes[in_group]
        statuses = status_g[listen_slots[in_group]].astype(np.int64)
        flat = np.bincount(nodes_g * N_STATUS + statuses, minlength=n_nodes * N_STATUS)
        heard += flat.reshape(n_nodes, N_STATUS)

    send_cost = np.bincount(sends.nodes, minlength=n_nodes)
    listen_cost = np.bincount(listen_nodes, minlength=n_nodes)

    # Channel-wide ground truth from group 0's perspective (PhaseOutcome
    # contract) — group 0 even when no node currently belongs to it.
    status_0 = content.copy()
    status_0[plan.jam_mask(0)] = SlotStatus.NOISE
    n_clear = int(np.count_nonzero(status_0 == SlotStatus.CLEAR))
    n_noise = int(np.count_nonzero(status_0 == SlotStatus.NOISE))

    return PhaseOutcome(
        heard=heard,
        send_cost=send_cost,
        listen_cost=listen_cost,
        adversary_cost=plan.cost,
        n_clear=n_clear,
        n_noise=n_noise,
        data_slots=int(np.count_nonzero(data_decodable)),
    )
