"""Collision/CCA resolution for one phase — sparse, O(events) hot path.

This is the hot path of the whole simulator.  One call resolves a phase
of ``L`` slots, but the work scales with the *events* in the phase —
``O(#sends + #listens + #spoofs + #jam intervals)`` — never with ``L``
itself: statuses are evaluated only at the union of transmission slots
and listening slots, and jam schedules are interval
(:class:`~repro.channel.intervals.SlotSet`) queries via
``searchsorted``.  At the sweep scale the paper's theorems care about
(phases of ``2**20`` slots with a handful of events each) this is what
makes large-``T`` experiments feasible.

The dense O(L) reference implementation is kept verbatim in
:mod:`repro.channel.model_dense` as a differential oracle; the
``engine``-marked test suite asserts both resolvers return bit-identical
:class:`~repro.channel.events.PhaseOutcome`\\ s on randomised phases,
and replays whole experiments with the oracle patched into the phase
loops.

Semantics implemented (Section 1.2 of the paper):

* exactly one transmission in an un-jammed slot ⇒ listeners of that
  group decode it (status = the transmission's kind);
* two or more transmissions (node sends and adversarial spoofs alike)
  ⇒ noise;
* a slot jammed for a group ⇒ that group hears noise regardless of
  content;
* no transmissions and no jam ⇒ clear;
* a node scheduled to both send and listen in one slot performs only
  the send (a half-duplex radio cannot do both), and is charged once;
* a sender never "hears" its own transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.events import (
    N_STATUS,
    JamPlan,
    ListenEvents,
    PhaseOutcome,
    SendEvents,
    SlotSet,
    SlotStatus,
)
from repro.channel.model_dense import (
    resolve_phase_dense,
    slot_content,
    validate_phase_inputs,
)

__all__ = [
    "BatchPhaseOutcome",
    "resolve_phase",
    "resolve_phase_batch",
    "resolve_phase_batch_core",
    "resolve_phase_dense",
    "slot_content",
]


def _tx_events(sends: SendEvents, plan: JamPlan) -> tuple[np.ndarray, np.ndarray]:
    """All on-air transmissions of the phase: node sends plus spoofs."""
    tx_slots = sends.slots
    tx_kinds = sends.kinds
    if len(plan.spoof_slots):
        tx_slots = np.concatenate([tx_slots, plan.spoof_slots])
        tx_kinds = np.concatenate([tx_kinds, plan.spoof_kinds])
    return tx_slots, tx_kinds


def _unique_tx_content(
    tx_slots: np.ndarray, tx_kinds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct transmission slot, its un-jammed content status.

    Returns ``(slots, statuses)`` with ``slots`` sorted ascending: a
    lone transmission decodes as its kind, two or more collide to NOISE.
    Slots carrying no transmission are implicitly CLEAR.
    """
    uniq, first, counts = np.unique(
        tx_slots, return_index=True, return_counts=True
    )
    statuses = tx_kinds[first].astype(np.int8)
    statuses[counts >= 2] = SlotStatus.NOISE
    return uniq, statuses


# Membership tests against a few thousand keys drawn from a bounded
# virtual key space are faster as dense scatter/gather than as binary
# search over the full event arrays, but only while the key space fits
# comfortably in memory; past this limit the batch resolver falls back
# to searchsorted.  Scratch buffers are reused across phases (callers
# reset exactly the entries they wrote) so the per-phase cost is the
# touched entries, not a key-space-sized memset.
_DENSE_KEY_LIMIT = 1 << 23
_dense_scratch: "dict[str, np.ndarray]" = {}


def _dense_buf(name: str, size: int, dtype) -> np.ndarray:
    buf = _dense_scratch.get(name)
    if buf is None or buf.shape[0] < size:
        buf = np.zeros(size, dtype=dtype)
        _dense_scratch[name] = buf
    return buf


def resolve_phase(
    length: int,
    n_nodes: int,
    sends: SendEvents,
    listens: ListenEvents,
    plan: JamPlan,
    groups: np.ndarray | None = None,
) -> PhaseOutcome:
    """Resolve every slot of a phase and tally what each node heard.

    Parameters
    ----------
    length:
        Number of slots in the phase.
    n_nodes:
        Total number of (good) nodes; node indices in the event arrays
        must lie in ``[0, n_nodes)``.
    sends, listens:
        Sparse action sets sampled by the engine from the protocol's
        per-slot probabilities.
    plan:
        The adversary's (already normalised) jam/spoof plan.
    groups:
        Optional ``(n_nodes,)`` int array assigning each node to a jam
        group for an ``l``-uniform adversary.  ``None`` means everyone is
        in group 0 (the 1-uniform case).

    Returns
    -------
    PhaseOutcome
        Per-node heard-status counts, per-node costs, and channel-wide
        ground truth (``n_clear``/``n_noise`` are group 0's view).

    Notes
    -----
    Cost is ``O(E log E)`` for ``E = #sends + #listens + #spoofs +
    #jam intervals`` — independent of ``length``.  Bit-identical to
    :func:`~repro.channel.model_dense.resolve_phase_dense`.
    """
    groups = validate_phase_inputs(length, n_nodes, sends, listens, plan, groups)

    tx_slots, tx_kinds = _tx_events(sends, plan)
    if len(tx_slots):
        uniq_tx, tx_status = _unique_tx_content(tx_slots, tx_kinds)
    else:
        uniq_tx = np.empty(0, np.int64)
        tx_status = np.empty(0, np.int8)

    # Half-duplex: drop listen events that coincide with the same node's
    # own send.  Key each (node, slot) pair into a single int64 and
    # binary-search the listen keys against the sorted send keys (the
    # sort is O(#sends log #sends); `np.isin` would re-sort *both* sides
    # and build an intermediate boolean lattice every phase).
    listen_nodes, listen_slots = listens.nodes, listens.slots
    if len(sends) and len(listens):
        send_keys = np.sort(sends.nodes * length + sends.slots)
        listen_keys = listen_nodes * length + listen_slots
        pos = np.searchsorted(send_keys, listen_keys)
        safe = np.minimum(pos, len(send_keys) - 1)
        keep = send_keys[safe] != listen_keys
        listen_nodes = listen_nodes[keep]
        listen_slots = listen_slots[keep]

    # Un-jammed content status under each listen event, via one binary
    # search into the distinct transmission slots.
    if len(uniq_tx) and len(listen_slots):
        pos = np.searchsorted(uniq_tx, listen_slots)
        safe = np.minimum(pos, len(uniq_tx) - 1)
        hit = uniq_tx[safe] == listen_slots
        base_status = np.zeros(len(listen_slots), dtype=np.int64)
        base_status[hit] = tx_status[safe[hit]]
    else:
        base_status = np.zeros(len(listen_slots), dtype=np.int64)

    # Per-group views: jamming overrides content with NOISE.  Group
    # count is tiny (<= l <= 2 in the paper's experiments); per group
    # the work is one interval-membership query per event.
    group_ids = np.unique(groups)
    heard = np.zeros((n_nodes, N_STATUS), dtype=np.int64)
    is_data_tx = tx_status == SlotStatus.DATA
    data_decodable = np.zeros(int(is_data_tx.sum()), dtype=bool)
    data_tx_slots = uniq_tx[is_data_tx]
    for g in group_ids:
        jam_g = plan.jam_set(int(g))
        data_decodable |= ~jam_g.contains(data_tx_slots)

        in_group = groups[listen_nodes] == g
        if not in_group.any():
            continue
        nodes_g = listen_nodes[in_group]
        statuses = np.where(
            jam_g.contains(listen_slots[in_group]),
            np.int64(SlotStatus.NOISE),
            base_status[in_group],
        )
        flat = np.bincount(nodes_g * N_STATUS + statuses, minlength=n_nodes * N_STATUS)
        heard += flat.reshape(n_nodes, N_STATUS)

    send_cost = np.bincount(sends.nodes, minlength=n_nodes)
    listen_cost = np.bincount(listen_nodes, minlength=n_nodes)

    # Channel-wide ground truth from group 0's perspective: CLEAR slots
    # are those with neither transmission nor group-0 jam, NOISE slots
    # the group-0 jam plus un-jammed collisions/noise transmissions.
    jam_0 = plan.jam_set(0)
    tx_jammed_0 = jam_0.contains(uniq_tx)
    n_clear = length - jam_0.size - int((~tx_jammed_0).sum())
    n_noise = jam_0.size + int(
        ((tx_status == SlotStatus.NOISE) & ~tx_jammed_0).sum()
    )

    return PhaseOutcome(
        heard=heard,
        send_cost=send_cost,
        listen_cost=listen_cost,
        adversary_cost=plan.cost,
        n_clear=n_clear,
        n_noise=n_noise,
        data_slots=int(data_decodable.sum()),
    )


@dataclass(frozen=True)
class BatchPhaseOutcome:
    """Stacked :class:`~repro.channel.events.PhaseOutcome` for B trials.

    The batched engine consumes the stacked arrays directly (they feed
    :class:`~repro.engine.phase.BatchPhaseObservation` and the batch
    ledger without a per-trial scatter loop); :meth:`outcome_for`
    materialises trial ``t``'s serial-identical view on demand.
    """

    heard: np.ndarray            # (B, n_nodes, N_STATUS) int64
    send_cost: np.ndarray        # (B, n_nodes) int64
    listen_cost: np.ndarray      # (B, n_nodes) int64
    adversary_costs: np.ndarray  # (B,) int64
    n_clear: np.ndarray          # (B,) int64
    n_noise: np.ndarray          # (B,) int64
    data_slots: np.ndarray       # (B,) int64

    @property
    def batch_size(self) -> int:
        return len(self.adversary_costs)

    def outcome_for(self, t: int) -> PhaseOutcome:
        """Trial ``t``'s :class:`PhaseOutcome`, exactly as serial."""
        return PhaseOutcome(
            heard=self.heard[t],
            send_cost=self.send_cost[t],
            listen_cost=self.listen_cost[t],
            adversary_cost=int(self.adversary_costs[t]),
            n_clear=int(self.n_clear[t]),
            n_noise=int(self.n_noise[t]),
            data_slots=int(self.data_slots[t]),
        )


def resolve_phase_batch(
    lengths,
    n_nodes: int,
    sends_list: "list[SendEvents]",
    listens_list: "list[ListenEvents]",
    plans: "list[JamPlan]",
    groups_list: "list[np.ndarray | None]",
) -> "list[PhaseOutcome]":
    """Resolve B trials' phases as one stacked computation.

    A thin per-trial-view wrapper over :func:`resolve_phase_batch_core`;
    see there for the algorithm.  Bit-identical per trial to B
    :func:`resolve_phase` calls.
    """
    core = resolve_phase_batch_core(
        lengths, n_nodes, sends_list, listens_list, plans, groups_list
    )
    return [core.outcome_for(t) for t in range(core.batch_size)]


def resolve_phase_batch_core(
    lengths,
    n_nodes: int,
    sends_list: "list[SendEvents]",
    listens_list: "list[ListenEvents]",
    plans: "list[JamPlan]",
    groups_list: "list[np.ndarray | None]",
    validate: bool = True,
    half_duplex: bool = True,
) -> BatchPhaseOutcome:
    """Resolve B trials' phases as one stacked computation.

    Bit-identical per trial to B :func:`resolve_phase` calls — the
    per-trial resolver stays on as this function's differential oracle,
    the same playbook that de-risked the sparse kernel swap.

    The trick is a *virtual slot axis*: trial ``t`` owns the range
    ``[off_t, off_t + lengths[t])`` (``off`` the exclusive prefix sum of
    lengths), and virtual node ``t * n_nodes + u`` owns node ``u``'s
    events.  Because the per-trial ranges are disjoint, one global
    ``np.unique`` computes every trial's collision content, one dense
    scatter/gather membership pass (binary search past
    :data:`_DENSE_KEY_LIMIT`) applies half-duplex, and one stacked
    :class:`~repro.channel.intervals.SlotSet` query per group answers
    every trial's jam membership — the per-phase Python overhead that
    dominated ``replicate`` is paid once per *batch* instead of once per
    trial.

    Parameters
    ----------
    lengths:
        ``(B,)`` per-trial phase lengths (trials may sit in different
        epochs).
    n_nodes:
        Common node count (a batch stacks trials of one protocol).
    sends_list / listens_list / plans / groups_list:
        Per-trial inputs, as for :func:`resolve_phase`.
    validate:
        Skippable for inputs the engine already validated (the batch
        spec validator covers probabilities and the samplers emit
        in-range events by construction); validation never changes the
        result, only whether malformed inputs raise here.
    half_duplex:
        Drop listens that share a slot with the same node's send.
        Skippable for events that can hold no such pair, like those a
        hopping medium already filtered on real slots before placing
        them on channels; then the pass changes nothing, and skipping
        it spares its key-space-sized scratch buffer.
    """
    B = len(plans)
    lengths = np.asarray(lengths, dtype=np.int64)
    if validate:
        groups_arr = [
            validate_phase_inputs(
                int(lengths[t]), n_nodes, sends_list[t], listens_list[t],
                plans[t], groups_list[t],
            )
            for t in range(B)
        ]
    else:
        g0 = groups_list[0] if groups_list else None
        if all(g is g0 for g in groups_list):
            shared = (
                np.zeros(n_nodes, dtype=np.int64)
                if g0 is None
                else np.asarray(g0, dtype=np.int64)
            )
            groups_arr = [shared] * B
        else:
            shared_zeros = np.zeros(n_nodes, dtype=np.int64)
            groups_arr = [
                shared_zeros if g is None else np.asarray(g, dtype=np.int64)
                for g in groups_list
            ]
    off = np.zeros(B, dtype=np.int64)
    np.cumsum(lengths[:-1], out=off[1:])

    first_groups = groups_arr[0]
    groups_shared = all(g is first_groups for g in groups_arr)

    # Stacked transmissions: per trial, node sends then spoofs — the
    # serial concat order, so the stable global unique picks the same
    # first occurrence per slot as each trial's own unique would.  Raw
    # per-trial arrays are concatenated first and translated onto the
    # virtual axes in one vectorized pass — per-trial arithmetic in
    # this loop is the constant that dominates small-event batches.
    tx_parts, kind_parts, tx_owner = [], [], []
    for t in range(B):
        s, p = sends_list[t], plans[t]
        if len(s.slots):
            tx_parts.append(s.slots)
            kind_parts.append(s.kinds)
            tx_owner.append(t)
        if len(p.spoof_slots):
            tx_parts.append(p.spoof_slots)
            kind_parts.append(p.spoof_kinds)
            tx_owner.append(t)
    if tx_parts:
        sizes = np.fromiter(map(len, tx_parts), np.int64, len(tx_parts))
        owner = np.repeat(np.asarray(tx_owner, dtype=np.int64), sizes)
        tx_slots = np.concatenate(tx_parts) + off[owner]
        tx_kinds = np.concatenate(kind_parts)
        uniq_tx, tx_status = _unique_tx_content(tx_slots, tx_kinds)
    else:
        uniq_tx = np.empty(0, np.int64)
        tx_status = np.empty(0, np.int8)
    tx_trial = np.searchsorted(off, uniq_tx, side="right") - 1

    # Stacked listens with virtual (trial, node) ids and half-duplex
    # filtering on injective (vnode, vslot) keys.
    # (trial, node, slot) keys must be injective *across* trials even
    # when phase lengths differ, so each trial owns the key range
    # [koff_t, koff_t + n_nodes * length_t).
    koff = np.zeros(B, dtype=np.int64)
    np.cumsum(n_nodes * lengths[:-1], out=koff[1:])
    ln_parts, ls_parts, l_owner = [], [], []
    sn_parts, ss_parts, s_owner = [], [], []
    for t in range(B):
        s, l = sends_list[t], listens_list[t]
        if len(l.nodes):
            ln_parts.append(l.nodes)
            ls_parts.append(l.slots)
            l_owner.append(t)
        if len(s.nodes):
            sn_parts.append(s.nodes)
            ss_parts.append(s.slots)
            s_owner.append(t)
    if sn_parts:
        s_sizes = np.fromiter(map(len, sn_parts), np.int64, len(sn_parts))
        s_own = np.repeat(np.asarray(s_owner, dtype=np.int64), s_sizes)
        send_nodes_cat = np.concatenate(sn_parts)
        send_vnodes = send_nodes_cat + s_own * n_nodes
    else:
        send_vnodes = np.empty(0, np.int64)
    if ln_parts:
        l_sizes = np.fromiter(map(len, ln_parts), np.int64, len(ln_parts))
        l_own = np.repeat(np.asarray(l_owner, dtype=np.int64), l_sizes)
        l_nodes = np.concatenate(ln_parts)
        l_slots = np.concatenate(ls_parts)
        listen_vnodes = l_nodes + l_own * n_nodes
        listen_vslots = l_slots + off[l_own]
        if groups_shared:
            listen_groups = first_groups[l_nodes]
        else:
            listen_groups = np.concatenate(
                [groups_arr[t][ln] for t, ln in zip(l_owner, ln_parts)]
            )
    else:
        listen_vnodes = np.empty(0, np.int64)
        listen_vslots = np.empty(0, np.int64)
        listen_groups = np.empty(0, np.int64)
    if half_duplex and sn_parts and len(listen_vnodes):
        send_keys = (
            koff[s_own] + send_nodes_cat * lengths[s_own]
            + np.concatenate(ss_parts)
        )
        listen_keys = koff[l_own] + l_nodes * lengths[l_own] + l_slots
        key_space = int(koff[-1] + n_nodes * lengths[-1])
        if key_space <= _DENSE_KEY_LIMIT:
            busy = _dense_buf("halfdup", key_space, np.bool_)
            busy[send_keys] = True
            keep = ~busy[listen_keys]
            busy[send_keys] = False
        else:
            send_keys.sort()
            pos = np.searchsorted(send_keys, listen_keys)
            np.minimum(pos, len(send_keys) - 1, out=pos)
            keep = send_keys[pos] != listen_keys
        listen_vnodes = listen_vnodes[keep]
        listen_vslots = listen_vslots[keep]
        listen_groups = listen_groups[keep]

    # Un-jammed content status under each surviving listen event.
    if len(uniq_tx) and len(listen_vslots):
        slot_space = int(off[-1] + lengths[-1])
        if slot_space <= _DENSE_KEY_LIMIT:
            content = _dense_buf("content", slot_space, np.int8)
            content[uniq_tx] = tx_status
            base_status = content[listen_vslots]
            content[uniq_tx] = 0
        else:
            pos = np.searchsorted(uniq_tx, listen_vslots)
            np.minimum(pos, len(uniq_tx) - 1, out=pos)
            base_status = np.where(
                uniq_tx[pos] == listen_vslots, tx_status[pos], np.int8(0)
            )
    else:
        base_status = np.zeros(len(listen_vslots), dtype=np.int8)

    # Per-group views over the union of every trial's group ids; trials
    # that lack a group must not have it applied to their decodability
    # view, hence the per-trial membership masks.  A batch spec shares
    # one groups array across trials, making the membership uniform —
    # skip the per-trial unique pass in that case.
    if groups_shared:
        all_group_ids = np.unique(first_groups)
        present = np.ones((B, len(all_group_ids)), dtype=bool)
    else:
        trial_gids = [np.unique(g) for g in groups_arr]
        all_group_ids = np.unique(np.concatenate(trial_gids))
        present = np.zeros((B, len(all_group_ids)), dtype=bool)
        for t in range(B):
            present[t, np.searchsorted(all_group_ids, trial_gids[t])] = True

    is_data_tx = tx_status == SlotStatus.DATA
    data_decodable = np.zeros(int(is_data_tx.sum()), dtype=bool)
    data_tx_slots = uniq_tx[is_data_tx]
    data_tx_trial = tx_trial[is_data_tx]
    # Plans only carry targeted sets for the handful of groups the
    # adversary aims at; every other group's jam set *is* the shared
    # global set.  Group ``g``'s full jam set is global ∪ targeted[g]
    # with the two parts disjoint by JamPlan normalisation, so every
    # membership query below decomposes into one shared global-stack
    # pass plus a targeted-only pass for the (few) targeted groups —
    # the per-trial ``jam_set`` unions are never materialised.
    global_stack = SlotSet.stack([p.global_slots for p in plans], off)
    targeted_ids = sorted({g for p in plans for g in p.targeted})
    empty_set = SlotSet.empty()
    targeted_cache: "dict[int, SlotSet]" = {}

    def _targeted_stack(g: int) -> SlotSet:
        got = targeted_cache.get(g)
        if got is None:
            got = SlotSet.stack(
                [p.targeted.get(g, empty_set) for p in plans], off
            )
            targeted_cache[g] = got
        return got

    statuses = np.where(
        global_stack.contains(listen_vslots),
        np.int64(SlotStatus.NOISE),
        base_status,
    )
    for g in targeted_ids:
        sel = np.flatnonzero(listen_groups == g)
        if len(sel):
            jammed = _targeted_stack(g).contains(listen_vslots[sel])
            statuses[sel[jammed]] = SlotStatus.NOISE
    heard = np.bincount(
        listen_vnodes * N_STATUS + statuses,
        minlength=B * n_nodes * N_STATUS,
    ).reshape(B, n_nodes, N_STATUS)

    data_global_jam = global_stack.contains(data_tx_slots)
    for gi, g in enumerate(all_group_ids):
        g = int(g)
        has_g = present[data_tx_trial, gi]
        if has_g.any():
            blocked = data_global_jam[has_g]
            if g in targeted_ids:
                blocked = blocked | _targeted_stack(g).contains(
                    data_tx_slots[has_g]
                )
            data_decodable[has_g] |= ~blocked

    send_cost = np.bincount(
        send_vnodes, minlength=B * n_nodes
    ).reshape(B, n_nodes)
    listen_cost = np.bincount(
        listen_vnodes, minlength=B * n_nodes
    ).reshape(B, n_nodes)

    # Group-0 ground truth per trial (see resolve_phase): applied to
    # *every* trial regardless of which groups its nodes occupy.
    jam0_sizes = np.empty(B, dtype=np.int64)
    for t, p in enumerate(plans):
        t0 = p.targeted.get(0)
        jam0_sizes[t] = p.global_slots.size + (0 if t0 is None else t0.size)
    tx_jammed_0 = global_stack.contains(uniq_tx)
    if 0 in targeted_ids:
        tx_jammed_0 |= _targeted_stack(0).contains(uniq_tx)
    unjammed_tx_per_trial = np.bincount(tx_trial[~tx_jammed_0], minlength=B)
    noise_unjammed = np.bincount(
        tx_trial[(tx_status == SlotStatus.NOISE) & ~tx_jammed_0], minlength=B
    )
    n_clear = lengths - jam0_sizes - unjammed_tx_per_trial
    n_noise = jam0_sizes + noise_unjammed
    data_per_trial = np.bincount(
        data_tx_trial[data_decodable], minlength=B
    )

    return BatchPhaseOutcome(
        heard=heard,
        send_cost=send_cost,
        listen_cost=listen_cost,
        adversary_costs=np.array([p.cost for p in plans], dtype=np.int64),
        n_clear=n_clear.astype(np.int64),
        n_noise=n_noise.astype(np.int64),
        data_slots=data_per_trial.astype(np.int64),
    )
