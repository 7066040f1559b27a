"""Collision/CCA resolution for one phase — sparse, O(events) hot path.

This is the hot path of the whole simulator, and both phase loops share
it: :func:`resolve_phase_batch_core` resolves B trials' phases at once,
and the scalar loop calls it with one trial (:func:`resolve_phase` is
that call's wrapper).  One call resolves a phase
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
    _EMPTY_KINDS,
    _EMPTY_SLOTS,
    _EMPTY_SLOTSET,
    N_STATUS,
    EventStack,
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


#: Status values read once, not through ``IntEnum`` lookups per call.
_NOISE = int(SlotStatus.NOISE)
_DATA = int(SlotStatus.DATA)


def _unique_tx_content(
    tx_slots: np.ndarray, tx_kinds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct transmission slot, its un-jammed content status.

    Returns ``(slots, statuses)`` with ``slots`` sorted ascending: a
    lone transmission decodes as its kind, two or more collide to NOISE.
    Slots carrying no transmission are implicitly CLEAR.  One sort of
    packed ``slot * 8 + kind`` keys groups each slot's transmissions
    (kinds are :class:`~repro.channel.events.TxKind` values, below 8).
    """
    packed = tx_slots * 8 + tx_kinds
    packed.sort()
    slots = packed >> 3
    # first[i]: key i is its slot's first; a closing True ends the last.
    first = np.ones(len(packed) + 1, dtype=bool)
    np.not_equal(slots[1:], slots[:-1], out=first[1:-1])
    starts = first[:-1].nonzero()[0]
    statuses = (packed[starts] & 7).astype(np.int8)
    statuses[~first[starts + 1]] = _NOISE  # two or more in the slot
    return slots[starts], statuses


# Membership tests against a few thousand keys drawn from a bounded
# virtual key space are faster as dense scatter/gather than as binary
# search over the full event arrays, but only while the key space fits
# comfortably in memory; past this limit the resolver falls back to
# searchsorted.  Scratch buffers are reused across the phases of a run
# (callers reset exactly the entries they wrote) so the per-phase cost
# is the touched entries, not a key-space-sized memset; the phase loops
# call :func:`release_scratch` when a run ends.
_DENSE_KEY_LIMIT = 1 << 23
_dense_scratch: "dict[str, np.ndarray]" = {}

# On the dense path a global jam is painted into the status buffer, one
# slice per interval, when it has at least this many surviving listens
# per interval and covers at most this many slots per listen; otherwise
# every listen is searched among the jam's intervals.  Painting costs a
# Python step per interval plus a memset, searching a binary search per
# listen.  In a sweep of 1 to 64 intervals and 64 to 16,384 listens,
# painting took 1.2-10x the search's time at 32 listens per interval or
# fewer, and 0.05-0.9x at 128 or more, also at 64 slots per listen.
_PAINT_LISTENS_PER_INTERVAL = 128
_PAINT_SLOTS_PER_LISTEN = 64


def _paint_intervals(jam: SlotSet, n_listens: int):
    """``jam``'s intervals as ``(start, end)`` pairs where painting them
    beats searching ``n_listens`` listens among them, else ``None``."""
    k = len(jam.starts)
    if (
        k
        and k * _PAINT_LISTENS_PER_INTERVAL <= n_listens
        and jam.size <= _PAINT_SLOTS_PER_LISTEN * n_listens
    ):
        return list(zip(jam.starts.tolist(), jam.ends.tolist()))
    return None


def _dense_buf(name: str, size: int, dtype) -> np.ndarray:
    buf = _dense_scratch.get(name)
    if buf is None or buf.shape[0] < size:
        buf = np.zeros(size, dtype=dtype)
        _dense_scratch[name] = buf
    return buf


def release_scratch() -> None:
    """Drop the resolver's dense scratch buffers (the next phase that
    needs one allocates it afresh)."""
    _dense_scratch.clear()


def resolve_phase(
    length: int,
    n_nodes: int,
    sends: SendEvents,
    listens: ListenEvents,
    plan: JamPlan,
    groups: np.ndarray | None = None,
) -> PhaseOutcome:
    """Resolve every slot of a phase and tally what each node heard.

    A one-trial call of :func:`resolve_phase_batch_core`, with its
    inputs validated.

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
    return resolve_phase_batch_core(
        (length,), n_nodes, (sends,), (listens,), (plan,), (groups,)
    ).outcome_for(0)


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

    The engine's one sparse resolver: the lockstep loop calls it with
    its runnable trials, the scalar loop with one.  Trial ``t``'s view
    is bit-identical to
    :func:`~repro.channel.model_dense.resolve_phase_dense` on its
    inputs, which the ``engine`` test suite checks per trial.

    The trick is a *virtual slot axis*: trial ``t`` owns the range
    ``[off_t, off_t + lengths[t])`` (``off`` the exclusive prefix sum of
    lengths), and virtual node ``t * n_nodes + u`` owns node ``u``'s
    events.  Because the per-trial ranges are disjoint, one global
    sort computes every trial's collision content, one dense
    scatter/gather membership pass (binary search past
    :data:`_DENSE_KEY_LIMIT`) applies half-duplex, and one stacked
    :class:`~repro.channel.intervals.SlotSet` query per group answers
    every trial's jam membership — the per-phase Python overhead is
    paid once per *batch* instead of once per trial.  The events arrive
    stacked: the lockstep sampler's
    :class:`~repro.channel.events.EventStack`\\ s are used as they are,
    half-duplex keys included, and per-trial lists are stacked once on
    entry (one trial's arrays as they are, so a one-trial call pays no
    stacking cost).

    Parameters
    ----------
    lengths:
        ``(B,)`` per-trial phase lengths (trials may sit in different
        epochs).
    n_nodes:
        Common node count (a batch stacks trials of one protocol).
    sends_list / listens_list:
        Per-trial :class:`SendEvents` / :class:`ListenEvents`, or the
        :class:`~repro.channel.events.EventStack`\\ s of
        :func:`~repro.engine.sampling.sample_action_events_batch`.
    plans / groups_list:
        Per-trial inputs, as for :func:`resolve_phase`.
    validate:
        Skippable for inputs the engine already validated (the spec
        validators cover probabilities, the samplers and the hop emit
        in-range events by construction, and :class:`JamPlan` checks
        its spoofs); both phase loops skip it.  Validation never
        changes the result, only whether malformed inputs raise here.
    half_duplex:
        Drop listens that share a slot with the same node's send.
        Skippable for events that can hold no such pair, like those a
        hopping medium already filtered on real slots before placing
        them on channels; then the pass changes nothing, and skipping
        it spares its key-space-sized scratch buffer.
    """
    B = len(plans)
    lengths = np.asarray(lengths, dtype=np.int64)
    g0 = groups_list[0]
    shared = all(g is g0 for g in groups_list)
    if validate:
        groups_arr = [
            validate_phase_inputs(
                int(lengths[t]), n_nodes, sends_list[t], listens_list[t],
                plans[t], groups_list[t],
            )
            for t in range(B)
        ]
    elif not shared:
        zeros = np.zeros(n_nodes, dtype=np.int64)
        groups_arr = [
            zeros if g is None else np.asarray(g, dtype=np.int64)
            for g in groups_list
        ]
    # Every trial's common group assignment; None puts every node in
    # group 0.
    groups = None
    if shared and g0 is not None:
        groups = groups_arr[0] if validate else np.asarray(g0, dtype=np.int64)
    off = np.zeros(B, dtype=np.int64)
    np.cumsum(lengths[:-1], out=off[1:])
    sends = EventStack.of(sends_list)
    listens = EventStack.of(listens_list)

    # Virtual axes: trial t's slots and nodes shift by off[t] and
    # t * n_nodes.  Transmissions are every trial's node sends, then
    # its spoofs; their order does not matter, since one sort groups
    # them by slot.
    send_nodes, tx_slots, tx_kinds = sends.nodes, sends.slots, sends.kinds
    listen_vnodes, listen_vslots = listens.nodes, listens.slots
    if B > 1:
        s_own, l_own = sends.owner, listens.owner
        tx_slots = tx_slots + off[s_own]
        send_vnodes = send_nodes + s_own * n_nodes
        listen_vnodes = listen_vnodes + l_own * n_nodes
        listen_vslots = listen_vslots + off[l_own]
    else:
        send_vnodes = send_nodes
    spoofs = [t for t in range(B) if len(plans[t].spoof_slots)]
    if spoofs:
        tx_slots = np.concatenate(
            [tx_slots] + [plans[t].spoof_slots + off[t] for t in spoofs]
        )
        tx_kinds = np.concatenate(
            [tx_kinds] + [plans[t].spoof_kinds for t in spoofs]
        )
    if len(tx_slots):
        uniq_tx, tx_status = _unique_tx_content(tx_slots, tx_kinds)
    else:
        uniq_tx, tx_status = _EMPTY_SLOTS, _EMPTY_KINDS

    listen_groups = None
    if not shared:
        listen_groups = np.stack(groups_arr)[l_own, listens.nodes]
    elif groups is not None:
        listen_groups = groups[listens.nodes]

    # Half-duplex filtering on injective (trial, node, slot) keys: each
    # trial owns n_nodes * length_t keys of EventStack.key_axis, so keys
    # stay injective across trials of different lengths.  The lockstep
    # sampler's stacks arrive with their keys.
    slot_space = int(off[-1] + lengths[-1])
    if half_duplex and len(send_nodes) and len(listen_vnodes):
        send_keys = sends.half_duplex_keys(lengths, n_nodes)
        listen_keys = listens.half_duplex_keys(lengths, n_nodes)
        key_space = n_nodes * slot_space
        if key_space <= _DENSE_KEY_LIMIT:
            busy = _dense_buf("halfdup", key_space, np.bool_)
            busy[send_keys] = True
            keep = ~busy[listen_keys]
            busy[send_keys] = False
        else:
            send_keys = np.sort(send_keys)
            pos = np.searchsorted(send_keys, listen_keys)
            np.minimum(pos, len(send_keys) - 1, out=pos)
            keep = send_keys[pos] != listen_keys
        listen_vnodes = listen_vnodes[keep]
        listen_vslots = listen_vslots[keep]
        if listen_groups is not None:
            listen_groups = listen_groups[keep]

    # Plans only carry targeted sets for the handful of groups the
    # adversary aims at; every other group's jam set *is* the shared
    # global set.  Group ``g``'s full jam set is global ∪ targeted[g]
    # with the two parts disjoint by JamPlan normalisation, so every
    # membership query below decomposes into one shared global-stack
    # pass plus a targeted-only pass for the (few) targeted groups —
    # the per-trial ``jam_set`` unions are never materialised.
    def stacked(sets: "list[SlotSet]") -> SlotSet:
        return sets[0] if B == 1 else SlotSet.stack(sets, off)

    global_stack = stacked([p.global_slots for p in plans])
    targeted_ids = sorted({g for p in plans for g in p.targeted})
    targeted_cache: "dict[int, SlotSet]" = {}

    def targeted_stack(g: int) -> SlotSet:
        got = targeted_cache.get(g)
        if got is None:
            got = targeted_cache[g] = stacked(
                [p.targeted.get(g, _EMPTY_SLOTSET) for p in plans]
            )
        return got

    # Each surviving listen's status: the un-jammed content of its slot,
    # overridden by the global jam, which is painted into the status
    # buffer (see _PAINT_LISTENS_PER_INTERVAL) or searched.
    n_listens = len(listen_vslots)
    paint = None
    if n_listens and slot_space <= _DENSE_KEY_LIMIT:
        paint = _paint_intervals(global_stack, n_listens)
        if len(uniq_tx) or paint is not None:
            content = _dense_buf("content", slot_space, np.int8)
            content[uniq_tx] = tx_status
            for lo, hi in paint or ():
                content[lo:hi] = _NOISE
            statuses = content[listen_vslots]
            content[uniq_tx] = 0
            for lo, hi in paint or ():
                content[lo:hi] = 0
        else:
            statuses = np.zeros(n_listens, dtype=np.int8)
    elif len(uniq_tx) and n_listens:
        pos = np.searchsorted(uniq_tx, listen_vslots)
        np.minimum(pos, len(uniq_tx) - 1, out=pos)
        statuses = np.where(
            uniq_tx[pos] == listen_vslots, tx_status[pos], np.int8(0)
        )
    else:
        statuses = np.zeros(n_listens, dtype=np.int8)
    if paint is None and len(global_stack.starts):
        statuses[global_stack.contains(listen_vslots)] = _NOISE
    for g in targeted_ids:
        if listen_groups is None:
            # Every node is in group 0.
            if g == 0:
                statuses[targeted_stack(0).contains(listen_vslots)] = _NOISE
            continue
        sel = np.flatnonzero(listen_groups == g)
        if len(sel):
            jammed = targeted_stack(g).contains(listen_vslots[sel])
            statuses[sel[jammed]] = _NOISE
    heard = np.bincount(
        listen_vnodes * N_STATUS + statuses,
        minlength=B * n_nodes * N_STATUS,
    ).reshape(B, n_nodes, N_STATUS)

    # Each distinct transmission's jam status: the global stack is
    # queried once and serves both decodability and group 0's ground
    # truth.
    tx_global = global_stack.contains(uniq_tx)

    def tx_jammed(g: int) -> np.ndarray:
        if g in targeted_ids:
            return tx_global | targeted_stack(g).contains(uniq_tx)
        return tx_global

    tx_jammed_0 = tx_jammed(0)
    if B > 1:
        tx_trial = np.searchsorted(off, uniq_tx, side="right") - 1

    def per_trial(mask: np.ndarray) -> np.ndarray:
        if B == 1:
            return np.array([np.count_nonzero(mask)], dtype=np.int64)
        return np.bincount(tx_trial[mask], minlength=B)

    # A transmission decodes if some group present in its trial hears
    # it unjammed.  Trials that lack a group must not have it applied
    # to their decodability view, hence the per-trial membership masks
    # when trials differ in their assignments.
    if shared:
        group_ids = [0] if groups is None else np.unique(groups).tolist()
        decodable = ~tx_jammed(group_ids[0])
        for g in group_ids[1:]:
            decodable |= ~tx_jammed(g)
    else:
        trial_gids = [np.unique(g) for g in groups_arr]
        all_group_ids = np.unique(np.concatenate(trial_gids))
        present = np.zeros((B, len(all_group_ids)), dtype=bool)
        for t in range(B):
            present[t, np.searchsorted(all_group_ids, trial_gids[t])] = True
        decodable = np.zeros(len(uniq_tx), dtype=bool)
        for gi, g in enumerate(all_group_ids.tolist()):
            decodable |= ~tx_jammed(g) & present[tx_trial, gi]

    # Group-0 ground truth per trial: applied to *every* trial
    # regardless of which groups its nodes occupy.
    jam0_sizes = np.array([
        p.global_slots.size + p.targeted.get(0, _EMPTY_SLOTSET).size
        for p in plans
    ], dtype=np.int64)
    unjammed_0 = ~tx_jammed_0
    return BatchPhaseOutcome(
        heard=heard,
        send_cost=np.bincount(
            send_vnodes, minlength=B * n_nodes
        ).reshape(B, n_nodes),
        # Every surviving listen counts once in its node's heard row.
        listen_cost=heard.sum(axis=2),
        adversary_costs=np.array([p.cost for p in plans], dtype=np.int64),
        n_clear=lengths - jam0_sizes - per_trial(unjammed_0),
        n_noise=jam0_sizes + per_trial(unjammed_0 & (tx_status == _NOISE)),
        data_slots=per_trial(decodable & (tx_status == _DATA)),
    )
