"""Event and outcome datatypes for the slotted channel.

Everything here is a thin, validated wrapper over NumPy arrays; the hot
path (:func:`repro.channel.model.resolve_phase`) operates on the raw
arrays directly, per the vectorise-don't-loop discipline of the
hpc-parallel guides.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.channel.intervals import SlotSet
from repro.errors import AdversaryError, SimulationError

__all__ = [
    "TxKind",
    "SlotStatus",
    "SendEvents",
    "ListenEvents",
    "EventStack",
    "BatchEvents",
    "JamPlan",
    "PhaseOutcome",
    "SlotSet",
    "N_STATUS",
]


class SlotStatus(IntEnum):
    """What a listener hears in a slot (clear-channel assessment).

    ``CLEAR``
        No transmission, no jamming.
    ``NOISE``
        Jamming, a collision, or a deliberate noise transmission — a
        listener cannot tell these apart (Section 1.2).
    ``DATA`` / ``NACK`` / ``ACK``
        A single un-jammed transmission of the corresponding kind was
        decoded.
    """

    CLEAR = 0
    NOISE = 1
    DATA = 2
    NACK = 3
    ACK = 4


class TxKind(IntEnum):
    """What a sender puts on the air.

    Values are aligned with :class:`SlotStatus` so that a lone un-jammed
    transmission of kind ``k`` is heard as status ``k``.  ``NOISE`` is a
    deliberate jam-like transmission — Figure 2's uninformed nodes send
    noise so everyone can gauge ``n`` relative to ``2**i``.
    """

    NOISE = 1
    DATA = 2
    NACK = 3
    ACK = 4


#: Number of distinct :class:`SlotStatus` values (size of count matrices).
N_STATUS: int = len(SlotStatus)

# TxKind values are contiguous, so kind validation is a range check.
_KIND_LO = min(int(k) for k in TxKind)
_KIND_HI = max(int(k) for k in TxKind)
assert {int(k) for k in TxKind} == set(range(_KIND_LO, _KIND_HI + 1))

# Shared spoof-free placeholders for the O(1) plan constructors; marked
# read-only because they are aliased across every silent/suffix/prefix
# plan in a run.
_EMPTY_SLOTS = np.empty(0, np.int64)
_EMPTY_SLOTS.setflags(write=False)
_EMPTY_KINDS = np.empty(0, np.int8)
_EMPTY_KINDS.setflags(write=False)
_EMPTY_SLOTSET = SlotSet.empty()


def _as_index_array(values: np.ndarray | list[int], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise SimulationError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SendEvents:
    """Sparse set of transmissions in one phase.

    Attributes
    ----------
    nodes:
        Node index of each transmission.
    slots:
        Slot index (within the phase) of each transmission.
    kinds:
        :class:`TxKind` value of each transmission.
    """

    nodes: np.ndarray
    slots: np.ndarray
    kinds: np.ndarray

    def __post_init__(self) -> None:
        nodes = _as_index_array(self.nodes, "nodes")
        slots = _as_index_array(self.slots, "slots")
        kinds = np.asarray(self.kinds, dtype=np.int8)
        if not (len(nodes) == len(slots) == len(kinds)):
            raise SimulationError(
                "SendEvents arrays must have equal length: "
                f"{len(nodes)}, {len(slots)}, {len(kinds)}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "kinds", kinds)

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def empty() -> "SendEvents":
        """A phase with no transmissions."""
        return SendEvents(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8)
        )

    @staticmethod
    def _from_arrays(
        nodes: np.ndarray, slots: np.ndarray, kinds: np.ndarray
    ) -> "SendEvents":
        """Validation-free constructor for arrays the samplers already
        emit in canonical form (1-D, int64/int8, equal length); the
        per-event construction overhead is a measurable constant on
        small-phase batches."""
        ev = object.__new__(SendEvents)
        object.__setattr__(ev, "nodes", nodes)
        object.__setattr__(ev, "slots", slots)
        object.__setattr__(ev, "kinds", kinds)
        return ev


@dataclass(frozen=True)
class ListenEvents:
    """Sparse set of listening actions in one phase."""

    nodes: np.ndarray
    slots: np.ndarray

    def __post_init__(self) -> None:
        nodes = _as_index_array(self.nodes, "nodes")
        slots = _as_index_array(self.slots, "slots")
        if len(nodes) != len(slots):
            raise SimulationError(
                f"ListenEvents arrays must have equal length: {len(nodes)}, {len(slots)}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def empty() -> "ListenEvents":
        """A phase with no listeners."""
        return ListenEvents(np.empty(0, np.int64), np.empty(0, np.int64))

    @staticmethod
    def _from_arrays(nodes: np.ndarray, slots: np.ndarray) -> "ListenEvents":
        """Validation-free counterpart of :meth:`SendEvents._from_arrays`."""
        ev = object.__new__(ListenEvents)
        object.__setattr__(ev, "nodes", nodes)
        object.__setattr__(ev, "slots", slots)
        return ev


class EventStack(Sequence):
    """B trials' sends (or listens) of one phase on one stacked axis.

    Trial ``t``'s events are rows ``bounds[t]:bounds[t + 1]`` of
    ``nodes``, ``slots`` and, for sends, ``kinds``, in that trial's own
    order.  Indexing gives trial ``t``'s :class:`SendEvents` (or
    :class:`ListenEvents`) as views of those rows, so the stack passes
    wherever a per-trial list of events does.

    Node ``u``'s slot ``s`` in trial ``t`` has the half-duplex key
    ``key_axis(L, n)[t] + u * L[t] + s`` (:meth:`key_axis`), so a
    step's sends and listens share one key axis.  The lockstep sampler
    works on these keys and hands them over as ``keys``; otherwise
    :meth:`half_duplex_keys` builds them when first asked.
    """

    __slots__ = ("nodes", "slots", "kinds", "bounds", "keys", "_owner",
                 "_views")

    def __init__(self, nodes, slots, kinds, bounds, keys=None,
                 owner=None) -> None:
        self.nodes = nodes
        self.slots = slots
        self.kinds = kinds  # None for listens
        self.bounds = bounds
        self.keys = keys
        self._owner = owner
        self._views = None

    @staticmethod
    def key_axis(lengths, n_nodes: int) -> np.ndarray:
        """Each trial's first half-duplex key, the total key space last:
        the exclusive prefix sum of ``n_nodes * lengths``, so trial
        ``t`` owns keys ``[axis[t], axis[t + 1])``."""
        axis = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(n_nodes * np.asarray(lengths, dtype=np.int64),
                  out=axis[1:])
        return axis

    def half_duplex_keys(self, lengths, n_nodes: int) -> np.ndarray:
        """Every row's key on :meth:`key_axis` of ``lengths`` and
        ``n_nodes``, which must be those the stack was sampled with (the
        sampler's ``keys`` are returned as they are)."""
        if self.keys is None:
            if len(self) == 1:
                self.keys = self.nodes * int(lengths[0]) + self.slots
            else:
                lengths = np.asarray(lengths, dtype=np.int64)
                own = self.owner
                self.keys = (
                    self.key_axis(lengths, n_nodes)[own]
                    + self.nodes * lengths[own] + self.slots
                )
        return self.keys

    @classmethod
    def of(cls, events) -> "EventStack":
        """Stack a per-trial sequence of events (a stack is returned as
        it is, and one trial's arrays are used as they are)."""
        if isinstance(events, EventStack):
            return events
        sends = isinstance(events[0], SendEvents)
        if len(events) == 1:
            ev = events[0]
            return cls(ev.nodes, ev.slots, ev.kinds if sends else None,
                       (0, len(ev.nodes)))
        bounds = np.zeros(len(events) + 1, dtype=np.int64)
        np.cumsum([len(ev.nodes) for ev in events], out=bounds[1:])
        return cls(
            np.concatenate([ev.nodes for ev in events]),
            np.concatenate([ev.slots for ev in events]),
            np.concatenate([ev.kinds for ev in events]) if sends else None,
            bounds,
        )

    @property
    def owner(self) -> np.ndarray:
        """The trial of every row."""
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(len(self), dtype=np.int64), np.diff(self.bounds)
            )
        return self._owner

    def _trial_views(self) -> list:
        if self._views is None:
            b = self.bounds
            b = b.tolist() if isinstance(b, np.ndarray) else b
            nodes, slots, kinds = self.nodes, self.slots, self.kinds
            self._views = [
                ListenEvents._from_arrays(nodes[lo:hi], slots[lo:hi])
                if kinds is None else
                SendEvents._from_arrays(
                    nodes[lo:hi], slots[lo:hi], kinds[lo:hi]
                )
                for lo, hi in zip(b[:-1], b[1:])
            ]
        return self._views

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, t):
        return self._trial_views()[t]

    def __iter__(self):
        return iter(self._trial_views())


class BatchEvents(Sequence):
    """One phase's sampled events for B trials, as per-trial views.

    A sequence of per-trial ``(SendEvents, ListenEvents)`` pairs that
    also carries the two :class:`EventStack`\\ s the views are cut from.
    """

    __slots__ = ("sends", "listens")

    def __init__(self, sends: EventStack, listens: EventStack) -> None:
        self.sends = sends
        self.listens = listens

    def __len__(self) -> int:
        return len(self.sends)

    def __getitem__(self, t):
        return self.sends[t], self.listens[t]

    def __iter__(self):
        return zip(self.sends, self.listens)


def _normalize_slots(slots, length: int, what: str) -> SlotSet:
    ss = SlotSet.coerce(slots)
    if len(ss) and (ss.min < 0 or ss.max >= length):
        raise AdversaryError(
            f"{what} contains slot indices outside [0, {length}): "
            f"range [{ss.min}, {ss.max}]"
        )
    return ss


@dataclass
class JamPlan:
    """The adversary's actions for one phase.

    Three kinds of action, each costing 1 energy unit per slot:

    ``global_slots``
        Channel-wide jamming — every group hears noise (the 1-uniform
        adversary of Theorems 3/4 and the usual strategy in Theorem 1
        analyses where both parties are jammed together).
    ``targeted``
        Per-group jamming — only the named group hears noise in those
        slots (the 2-uniform adversary of Theorem 1, e.g. jamming Bob's
        vicinity while Alice hears a clean channel).
    ``spoof_slots`` / ``spoof_kinds``
        Adversarial *transmissions*.  A spoof is a real signal: alone in
        a slot it is decoded as a message of the given kind by every
        listener (Theorem 5's Bob-spoofing adversary); colliding with
        another transmission it produces noise.

    Jam schedules are held as :class:`~repro.channel.intervals.SlotSet`
    run-length intervals; constructors accept either a ``SlotSet`` or an
    explicit slot-index array (coerced on construction).  The canonical
    suffix/prefix shapes are therefore O(1) in the phase length, and the
    sparse resolver queries them without ever materialising a length-L
    structure.  ``SlotSet`` iterates/indexes like the sorted explicit
    array it replaces, so downstream slot-level access keeps working.

    Plans are normalised on construction: slot sets are deduplicated and
    sorted, and targeted slots that are already jammed globally are
    dropped (jamming a slot twice cannot cost twice).
    """

    length: int
    global_slots: SlotSet = field(default_factory=SlotSet.empty)
    targeted: dict[int, SlotSet] = field(default_factory=dict)
    spoof_slots: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    spoof_kinds: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise AdversaryError(f"JamPlan length must be positive, got {self.length}")
        self.global_slots = _normalize_slots(self.global_slots, self.length, "global jam")
        cleaned: dict[int, SlotSet] = {}
        for group, slots in self.targeted.items():
            ss = _normalize_slots(slots, self.length, f"targeted jam for group {group}")
            ss = ss.difference(self.global_slots)
            if len(ss):
                cleaned[int(group)] = ss
        self.targeted = cleaned
        spoof_slots = np.asarray(self.spoof_slots, dtype=np.int64)
        spoof_kinds = np.asarray(self.spoof_kinds, dtype=np.int8)
        if len(spoof_slots) != len(spoof_kinds):
            raise AdversaryError(
                "spoof_slots and spoof_kinds must have equal length: "
                f"{len(spoof_slots)}, {len(spoof_kinds)}"
            )
        if len(spoof_slots) and (
            spoof_slots.min() < 0 or spoof_slots.max() >= self.length
        ):
            raise AdversaryError("spoof slots outside phase")
        # Heard as SlotStatus values, and the resolver packs them into
        # three bits beside the slot.
        if len(spoof_kinds) and (
            spoof_kinds.min() < _KIND_LO or spoof_kinds.max() > _KIND_HI
        ):
            raise AdversaryError("spoof kinds must be TxKind values")
        self.spoof_slots = spoof_slots
        self.spoof_kinds = spoof_kinds

    @classmethod
    def _from_normalized(
        cls,
        length: int,
        global_slots: SlotSet,
        targeted: dict[int, SlotSet],
    ) -> "JamPlan":
        """Assemble a plan from already-normalised parts, skipping
        ``__post_init__``.

        Caller contract: ``length`` positive, every slot set within
        ``[0, length)``, targeted sets disjoint from the global set and
        non-empty.  Used by the canonical O(1) constructors and batched
        plan emission, where re-normalising a single interval per phase
        is the dominant cost of the whole adversary.
        """
        plan = object.__new__(cls)
        plan.length = length
        plan.global_slots = global_slots
        plan.targeted = targeted
        plan.spoof_slots = _EMPTY_SLOTS
        plan.spoof_kinds = _EMPTY_KINDS
        return plan

    @property
    def cost(self) -> int:
        """Energy the adversary spends executing this plan."""
        got = self.__dict__.get("_cost")
        if got is None:
            got = (
                len(self.global_slots)
                + sum(len(v) for v in self.targeted.values())
                + len(self.spoof_slots)
            )
            self.__dict__["_cost"] = got
        return got

    @staticmethod
    def silent(length: int) -> "JamPlan":
        """No jamming, no spoofing."""
        if length <= 0:
            raise AdversaryError(f"JamPlan length must be positive, got {length}")
        return JamPlan._from_normalized(length, _EMPTY_SLOTSET, {})

    @staticmethod
    def suffix(length: int, n_jammed: int, group: int | None = None) -> "JamPlan":
        """Jam the last ``n_jammed`` slots (Lemma 1's canonical form).

        With ``group=None`` the jam is channel-wide, otherwise targeted.
        O(1) in ``length`` — a single interval.
        """
        if length <= 0:
            raise AdversaryError(f"JamPlan length must be positive, got {length}")
        n_jammed = int(max(0, min(length, n_jammed)))
        slots = SlotSet.range(length - n_jammed, length)
        if group is None:
            return JamPlan._from_normalized(length, slots, {})
        targeted = {int(group): slots} if len(slots) else {}
        return JamPlan._from_normalized(length, _EMPTY_SLOTSET, targeted)

    @staticmethod
    def suffix_batch(
        lengths, n_jammed, groups: "list[int | None]"
    ) -> "list[JamPlan]":
        """B suffix plans at once — the trial-axis form of :meth:`suffix`.

        ``lengths`` and ``n_jammed`` are ``(B,)`` int arrays, ``groups``
        one target group (or ``None`` for channel-wide) per trial.
        Plan ``t`` equals ``JamPlan.suffix(lengths[t], n_jammed[t],
        groups[t])``; the clamping arithmetic is vectorised and each
        plan is assembled through the normalisation-free constructors,
        which is what batched plan emission for the zoo's interval
        adversaries rides on.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if len(lengths) and lengths.min() <= 0:
            raise AdversaryError("JamPlan length must be positive")
        n_jammed = np.clip(np.asarray(n_jammed, dtype=np.int64), 0, lengths)
        starts = lengths - n_jammed
        plans = []
        for t in range(len(lengths)):
            nj = int(n_jammed[t])
            if nj == 0:
                plan = JamPlan._from_normalized(
                    int(lengths[t]), _EMPTY_SLOTSET, {}
                )
                plan.__dict__["_cost"] = 0
                plans.append(plan)
                continue
            slots = SlotSet._unsafe(starts[t : t + 1], lengths[t : t + 1])
            # The interval size is the clamped jam count — seed the
            # lazy caches so per-plan cost queries never touch numpy.
            object.__setattr__(slots, "_size", nj)
            g = groups[t]
            if g is None:
                plan = JamPlan._from_normalized(int(lengths[t]), slots, {})
            else:
                plan = JamPlan._from_normalized(
                    int(lengths[t]), _EMPTY_SLOTSET, {int(g): slots}
                )
            plan.__dict__["_cost"] = nj
            plans.append(plan)
        return plans

    @staticmethod
    def prefix(length: int, n_jammed: int, group: int | None = None) -> "JamPlan":
        """Jam the first ``n_jammed`` slots (the reactive "act until the
        battery dies" shape).  O(1) in ``length`` — a single interval."""
        if length <= 0:
            raise AdversaryError(f"JamPlan length must be positive, got {length}")
        n_jammed = int(max(0, min(length, n_jammed)))
        slots = SlotSet.range(0, n_jammed)
        if group is None:
            return JamPlan._from_normalized(length, slots, {})
        targeted = {int(group): slots} if len(slots) else {}
        return JamPlan._from_normalized(length, _EMPTY_SLOTSET, targeted)

    def to_json(self) -> dict:
        """Plain-container snapshot of the plan.

        Jam schedules persist as interval boundaries (see
        :meth:`SlotSet.to_json`); spoof events as explicit slot/kind
        lists.  The round-trip through :meth:`from_json` is exact —
        normalisation is idempotent, so a rebuilt plan equals the
        original field for field — which is what lets the attack corpus
        replay a recorded schedule through :func:`repro.trace.verify_trace`.
        """
        return {
            "length": int(self.length),
            "global_slots": self.global_slots.to_json(),
            "targeted": {
                str(g): ss.to_json() for g, ss in sorted(self.targeted.items())
            },
            "spoof_slots": self.spoof_slots.tolist(),
            "spoof_kinds": self.spoof_kinds.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "JamPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        return cls(
            length=int(data["length"]),
            global_slots=SlotSet.from_json(data["global_slots"]),
            targeted={
                int(g): SlotSet.from_json(ss)
                for g, ss in data["targeted"].items()
            },
            spoof_slots=np.asarray(data["spoof_slots"], dtype=np.int64),
            spoof_kinds=np.asarray(data["spoof_kinds"], dtype=np.int8),
        )

    def jam_set(self, group: int) -> SlotSet:
        """Slots jammed for ``group`` (global ∪ targeted) as intervals."""
        targeted = self.targeted.get(int(group))
        if targeted is None:
            return self.global_slots
        return self.global_slots.union(targeted)

    def jam_mask(self, group: int) -> np.ndarray:
        """Boolean array of length ``length``: slots jammed for ``group``.

        Dense — used by the dense oracle resolver and the trace
        timeline; the sparse hot path uses :meth:`jam_set` instead.
        """
        mask = self.global_slots.mask(self.length)
        if group in self.targeted:
            mask |= self.targeted[group].mask(self.length)
        return mask


@dataclass(frozen=True)
class PhaseOutcome:
    """Ground-truth result of resolving one phase.

    ``heard`` is the only part a *protocol* may legally see (it is what
    the nodes' radios reported); the remaining fields are bookkeeping
    for the engine, adversaries (which are omniscient about the past),
    and analysis code.

    Attributes
    ----------
    heard:
        ``(n_nodes, N_STATUS)`` int array; ``heard[u, s]`` is how many of
        node ``u``'s listening slots had status ``s`` for ``u``'s group.
    send_cost / listen_cost:
        Per-node energy spent this phase.  A node that scheduled both a
        send and a listen in the same slot performs (and pays for) only
        the send.
    adversary_cost:
        Energy the adversary spent this phase.
    n_clear / n_noise:
        Channel-wide slot counts as a 1-uniform observer would see them
        (group 0's view), for traces and tests.
    data_slots:
        Number of slots in which the message ``m`` was decodable for at
        least one group.
    """

    heard: np.ndarray
    send_cost: np.ndarray
    listen_cost: np.ndarray
    adversary_cost: int
    n_clear: int
    n_noise: int
    data_slots: int
