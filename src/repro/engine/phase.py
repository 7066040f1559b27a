"""Phase contract between protocols and the engine.

A *phase* is a block of consecutive slots during which every node's
behaviour is i.i.d. per slot (Figure 1's send/nack phases, Figure 2's
repetitions).  Protocols describe phases declaratively with
:class:`PhaseSpec`; the engine runs them and hands back a
:class:`PhaseObservation` containing only what the nodes legally heard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.events import _KIND_HI, _KIND_LO, N_STATUS, SlotStatus
from repro.errors import ProtocolError

__all__ = [
    "PhaseSpec",
    "PhaseObservation",
    "BatchPhaseSpec",
    "BatchPhaseObservation",
]


@dataclass
class PhaseSpec:
    """Declarative description of one phase.

    Attributes
    ----------
    length:
        Number of slots.
    send_probs:
        ``(n_nodes,)`` per-slot transmission probability.  Halted or
        silent nodes simply have probability 0.
    send_kinds:
        ``(n_nodes,)`` :class:`TxKind` each node transmits when it sends
        (``DATA`` for the message ``m``, ``NOISE`` for Figure 2's
        uninformed nodes, ``NACK``/``ACK`` for feedback phases).
    listen_probs:
        ``(n_nodes,)`` per-slot listening probability.
    groups:
        ``(n_nodes,)`` jam-group assignment for an ``l``-uniform
        adversary; ``None`` puts everyone in group 0.
    tags:
        Free-form metadata exposed to the adversary and traces (epoch
        index, phase kind, repetition number, ...).  Adversaries key
        their strategies off these.
    """

    length: int
    send_probs: np.ndarray
    send_kinds: np.ndarray
    listen_probs: np.ndarray
    groups: np.ndarray | None = None
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ProtocolError(f"phase length must be positive, got {self.length}")
        self.send_probs = np.asarray(self.send_probs, dtype=np.float64)
        self.listen_probs = np.asarray(self.listen_probs, dtype=np.float64)
        self.send_kinds = np.asarray(self.send_kinds, dtype=np.int8)
        n = len(self.send_probs)
        if self.listen_probs.shape != (n,) or self.send_kinds.shape != (n,):
            raise ProtocolError("PhaseSpec array length mismatch")
        for name, arr in (("send", self.send_probs), ("listen", self.listen_probs)):
            if len(arr) and (arr.min() < 0.0 or arr.max() > 1.0):
                raise ProtocolError(f"{name} probabilities must lie in [0, 1]")
        if len(self.send_kinds) and (
            self.send_kinds.min() < _KIND_LO or self.send_kinds.max() > _KIND_HI
        ):
            raise ProtocolError(f"send_kinds must be TxKind values, got "
                                f"{sorted(set(np.unique(self.send_kinds)))}")
        if self.groups is not None:
            self.groups = np.asarray(self.groups, dtype=np.int64)
            if self.groups.shape != (n,):
                raise ProtocolError("groups length mismatch")

    @property
    def n_nodes(self) -> int:
        return len(self.send_probs)


@dataclass(frozen=True)
class PhaseObservation:
    """What the protocol's nodes learned from one phase.

    This object deliberately contains *only* information the model grants
    the nodes: their own action costs and the per-status counts of what
    they heard.  Ground truth (true jam fraction, other nodes' actions)
    stays inside the engine.

    Attributes
    ----------
    length:
        The phase length, echoed back.
    heard:
        ``(n_nodes, N_STATUS)`` counts of listening slots by status.
    send_cost / listen_cost:
        ``(n_nodes,)`` energy actually spent (half-duplex collisions
        already deducted from listens).
    tags:
        The spec's tags, echoed back.
    """

    length: int
    heard: np.ndarray
    send_cost: np.ndarray
    listen_cost: np.ndarray
    tags: dict

    def heard_kind(self, kind: SlotStatus) -> np.ndarray:
        """Per-node count of slots heard with the given status."""
        return self.heard[:, int(kind)]

    @property
    def heard_clear(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.CLEAR)

    @property
    def heard_noise(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.NOISE)

    @property
    def heard_data(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.DATA)

    @property
    def heard_nack(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.NACK)

    @property
    def heard_ack(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.ACK)

    @property
    def cost(self) -> np.ndarray:
        """Total per-node energy spent this phase."""
        return self.send_cost + self.listen_cost

    @staticmethod
    def empty(length: int, n_nodes: int, tags: dict | None = None) -> "PhaseObservation":
        """An observation where nobody acted (used by tests)."""
        return PhaseObservation(
            length=length,
            heard=np.zeros((n_nodes, N_STATUS), dtype=np.int64),
            send_cost=np.zeros(n_nodes, dtype=np.int64),
            listen_cost=np.zeros(n_nodes, dtype=np.int64),
            tags=dict(tags or {}),
        )


@dataclass
class BatchPhaseSpec:
    """One lockstep phase for a batch of B independent trials.

    Rows whose ``active`` flag is False are placeholders: their trial is
    done (or excluded by the engine's mask) and emits nothing this step.
    Placeholder rows carry ``lengths = 1`` and zero probabilities so the
    stacked arrays stay rectangular; the engine never samples them.

    ``groups`` is shared across trials: every protocol in the zoo uses a
    fixed group layout for the whole run, so one ``(n_nodes,)`` array (or
    ``None`` for all-group-0) covers the batch.

    ``tags`` is a length-B list of per-trial tag dicts (``None`` on
    inactive rows).  Tag values must be plain Python scalars so batched
    runs serialize identically to serial ones.
    """

    lengths: np.ndarray          # (B,) int64
    send_probs: np.ndarray       # (B, n) float64
    send_kinds: np.ndarray       # (B, n) int8
    listen_probs: np.ndarray     # (B, n) float64
    active: np.ndarray           # (B,) bool
    groups: np.ndarray | None = None   # (n,) int64, shared by all trials
    tags: list = field(default_factory=list)  # length B, dict | None

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        self.send_probs = np.asarray(self.send_probs, dtype=np.float64)
        self.listen_probs = np.asarray(self.listen_probs, dtype=np.float64)
        self.send_kinds = np.asarray(self.send_kinds, dtype=np.int8)
        self.active = np.asarray(self.active, dtype=bool)
        b, n = self.send_probs.shape
        if (
            self.listen_probs.shape != (b, n)
            or self.send_kinds.shape != (b, n)
            or self.lengths.shape != (b,)
            or self.active.shape != (b,)
        ):
            raise ProtocolError("BatchPhaseSpec array shape mismatch")
        if not self.tags:
            self.tags = [None] * b
        elif len(self.tags) != b:
            raise ProtocolError("BatchPhaseSpec tags length mismatch")
        act = self.active
        if act.any():
            if self.lengths[act].min() <= 0:
                raise ProtocolError("phase length must be positive")
            for name, arr in (("send", self.send_probs), ("listen", self.listen_probs)):
                sub = arr[act]
                if sub.size and (sub.min() < 0.0 or sub.max() > 1.0):
                    raise ProtocolError(f"{name} probabilities must lie in [0, 1]")
            kinds = self.send_kinds[act]
            if kinds.size and (kinds.min() < _KIND_LO or kinds.max() > _KIND_HI):
                raise ProtocolError("send_kinds must be TxKind values")
        if self.groups is not None:
            self.groups = np.asarray(self.groups, dtype=np.int64)
            if self.groups.shape != (n,):
                raise ProtocolError("groups length mismatch")

    @property
    def batch_size(self) -> int:
        return len(self.lengths)

    @property
    def n_nodes(self) -> int:
        return self.send_probs.shape[1]

    @staticmethod
    def stack(specs: "list[PhaseSpec | None]", n_nodes: int) -> "BatchPhaseSpec | None":
        """Stack per-trial specs (``None`` rows inactive); ``None`` if all are.

        Used by the serial-fallback batch adapter in
        :class:`repro.protocols.base.Protocol`.  All non-``None`` specs
        must agree on their group layout.
        """
        b = len(specs)
        active = np.fromiter((s is not None for s in specs), dtype=bool, count=b)
        if not active.any():
            return None
        lengths = np.ones(b, dtype=np.int64)
        send_probs = np.zeros((b, n_nodes), dtype=np.float64)
        listen_probs = np.zeros((b, n_nodes), dtype=np.float64)
        send_kinds = np.zeros((b, n_nodes), dtype=np.int8)
        tags: list = [None] * b
        groups = None
        seen_groups = False
        for t, s in enumerate(specs):
            if s is None:
                continue
            lengths[t] = s.length
            send_probs[t] = s.send_probs
            listen_probs[t] = s.listen_probs
            send_kinds[t] = s.send_kinds
            tags[t] = s.tags
            if not seen_groups:
                groups, seen_groups = s.groups, True
            elif (groups is None) != (s.groups is None) or (
                groups is not None and not np.array_equal(groups, s.groups)
            ):
                raise ProtocolError(
                    "BatchPhaseSpec.stack: trials disagree on group layout"
                )
        return BatchPhaseSpec(
            lengths=lengths,
            send_probs=send_probs,
            send_kinds=send_kinds,
            listen_probs=listen_probs,
            active=active,
            groups=groups,
            tags=tags,
        )


@dataclass(frozen=True)
class BatchPhaseObservation:
    """Stacked :class:`PhaseObservation` for a batch of B trials.

    Arrays span the full batch; rows where ``active`` is False are
    zero-filled padding (their trial emitted nothing this step) and must
    be ignored by protocols — that is the masking rule that keeps
    early-finished trials' state frozen.
    """

    lengths: np.ndarray      # (B,) int64
    heard: np.ndarray        # (B, n, N_STATUS) int64
    send_cost: np.ndarray    # (B, n) int64
    listen_cost: np.ndarray  # (B, n) int64
    active: np.ndarray       # (B,) bool
    tags: list               # length B, dict | None

    @property
    def batch_size(self) -> int:
        return len(self.lengths)

    def heard_kind(self, kind: SlotStatus) -> np.ndarray:
        """``(B, n)`` count of slots heard with the given status."""
        return self.heard[:, :, int(kind)]

    @property
    def heard_clear(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.CLEAR)

    @property
    def heard_noise(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.NOISE)

    @property
    def heard_data(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.DATA)

    @property
    def heard_nack(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.NACK)

    @property
    def heard_ack(self) -> np.ndarray:
        return self.heard_kind(SlotStatus.ACK)

    def observation_for(self, t: int) -> PhaseObservation:
        """Per-trial :class:`PhaseObservation` for row ``t`` (must be active)."""
        return PhaseObservation(
            length=int(self.lengths[t]),
            heard=self.heard[t],
            send_cost=self.send_cost[t],
            listen_cost=self.listen_cost[t],
            tags=dict(self.tags[t] or {}),
        )
