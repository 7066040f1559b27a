"""Per-channel jam schedules.

A multichannel adversary buys (channel, slot) *cells*: jamming channel
``c`` in real slot ``t`` costs 1 energy unit, so blanket-jamming a slot
across the whole band costs ``C`` — the entire point of spectrum as
defence.  :class:`ChannelJamPlan` is the schedule layer between a
strategy's intent ("jam a band of k channels on the phase suffix") and
the virtual-slot :class:`~repro.channel.events.JamPlan` the resolver
consumes: it stores one run-length
:class:`~repro.channel.intervals.SlotSet` per channel over the *real*
slot axis, offers O(#channels) canonical constructors (full band, band
suffix/prefix), per-channel energy accounting, and *time-major* budget
trimming (``take_first_cells``) — the "battery dies mid-run" semantics
a per-cell energy model implies.

Compilation to the resolver's domain is the virtual-slot reduction of
:mod:`repro.multichannel.engine`: channel ``c``'s schedule is shifted
by ``c * length`` and the per-channel sets are disjointly stacked, so
``compile()`` is O(total #intervals) and bit-compatible with plans
assembled by hand from virtual-slot arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.events import JamPlan
from repro.channel.intervals import SlotSet
from repro.errors import AdversaryError

__all__ = ["ChannelJamPlan"]


@dataclass(frozen=True)
class ChannelJamPlan:
    """Jam schedule as a mapping ``channel -> SlotSet`` of real slots.

    Attributes
    ----------
    length:
        Number of *real* slots in the phase.
    n_channels:
        Band width ``C``; channel keys must lie in ``[0, C)``.
    channels:
        Sparse per-channel schedules; channels with no jamming are
        simply absent.  Values are normalised to
        :class:`~repro.channel.intervals.SlotSet` within
        ``[0, length)``; empty sets are dropped.
    """

    length: int
    n_channels: int
    channels: dict[int, SlotSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise AdversaryError(
                f"ChannelJamPlan length must be positive, got {self.length}"
            )
        if self.n_channels < 1:
            raise AdversaryError(
                f"ChannelJamPlan needs n_channels >= 1, got {self.n_channels}"
            )
        cleaned: dict[int, SlotSet] = {}
        for channel, slots in self.channels.items():
            c = int(channel)
            if not 0 <= c < self.n_channels:
                raise AdversaryError(
                    f"channel {c} outside band [0, {self.n_channels})"
                )
            ss = SlotSet.coerce(slots)
            if len(ss) and (ss.min < 0 or ss.max >= self.length):
                raise AdversaryError(
                    f"channel {c} schedule exceeds phase [0, {self.length}): "
                    f"range [{ss.min}, {ss.max}]"
                )
            if len(ss):
                cleaned[c] = ss
        object.__setattr__(self, "channels", cleaned)

    @classmethod
    def _from_normalized(
        cls, length: int, n_channels: int, channels: dict[int, SlotSet]
    ) -> "ChannelJamPlan":
        """Assemble without re-validating.

        Caller contract: every value is a non-empty ``SlotSet`` within
        ``[0, length)`` and every key an int in ``[0, n_channels)``.
        """
        plan = object.__new__(cls)
        object.__setattr__(plan, "length", length)
        object.__setattr__(plan, "n_channels", n_channels)
        object.__setattr__(plan, "channels", channels)
        return plan

    # -- canonical constructors ---------------------------------------

    @staticmethod
    def silent(length: int, n_channels: int) -> "ChannelJamPlan":
        """No cell bought anywhere."""
        return ChannelJamPlan(length, n_channels, {})

    @staticmethod
    def band(
        length: int,
        n_channels: int,
        n_channels_jammed: int,
        slots: SlotSet,
    ) -> "ChannelJamPlan":
        """The same slot schedule on the ``k`` lowest-indexed channels.

        Under uniform unpredictable hopping *which* channels are jammed
        is irrelevant, only how many — so the canonical band is the low
        prefix of the channel axis.  O(k) regardless of phase length.
        """
        k = max(0, min(n_channels, n_channels_jammed))
        slots = SlotSet.coerce(slots)
        if k == 0 or not len(slots):
            return ChannelJamPlan(length, n_channels, {})
        return ChannelJamPlan(length, n_channels, {c: slots for c in range(k)})

    @staticmethod
    def band_suffix(
        length: int, n_channels: int, n_channels_jammed: int, n_jammed: int
    ) -> "ChannelJamPlan":
        """Jam the last ``n_jammed`` slots on a band of ``k`` channels."""
        n_jammed = int(max(0, min(length, n_jammed)))
        return ChannelJamPlan.band(
            length,
            n_channels,
            n_channels_jammed,
            SlotSet.range(length - n_jammed, length),
        )

    @staticmethod
    def fraction(length: int, n_channels: int, eps: float) -> "ChannelJamPlan":
        """The Chen–Zheng ``(1 - eps)``-fraction schedule.

        ``(1 - eps) * C`` cells per *real* slot: the integer part as
        full channels, the fractional remainder time-shared as a prefix
        of the next channel (preserving the per-slot average).  This is
        the canonical form
        :class:`~repro.multichannel.adversaries.FractionJammer` emits;
        O(#channels) regardless of phase length.
        """
        jam_rate = (1.0 - eps) * n_channels  # cells per real slot
        k = int(jam_rate)
        n_frac = int(round((jam_rate - k) * length))
        channels: dict[int, SlotSet] = {
            c: SlotSet.range(0, length) for c in range(k)
        }
        if n_frac and k < n_channels:
            channels[k] = SlotSet.range(0, n_frac)
        return ChannelJamPlan._from_normalized(length, n_channels, channels)

    @staticmethod
    def sweep_band(
        length: int,
        n_channels: int,
        width: int,
        offset: int,
        n_jammed: int,
    ) -> "ChannelJamPlan":
        """A suffix jam on ``width`` channels whose low edge sits at
        ``offset``, wrapping modulo ``C`` — one phase of
        :class:`~repro.multichannel.adversaries.ChannelSweepJammer` in
        canonical form.  O(#channels)."""
        k = max(0, min(n_channels, width))
        n_jammed = int(max(0, min(length, n_jammed)))
        if k == 0 or n_jammed == 0:
            return ChannelJamPlan._from_normalized(length, n_channels, {})
        slots = SlotSet.range(length - n_jammed, length)
        channels = {(offset + j) % n_channels: slots for j in range(k)}
        return ChannelJamPlan._from_normalized(length, n_channels, channels)

    # -- batch constructors -------------------------------------------
    #
    # Lockstep trials mostly share phase lengths, and these schedules
    # depend on nothing else per trial — so repeated keys get the *same*
    # frozen plan object and construction is O(1) amortised per trial.
    # Sharing is safe because plans are immutable and consumed
    # read-only; compilation (memoised per instance) then also happens
    # once per distinct schedule rather than once per trial.

    @staticmethod
    def fraction_batch(
        lengths, n_channels: int, eps: float
    ) -> "list[ChannelJamPlan]":
        """One :meth:`fraction` schedule per trial, deduplicated on
        phase length."""
        cache: dict[int, ChannelJamPlan] = {}
        out = []
        for length in lengths:
            key = int(length)
            plan = cache.get(key)
            if plan is None:
                plan = cache[key] = ChannelJamPlan.fraction(
                    key, n_channels, eps
                )
            out.append(plan)
        return out

    @staticmethod
    def band_suffix_batch(
        lengths, n_channels: int, n_channels_jammed: int, n_jams
    ) -> "list[ChannelJamPlan]":
        """One :meth:`band_suffix` schedule per trial, deduplicated on
        ``(length, n_jammed)``."""
        cache: dict[tuple[int, int], ChannelJamPlan] = {}
        out = []
        for length, n_jam in zip(lengths, n_jams):
            key = (int(length), int(n_jam))
            plan = cache.get(key)
            if plan is None:
                plan = cache[key] = ChannelJamPlan.band_suffix(
                    key[0], n_channels, n_channels_jammed, key[1]
                )
            out.append(plan)
        return out

    @staticmethod
    def sweep_batch(
        lengths, n_channels: int, width: int, offsets, n_jams
    ) -> "list[ChannelJamPlan]":
        """One :meth:`sweep_band` schedule per trial, deduplicated on
        ``(length, offset, n_jammed)``."""
        cache: dict[tuple[int, int, int], ChannelJamPlan] = {}
        out = []
        for length, offset, n_jam in zip(lengths, offsets, n_jams):
            key = (int(length), int(offset), int(n_jam))
            plan = cache.get(key)
            if plan is None:
                plan = cache[key] = ChannelJamPlan.sweep_band(
                    key[0], n_channels, width, key[1], key[2]
                )
            out.append(plan)
        return out

    @staticmethod
    def from_compiled(
        length: int, n_channels: int, plan: JamPlan
    ) -> "ChannelJamPlan":
        """Inverse of :meth:`compile` at the interval level.

        Splits the virtual-slot plan's global intervals at band
        boundaries — O(#intervals + #bands crossed), never
        materialising cells — so a wrapper (e.g. the budget cap) can
        re-trim a compiled plan time-major.  MC plans are band-global by
        construction; targeted groups and spoofs are not representable.
        """
        if plan.length != n_channels * length:
            raise AdversaryError(
                f"compiled plan covers {plan.length} virtual slots, "
                f"expected {n_channels}x{length}"
            )
        if plan.targeted or len(plan.spoof_slots):
            raise AdversaryError(
                "per-channel schedules cannot represent targeted jams or spoofs"
            )
        pieces: dict[int, list[tuple[int, int]]] = {}
        for s, e in zip(plan.global_slots.starts, plan.global_slots.ends):
            for c in range(int(s) // length, int(e - 1) // length + 1):
                lo = max(int(s), c * length) - c * length
                hi = min(int(e), (c + 1) * length) - c * length
                pieces.setdefault(c, []).append((lo, hi))
        channels = {
            # global_slots is sorted and disjoint, so each channel's
            # pieces arrive sorted and disjoint too.
            c: SlotSet._unsafe(
                np.asarray([p[0] for p in ps], dtype=np.int64),
                np.asarray([p[1] for p in ps], dtype=np.int64),
            )
            for c, ps in pieces.items()
        }
        return ChannelJamPlan._from_normalized(length, n_channels, channels)

    @staticmethod
    def from_virtual(
        length: int, n_channels: int, virtual_slots
    ) -> "ChannelJamPlan":
        """Inverse of :meth:`compile`: split explicit virtual-slot cells
        (``c * length + t``) back into per-channel schedules."""
        arr = np.unique(np.asarray(virtual_slots, dtype=np.int64))
        if len(arr) and (arr[0] < 0 or arr[-1] >= n_channels * length):
            raise AdversaryError(
                f"virtual slots outside [0, {n_channels * length})"
            )
        channels: dict[int, SlotSet] = {}
        for c in np.unique(arr // length):
            band = arr[(arr >= c * length) & (arr < (c + 1) * length)]
            channels[int(c)] = SlotSet.from_slots(band - c * length)
        return ChannelJamPlan._from_normalized(length, n_channels, channels)

    # -- energy accounting --------------------------------------------

    @property
    def cost(self) -> int:
        """Total cells bought — the energy this schedule costs."""
        got = self.__dict__.get("_cost")
        if got is None:
            got = sum(len(ss) for ss in self.channels.values())
            object.__setattr__(self, "_cost", got)
        return got

    def channel_costs(self) -> np.ndarray:
        """``(C,)`` int64 array of cells bought per channel."""
        out = np.zeros(self.n_channels, dtype=np.int64)
        for c, ss in self.channels.items():
            out[c] = len(ss)
        return out

    # -- budget trimming ----------------------------------------------

    def take_first_cells(self, n: int) -> "ChannelJamPlan":
        """The ``n`` earliest cells in *time-major* order.

        Cells are ordered by (slot, channel): the battery pays for every
        channel it holds in a slot before the next slot begins, so a
        budget-capped fraction jammer stays a fraction jammer until the
        battery dies rather than degenerating into a one-channel blocker
        (which is what channel-major trimming of the compiled virtual
        plan would do).  O(total #intervals · log) via a boundary sweep:
        jamming depth is piecewise-constant between interval boundaries.
        """
        n = int(n)
        if n <= 0:
            return ChannelJamPlan._from_normalized(
                self.length, self.n_channels, {}
            )
        if n >= self.cost:
            return self
        order = sorted(self.channels)
        starts = np.sort(np.concatenate([self.channels[c].starts for c in order]))
        ends = np.sort(np.concatenate([self.channels[c].ends for c in order]))
        bounds = np.unique(np.concatenate([starts, ends]))
        # Depth (channels held) within [bounds[j], bounds[j+1]).
        depth = np.searchsorted(starts, bounds, side="right") - np.searchsorted(
            ends, bounds, side="right"
        )
        widths = np.diff(bounds)
        cells = np.concatenate(([0], np.cumsum(depth[:-1] * widths)))
        j = int(np.searchsorted(cells, n, side="right")) - 1
        excess = n - int(cells[j])
        if excess == 0:
            # Budget exhausted exactly at a segment boundary (possibly a
            # zero-depth gap, where per-slot division is undefined).
            cutoff, remainder = int(bounds[j]), 0
        else:
            # n < cost guarantees the cutoff falls inside segment j,
            # which therefore has depth >= 1.
            cutoff = int(bounds[j]) + excess // int(depth[j])
            remainder = excess % int(depth[j])
        prefix = SlotSet.range(0, cutoff)
        channels: dict[int, SlotSet] = {}
        for c in order:
            kept = self.channels[c].intersection(prefix)
            if remainder > 0 and self.channels[c].contains([cutoff])[0]:
                kept = kept.union(SlotSet.range(cutoff, cutoff + 1))
                remainder -= 1
            if len(kept):
                channels[c] = kept
        return ChannelJamPlan._from_normalized(
            self.length, self.n_channels, channels
        )

    # -- compilation ---------------------------------------------------

    def compile(self) -> JamPlan:
        """Lower to a virtual-slot :class:`~repro.channel.events.JamPlan`.

        Channel ``c``'s schedule lands in the virtual band
        ``[c * length, (c + 1) * length)``; bands are disjoint by
        construction so the stack is normalisation-free.

        The compiled plan is memoised on the instance: schedules are
        frozen and plans are consumed read-only, so batched adversaries
        sharing one ``ChannelJamPlan`` across trials pay the stack
        exactly once.
        """
        got = self.__dict__.get("_compiled")
        if got is not None:
            return got
        order = sorted(self.channels)
        stacked = SlotSet.stack(
            [self.channels[c] for c in order],
            np.asarray([c * self.length for c in order], dtype=np.int64),
        )
        plan = JamPlan._from_normalized(
            self.n_channels * self.length, stacked, {}
        )
        plan.__dict__["_cost"] = self.cost
        object.__setattr__(self, "_compiled", plan)
        return plan

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """Plain-container snapshot (channel keys as strings, schedules
        as interval boundaries)."""
        return {
            "length": int(self.length),
            "n_channels": int(self.n_channels),
            "channels": {
                str(c): ss.to_json() for c, ss in sorted(self.channels.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChannelJamPlan":
        """Rebuild from :meth:`to_json` output (re-validated)."""
        return cls(
            length=int(data["length"]),
            n_channels=int(data["n_channels"]),
            channels={
                int(c): SlotSet.from_json(ss)
                for c, ss in data["channels"].items()
            },
        )
