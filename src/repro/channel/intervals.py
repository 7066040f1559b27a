"""Run-length (interval) representation of slot sets.

The adversary's canonical strategies jam *contiguous* stretches of a
phase — Lemma 1's suffix jam, the reactive prefix jam, the
Gilbert–Elliott burst, the per-window front-load — so representing a
jam schedule as an explicit ``np.arange`` of slot indices costs O(L)
time and memory per phase even when the schedule is "the last half".
:class:`SlotSet` stores the same set as sorted, disjoint, half-open
intervals ``[start, end)``; the canonical constructors are O(1) in the
phase length and every query the sparse resolver needs (membership,
cardinality, union, difference) runs in O(#intervals + #queries)
via ``searchsorted``.

A :class:`SlotSet` behaves like the sorted, deduplicated ``int64``
array it replaces: ``len``, iteration, indexing, and ``np.asarray``
all see the explicit slot indices, so code (and tests) written against
the old explicit-array :class:`~repro.channel.events.JamPlan` fields
keep working — materialisation only happens when such sequence access
is actually used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["SlotSet"]


def _merge_sorted(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge overlapping/adjacent intervals; input sorted by start."""
    if len(starts) == 0:
        return starts, ends
    cmax = np.maximum.accumulate(ends)
    new_run = np.ones(len(starts), dtype=bool)
    # Strict gap required to start a new run: [a, b) and [b, c) merge.
    new_run[1:] = starts[1:] > cmax[:-1]
    idx = np.flatnonzero(new_run)
    last = np.append(idx[1:] - 1, len(starts) - 1)
    return starts[idx], cmax[last]


@dataclass(frozen=True, eq=False)
class SlotSet:
    """An immutable set of slot indices as sorted disjoint intervals.

    Attributes
    ----------
    starts / ends:
        ``int64`` arrays of equal length; interval ``i`` covers the
        half-open range ``[starts[i], ends[i])``.  Normalised on
        construction: empty intervals dropped, overlapping or adjacent
        intervals merged, sorted ascending.
    """

    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.int64).ravel()
        ends = np.asarray(self.ends, dtype=np.int64).ravel()
        if starts.shape != ends.shape:
            raise SimulationError(
                f"interval starts/ends length mismatch: {len(starts)}, {len(ends)}"
            )
        if len(starts) and (ends < starts).any():
            raise SimulationError("interval end precedes its start")
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
        if len(starts) > 1:
            order = np.argsort(starts, kind="stable")
            starts, ends = _merge_sorted(starts[order], ends[order])
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    # -- constructors -------------------------------------------------

    @classmethod
    def _unsafe(cls, starts: np.ndarray, ends: np.ndarray) -> "SlotSet":
        """Wrap already-normalised interval arrays without re-validating.

        Caller contract: ``starts``/``ends`` are int64, equal length,
        sorted ascending, pairwise disjoint, with ``ends > starts``
        element-wise.  (Adjacent-but-unmerged intervals are tolerated:
        every query — ``contains``, ``size``, ``mask``, ``to_slots`` —
        only needs sorted disjointness.)  This is the hot-path
        constructor for the batched kernel, where normalisation cost
        per phase would otherwise dominate O(1) interval algebra.
        """
        ss = object.__new__(cls)
        object.__setattr__(ss, "starts", starts)
        object.__setattr__(ss, "ends", ends)
        return ss

    @staticmethod
    def empty() -> "SlotSet":
        return SlotSet(np.empty(0, np.int64), np.empty(0, np.int64))

    @staticmethod
    def range(start: int, stop: int) -> "SlotSet":
        """The contiguous interval ``[start, stop)`` — O(1)."""
        if stop <= start:
            return SlotSet.empty()
        out = SlotSet(np.array([start], np.int64), np.array([stop], np.int64))
        object.__setattr__(out, "_size", int(stop - start))
        return out

    @staticmethod
    def from_slots(slots) -> "SlotSet":
        """Run-length-encode an explicit (possibly unsorted, possibly
        duplicated) array of slot indices."""
        arr = np.unique(np.asarray(slots, dtype=np.int64))
        if len(arr) == 0:
            return SlotSet.empty()
        brk = np.flatnonzero(np.diff(arr) > 1)
        starts = arr[np.concatenate(([0], brk + 1))]
        ends = arr[np.concatenate((brk, [len(arr) - 1]))] + 1
        return SlotSet(starts, ends)

    @staticmethod
    def coerce(obj) -> "SlotSet":
        """``SlotSet`` passthrough; anything array-like via
        :meth:`from_slots`."""
        if isinstance(obj, SlotSet):
            return obj
        return SlotSet.from_slots(obj)

    # -- trial axis ----------------------------------------------------

    def shift(self, offset: int) -> "SlotSet":
        """The set translated by ``offset`` — O(#intervals)."""
        if not len(self.starts):
            return self
        return SlotSet._unsafe(self.starts + offset, self.ends + offset)

    @staticmethod
    def stack(sets: "list[SlotSet]", offsets: np.ndarray) -> "SlotSet":
        """Disjoint union of per-trial sets laid out on a shared axis.

        ``sets[t]`` is placed at ``offsets[t]``; the caller guarantees
        the shifted copies cannot overlap (offsets non-decreasing with
        ``sets[t] ⊆ [0, offsets[t+1] - offsets[t])``), which is exactly
        the layout the batched resolver uses — trial ``t`` owns the
        virtual slot range ``[offsets[t], offsets[t] + length_t)``.
        One membership query against the stacked set then answers B
        per-trial queries at once.
        """
        parts_s, parts_e, offs = [], [], []
        for s, off in zip(sets, offsets):
            if len(s.starts):
                parts_s.append(s.starts)
                parts_e.append(s.ends)
                offs.append(off)
        if not parts_s:
            return SlotSet.empty()
        sizes = np.fromiter(map(len, parts_s), np.int64, len(parts_s))
        shift = np.repeat(np.asarray(offs, dtype=np.int64), sizes)
        return SlotSet._unsafe(
            np.concatenate(parts_s) + shift, np.concatenate(parts_e) + shift
        )

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        """Plain-container snapshot: ``{"starts": [...], "ends": [...]}``.

        Interval boundaries, not materialised slots — the persisted form
        is as compact as the in-memory one, so a corpus entry holding a
        million-slot suffix jam stays two integers on disk.
        """
        return {"starts": self.starts.tolist(), "ends": self.ends.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "SlotSet":
        """Rebuild from :meth:`to_json` output (re-normalised on
        construction, so hand-edited overlaps are merged, not trusted)."""
        return cls(
            np.asarray(data["starts"], dtype=np.int64),
            np.asarray(data["ends"], dtype=np.int64),
        )

    # -- scalar queries ----------------------------------------------

    @property
    def size(self) -> int:
        """Number of slots in the set (not the number of intervals)."""
        got = self.__dict__.get("_size")
        if got is None:
            got = int((self.ends - self.starts).sum())
            object.__setattr__(self, "_size", got)
        return got

    @property
    def n_intervals(self) -> int:
        return len(self.starts)

    @property
    def min(self) -> int:
        """Smallest member; raises on an empty set."""
        if not len(self.starts):
            raise SimulationError("min() of an empty SlotSet")
        return int(self.starts[0])

    @property
    def max(self) -> int:
        """Largest member; raises on an empty set."""
        if not len(self.starts):
            raise SimulationError("max() of an empty SlotSet")
        return int(self.ends[-1]) - 1

    # -- vectorised queries ------------------------------------------

    def contains(self, slots) -> np.ndarray:
        """Boolean membership per query slot — O(#queries log #intervals):
        a member has an odd number of the bounds ``[s0, e0, s1, ...]``
        at or below it."""
        slots = np.asarray(slots, dtype=np.int64)
        if len(self.starts) == 0:
            return np.zeros(slots.shape, dtype=bool)
        bounds = self.__dict__.get("_bounds")
        if bounds is None:
            bounds = np.empty(2 * len(self.starts), dtype=np.int64)
            bounds[0::2] = self.starts
            bounds[1::2] = self.ends
            object.__setattr__(self, "_bounds", bounds)
        return (bounds.searchsorted(slots, side="right") & 1).astype(bool)

    def to_slots(self) -> np.ndarray:
        """Materialise the explicit sorted ``int64`` index array (O(size))."""
        sizes = self.ends - self.starts
        total = int(sizes.sum())
        if total == 0:
            return np.empty(0, np.int64)
        offsets = np.cumsum(sizes) - sizes
        return (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, sizes)
            + np.repeat(self.starts, sizes)
        )

    def mask(self, length: int) -> np.ndarray:
        """Dense boolean membership array over ``[0, length)``."""
        if len(self.starts) and (self.starts[0] < 0 or self.ends[-1] > length):
            raise SimulationError(
                f"SlotSet exceeds mask domain [0, {length}): "
                f"range [{self.min}, {self.max}]"
            )
        # Normalised intervals have strictly increasing, pairwise-distinct
        # boundaries, so plain fancy indexing cannot collide.
        delta = np.zeros(length + 1, dtype=np.int32)
        delta[self.starts] = 1
        delta[self.ends] -= 1
        return np.cumsum(delta[:length]) > 0

    # -- set algebra --------------------------------------------------

    def _boolean_op(self, other: "SlotSet", op) -> "SlotSet":
        # Membership is piecewise-constant between consecutive interval
        # boundaries of the two operands; evaluate `op` once per piece.
        bounds = np.unique(
            np.concatenate([self.starts, self.ends, other.starts, other.ends])
        )
        if len(bounds) == 0:
            return SlotSet.empty()
        keep = op(self.contains(bounds), other.contains(bounds))[:-1]
        return SlotSet(bounds[:-1][keep], bounds[1:][keep])

    def union(self, other: "SlotSet") -> "SlotSet":
        # Identity fast paths: both operands are immutable, so the
        # canonical adversaries (whose plans are one global *or* one
        # targeted interval, the other side empty) pay nothing here.
        if not len(other.starts):
            return self
        if not len(self.starts):
            return other
        return self._boolean_op(other, np.logical_or)

    def intersection(self, other: "SlotSet") -> "SlotSet":
        if not len(self.starts) or not len(other.starts):
            return SlotSet.empty()
        return self._boolean_op(other, np.logical_and)

    def difference(self, other: "SlotSet") -> "SlotSet":
        if not len(self.starts) or not len(other.starts):
            return self
        return self._boolean_op(other, lambda a, b: a & ~b)

    def complement(self, length: int) -> "SlotSet":
        """Slots of ``[0, length)`` not in the set."""
        return SlotSet.range(0, length).difference(self)

    def take_first(self, n: int) -> "SlotSet":
        """The ``n`` smallest members (battery-death trimming) — O(#intervals)."""
        if n <= 0:
            return SlotSet.empty()
        sizes = self.ends - self.starts
        cum = np.cumsum(sizes)
        if len(cum) == 0 or n >= cum[-1]:
            return self
        j = int(np.searchsorted(cum, n, side="left"))
        ends = self.ends[: j + 1].copy()
        taken_before = int(cum[j] - sizes[j])
        ends[j] = self.starts[j] + (n - taken_before)
        return SlotSet(self.starts[: j + 1], ends)

    # -- sequence-of-slots compatibility ------------------------------

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return len(self.starts) > 0

    def __iter__(self):
        return iter(self.to_slots())

    def __getitem__(self, index):
        return self.to_slots()[index]

    def __array__(self, dtype=None, copy=None):
        arr = self.to_slots()
        return arr.astype(dtype) if dtype is not None else arr

    def __eq__(self, other) -> bool:
        if isinstance(other, SlotSet):
            return np.array_equal(self.starts, other.starts) and np.array_equal(
                self.ends, other.ends
            )
        return NotImplemented

    def __repr__(self) -> str:
        spans = ", ".join(
            f"[{s}, {e})" for s, e in zip(self.starts[:4], self.ends[:4])
        )
        extra = "" if self.n_intervals <= 4 else f", ... {self.n_intervals} ivs"
        return f"SlotSet({spans}{extra}; size={self.size})"
