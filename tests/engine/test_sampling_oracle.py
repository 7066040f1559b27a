"""Differential oracle for the serial subset sampler.

``reference_distinct_positions_batch`` is ``_distinct_positions_batch``
as it stood before its per-round NumPy call count was cut, kept
verbatim together with the two helpers it called, so the oracle shares
no code with the sampler under test.  The rewrite must return the same
``(nodes, slots)`` arrays, in the same order and dtype, and leave the
generator in the same state, across light draws, heavy nodes sampled
as complements, draws that need several rejection rounds, draws that
trim a surplus, and trims whose tie-breaks tie.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sampling import _distinct_positions_batch

pytestmark = pytest.mark.engine


def _reference_sorted_distinct(keys, kind=None):
    if not len(keys):
        return keys
    keys.sort(kind=kind)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _reference_invert_complement(heavy_idx, length, comp_nodes, comp_slots):
    if not len(comp_nodes):
        nodes = np.repeat(heavy_idx, length)
        slots = np.tile(np.arange(length, dtype=np.int64), len(heavy_idx))
        return nodes, slots
    mask = np.ones((len(heavy_idx), length), dtype=bool)
    remap = np.full(int(heavy_idx.max()) + 1, -1, dtype=np.int64)
    remap[heavy_idx] = np.arange(len(heavy_idx))
    mask[remap[comp_nodes], comp_slots] = False
    rows, cols = np.nonzero(mask)
    return heavy_idx[rows], cols.astype(np.int64)


def reference_distinct_positions_batch(rng, length, counts):
    """The serial subset sampler before the rewrite, body verbatim."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    heavy = counts > length // 2

    node_parts: list[np.ndarray] = []
    slot_parts: list[np.ndarray] = []

    light_idx = np.flatnonzero(~heavy & (counts > 0))
    if len(light_idx):
        want = counts[light_idx]
        keys = np.empty(0, dtype=np.int64)
        need = want.copy()
        while True:
            total = int(need.sum())
            if total == 0:
                break
            overdraw = need + need // 16 + 4
            draw_nodes = np.repeat(light_idx, overdraw)
            draw_slots = rng.integers(0, length, int(overdraw.sum()))
            keys = _reference_sorted_distinct(
                np.concatenate([keys, draw_nodes * length + draw_slots])
            )
            have = np.bincount(keys // length, minlength=n)[light_idx]
            need = np.maximum(0, want - have)

        nodes_all = keys // length
        have = np.bincount(nodes_all, minlength=n)[light_idx]
        if (have > want).any():
            order = np.lexsort((rng.random(len(keys)), nodes_all))
            starts = np.zeros(len(light_idx), dtype=np.int64)
            np.cumsum(have[:-1], out=starts[1:])
            seg_of = np.repeat(np.arange(len(light_idx)), have)
            rank = np.arange(len(keys)) - starts[seg_of]
            keep_sorted = rank < want[seg_of]
            keys = keys[order[keep_sorted]]
            nodes_all = keys // length
        node_parts.append(nodes_all)
        slot_parts.append(keys % length)

    heavy_idx = np.flatnonzero(heavy)
    if len(heavy_idx):
        comp_counts = np.zeros(n, dtype=np.int64)
        comp_counts[heavy_idx] = length - counts[heavy_idx]
        comp_nodes, comp_slots = reference_distinct_positions_batch(
            rng, length, comp_counts
        )
        nodes, slots = _reference_invert_complement(
            heavy_idx, length, comp_nodes, comp_slots
        )
        node_parts.append(nodes)
        slot_parts.append(slots)

    if not node_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate(node_parts),
        np.concatenate(slot_parts).astype(np.int64),
    )


class LoggingRng:
    """A generator proxy that records every call the sampler makes;
    with ``tie=True``, ``random()`` repeats its first value in second
    place, so the first trimmed node segment holds a tied tie-break."""

    def __init__(self, seed: int, tie: bool = False) -> None:
        self._rng = np.random.default_rng(seed)
        self._tie = tie
        self.calls: list[tuple] = []

    def integers(self, low, high, size):
        self.calls.append(("integers", low, high, size))
        return self._rng.integers(low, high, size)

    def random(self, size):
        self.calls.append(("random", size))
        u = self._rng.random(size)
        if self._tie and size > 1:
            u[1] = u[0]
        return u

    def state(self):
        return self._rng.bit_generator.state


def assert_matches_reference(seed, length, counts, tie=False):
    """Run both samplers on equal generators; returns the call log."""
    got_rng, want_rng = LoggingRng(seed, tie), LoggingRng(seed, tie)
    nodes, slots = _distinct_positions_batch(got_rng, length, counts)
    want_nodes, want_slots = reference_distinct_positions_batch(
        want_rng, length, counts
    )
    assert nodes.dtype == want_nodes.dtype == np.int64
    assert slots.dtype == want_slots.dtype == np.int64
    np.testing.assert_array_equal(nodes, want_nodes)
    np.testing.assert_array_equal(slots, want_slots)
    assert got_rng.calls == want_rng.calls
    assert got_rng.state() == want_rng.state()
    return want_rng.calls


REGIMES = ("zero", "tiny", "light", "half", "heavy", "full")


def _count(fill: np.random.Generator, length: int, regime: str) -> int:
    half = length // 2
    if regime == "zero":
        return 0
    if regime == "tiny":
        return int(min(length, fill.integers(1, 4)))
    if regime == "light":
        return int(fill.integers(0, half + 1))
    if regime == "half":
        return int(max(0, half - fill.integers(0, 3)))
    if regime == "heavy":
        return int(fill.integers(half + 1, length + 1))
    return length


@st.composite
def draws(draw):
    """``(seed, length, counts)``: one regime for every node, or one
    per node."""
    length = draw(st.one_of(st.integers(1, 16), st.integers(17, 3000)))
    n = draw(st.integers(1, 40))
    regime = draw(st.sampled_from(REGIMES + ("mixed",)))
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.array([
        _count(fill, length, fill.choice(REGIMES) if regime == "mixed" else regime)
        for _ in range(n)
    ], dtype=np.int64)
    return draw(st.integers(0, 2**32 - 1)), length, counts


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(case=draws(), tie=st.booleans())
    def test_matches_reference(self, case, tie):
        seed, length, counts = case
        assert_matches_reference(seed, length, counts, tie)

    def test_every_regime_is_reached(self):
        # Fixed cases that pin each branch: nothing to draw, one light
        # round, several rounds, a trim, a heavy node's complement, a
        # full row, and node ids past the packed sort's 1024 limit.
        cases = {
            "empty": (5, 64, [0, 0, 0]),
            "light": (1, 4096, [3, 0, 5]),
            "rounds": (2, 40, [20, 19, 20]),
            "heavy": (3, 50, [40, 2, 49]),
            "full": (4, 30, [30, 30]),
            "heavy-only": (6, 30, [0, 29]),
            "wide": (7, 500, [0] * 1100 + [40, 3]),
        }
        logs = {
            name: assert_matches_reference(seed, length, np.array(c))
            for name, (seed, length, c) in cases.items()
        }
        assert logs["empty"] == []
        rounds = [c for c in logs["rounds"] if c[0] == "integers"]
        assert len(rounds) > 1
        assert any(c[0] == "random" for c in logs["light"])
        assert any(c[0] == "random" for c in logs["wide"])
        # The complement of a heavy node is drawn after the light ones.
        assert len([c for c in logs["heavy"] if c[0] == "integers"]) >= 2

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_tie_breaks(self, seed):
        assert_matches_reference(seed, 64, np.array([20, 3, 12]), tie=True)
