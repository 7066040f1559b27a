"""Differential tests for the lockstep subset sampler.

``_distinct_positions_multi`` must reproduce B independent
``_distinct_positions_batch`` calls exactly: the same (node, slot)
arrays in the same order, the same dtypes, and every trial's generator
left in the same state.  It returns every trial's events stacked, with
per-trial bounds and keys on one trial-major axis.  The hypothesis suite varies batch size, node
count, mixed phase lengths and every count regime — zero, tiny, near
``L // 2`` (several rejection rounds) and above it (complement
sampling) — so batches mix trials that trim their surplus with trials
that do not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.events import EventStack
from repro.engine.sampling import (
    _distinct_positions_batch,
    _distinct_positions_multi,
    sample_action_events_batch,
)
from repro.errors import SimulationError

pytestmark = pytest.mark.engine

REGIMES = ("zero", "tiny", "half", "heavy")


def _counts(rng: np.random.Generator, length: int, regime: str) -> int:
    half = length // 2
    if regime == "zero":
        return 0
    if regime == "tiny":
        return int(min(length, rng.integers(1, 4)))
    if regime == "half":
        return int(max(0, half - rng.integers(0, 3)))
    return int(rng.integers(half + 1, length + 1))


@st.composite
def batches(draw):
    """``(seeds, lengths, counts2d)`` for a batch of 2 to 9 trials."""
    b = draw(st.integers(2, 9))
    n = draw(st.integers(1, 70))
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 16), st.integers(17, 600)),
        min_size=b, max_size=b,
    ))
    # Per trial, one regime for every node or an independent regime
    # per node.
    regimes = draw(st.lists(
        st.sampled_from(REGIMES + ("mixed",)), min_size=b, max_size=b
    ))
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((b, n), dtype=np.int64)
    for t, (length, regime) in enumerate(zip(lengths, regimes)):
        for u in range(n):
            r = fill.choice(REGIMES) if regime == "mixed" else regime
            counts[t, u] = _counts(fill, length, r)
    seeds = draw(st.lists(
        st.integers(0, 2**32 - 1), min_size=b, max_size=b
    ))
    return seeds, lengths, counts


def assert_matches_serial(rngs_multi, rngs_serial, lengths, counts):
    lengths_arr = np.array(lengths, dtype=np.int64)
    key_base = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(counts.shape[1] * lengths_arr, out=key_base[1:])
    keys, all_nodes, all_slots, bounds = _distinct_positions_multi(
        rngs_multi, lengths_arr, counts, key_base
    )
    assert len(bounds) == len(lengths) + 1
    # One key axis: trial t's node u, slot s is key_base[t] + u*L_t + s,
    # whether the kernel drew on it or the stack builds the keys.
    owner = np.repeat(np.arange(len(lengths)), np.diff(bounds))
    stack = EventStack(all_nodes, all_slots, None, bounds, keys)
    np.testing.assert_array_equal(
        stack.half_duplex_keys(lengths_arr, counts.shape[1]),
        key_base[owner] + all_nodes * lengths_arr[owner] + all_slots,
    )
    for t in range(len(lengths)):
        nodes = all_nodes[bounds[t]:bounds[t + 1]]
        slots = all_slots[bounds[t]:bounds[t + 1]]
        want_nodes, want_slots = _distinct_positions_batch(
            rngs_serial[t], lengths[t], counts[t]
        )
        assert nodes.dtype == want_nodes.dtype
        assert slots.dtype == want_slots.dtype
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(slots, want_slots)
        # The next draw is where stream divergence would first show up.
        assert rngs_multi[t].integers(2**62) == rngs_serial[t].integers(2**62)


class RandomLog:
    """A generator proxy that logs the seeds of trials that drew trim
    tie-breaks."""

    def __init__(self, seed: int, log: set) -> None:
        self._rng = np.random.default_rng(seed)
        self._log = log
        self._seed = seed

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size):
        self._log.add(self._seed)
        return self._rng.random(size)


class RepeatingRandom(RandomLog):
    """``random()`` repeats its first value in second place, so the first
    node segment of every trimming trial holds a tie."""

    def random(self, size):
        u = super().random(size)
        u[1] = u[0]
        return u


class TestDistinctPositionsMulti:
    @settings(max_examples=60, deadline=None)
    @given(batch=batches())
    def test_matches_independent_serial_calls(self, batch):
        seeds, lengths, counts = batch
        rngs_multi = [np.random.default_rng(s) for s in seeds]
        rngs_serial = [np.random.default_rng(s) for s in seeds]
        assert_matches_serial(rngs_multi, rngs_serial, lengths, counts)

    def test_mixes_trimming_and_untrimmed_trials(self):
        # One light node wanting one of two slots overdraws five times,
        # so a trial trims unless all five draws hit the same slot (1 in
        # 16): across 40 seeds both kinds of trial occur in one batch.
        seeds = range(40)
        trimmed_multi: set = set()
        trimmed_serial: set = set()
        rngs_multi = [RandomLog(s, trimmed_multi) for s in seeds]
        rngs_serial = [RandomLog(s, trimmed_serial) for s in seeds]
        lengths = [2] * len(seeds)
        counts = np.ones((len(seeds), 1), dtype=np.int64)
        assert_matches_serial(rngs_multi, rngs_serial, lengths, counts)
        assert trimmed_multi == trimmed_serial
        assert 0 < len(trimmed_multi) < len(seeds)

    def test_tied_tie_breaks_take_the_stable_sort(self, monkeypatch):
        kinds = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        log: set = set()
        rngs_multi = [RepeatingRandom(s, log) for s in range(3)]
        rngs_serial = [RepeatingRandom(s, log) for s in range(3)]
        lengths = [64, 64, 40]
        counts = np.array([[20, 3], [9, 0], [12, 12]], dtype=np.int64)
        assert_matches_serial(rngs_multi, rngs_serial, lengths, counts)
        assert "stable" in kinds


def _two_rows():
    """Send probabilities, send kinds and listen probabilities for a
    batch of two trials with three nodes each."""
    probs = [np.full(3, 0.5), np.full(3, 0.5)]
    kinds = [np.zeros(3, dtype=np.int8), np.zeros(3, dtype=np.int8)]
    return probs, kinds, probs


class TestBatchValidation:
    @pytest.mark.parametrize(
        "n_rngs,lengths",
        [
            (2, [10, 10, 10]),  # more lengths than rows
            (2, [10]),  # fewer lengths than rows
            (1, [10, 10]),  # fewer rngs than rows
            (2, [10, -1]),  # negative phase length
        ],
        ids=["extra-length", "missing-length", "missing-rng", "negative-length"],
    )
    def test_bad_inputs_raise_simulation_error(self, n_rngs, lengths):
        rngs = [np.random.default_rng(t) for t in range(n_rngs)]
        with pytest.raises(SimulationError):
            sample_action_events_batch(rngs, lengths, *_two_rows())
