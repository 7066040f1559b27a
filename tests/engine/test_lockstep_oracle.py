"""Differential oracle for the lockstep subset kernel.

``reference_lockstep_light_subsets`` is ``_lockstep_light_subsets`` as
it stood before its trim became one sort of packed words and its result
one stacked array on the step's key axis, kept verbatim with the helper
it called, so the oracle shares no code with the kernel under test.
Per trial, the kernel must return the same nodes and slots, in the
same order and dtype, and leave every generator in the same state; its
keys must be ``key_base[t] + node * L_t + slot``.  Named cases reach
each branch of the trim: the packed sort, a (segment, prefix) tie, too
few prefix bits, more than 1,023 segments, a partial trim and no trim,
plus heavy nodes spliced after light ones in
``_distinct_positions_multi``.  The resolver must give the same outcome
for the sampler's stacks as for the same events as per-trial lists, and
the dense oracle's outcome per trial.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.channel.events import EventStack, JamPlan, TxKind
from repro.channel.model import resolve_phase_batch_core
from repro.channel.model_dense import resolve_phase_dense
from repro.engine import sampling
from repro.engine.sampling import (
    _distinct_positions_batch,
    _distinct_positions_multi,
    _lockstep_light_subsets,
    sample_action_events_batch,
)
from tests.engine.test_sampling_multi import RandomLog, RepeatingRandom

pytestmark = pytest.mark.engine


def _reference_sorted_distinct(keys, kind=None):
    if not len(keys):
        return keys
    keys.sort(kind=kind)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def reference_lockstep_light_subsets(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    counts2d: np.ndarray,
    lock: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Global-axis uniform subsets for the light regime, many trials at
    once.

    ``counts2d[lock[i]]`` are trial ``lock[i]``'s per-node wants, every
    entry in the light regime (``<= lengths[lock[i]] // 2``) and at
    least one positive.  Per trial the rng call sequence — one
    ``integers`` draw per rejection round while the trial still needs
    positions, one ``random`` draw if it trims — and the emitted
    (node, slot) order match :func:`_distinct_positions_batch`'s light
    path exactly, which is what pins per-trial streams under batching.
    All deterministic processing — dedup, counting, trimming — runs
    once on a global key axis: trial ``i`` owns keys
    ``[K_i, K_i + n * L_i)``, so one sorted key array holds every
    trial's rejection state, and per-trial segments of it equal the
    trials' serial results.
    """
    nt = len(lock)
    L = lengths[lock]
    C = counts2d[lock]
    n = C.shape[1]
    # Row-major nonzero is trial-major with nodes ascending — the
    # construction order the serial per-trial scans produce.  Each
    # (trial, node) pair is one *segment* of the sorted key axis.
    tr, nd = np.nonzero(C)
    # Global key layout: trial i's (node, slot) pairs map injectively to
    # [K[i], K[i] + n * L_i); bases[j] is segment j's key origin.
    dom = n * L
    K = np.zeros(nt, dtype=np.int64)
    np.cumsum(dom[:-1], out=K[1:])
    bases = K[tr] + nd * L[tr]
    want = C[tr, nd]
    # Every key lands in some segment's range, so per-segment counts are
    # differences of boundary positions — searching the few segment
    # edges into the big sorted key array is O(n log K), not O(K log n).
    edges = np.concatenate([bases, K[-1:] + dom[-1:]])
    gens = [rngs[t] for t in lock.tolist()]
    L_list = L.tolist()

    # Serial semantics: an active trial overdraws for *all* its light
    # nodes each round (satisfied nodes included), so the per-trial
    # draw sizes — and hence the rng streams — match.  Every trial is
    # active in round 1.
    act = slice(None)
    od = want + want // 16 + 4
    keys = None
    while True:
        sizes = np.bincount(tr[act], weights=od, minlength=nt).astype(np.int64)
        slots = np.concatenate([
            g.integers(0, length, size)
            for g, length, size in zip(gens, L_list, sizes.tolist()) if size
        ])
        new_keys = _reference_sorted_distinct(np.repeat(bases[act], od) + slots)
        keys = new_keys if keys is None else _reference_sorted_distinct(
            np.concatenate([keys, new_keys]), kind="stable"
        )
        pos = keys.searchsorted(edges)
        have = pos[1:] - pos[:-1]
        short = have < want
        if not short.any():
            break
        need = np.where(short, want - have, 0)
        trial_short = np.zeros(nt, dtype=bool)
        trial_short[tr[short]] = True
        act = trial_short[tr]
        need = need[act]
        od = need + need // 16 + 4

    # Trim surpluses only in trials that would trim serially: untrimmed
    # trials keep sorted-key order, trimmed ones the serial lexsort
    # order, both of which downstream content resolution depends on for
    # bit-identity.  The loop exits only once every segment holds at
    # least ``want`` keys, so after trimming each holds exactly ``want``.
    trim = np.zeros(nt, dtype=bool)
    trim[tr[have > want]] = True
    if trim.any():
        # Usually every trial trims and the selections are whole arrays.
        every = bool(trim.all())
        seg_trim = slice(None) if every else trim[tr]
        key_trim = slice(None) if every else np.repeat(seg_trim, have)
        sub = keys[key_trim]
        sizes = np.bincount(tr, weights=have, minlength=nt).astype(np.int64)
        rand = np.concatenate([
            g.random(size)
            for g, size, t in zip(gens, sizes.tolist(), trim.tolist()) if t
        ])
        h = have[seg_trim]
        w = want[seg_trim]
        seg = np.repeat(np.arange(len(h), dtype=np.int64), h)
        if len(h) <= 1023:
            # Composite sort key: segment in the high bits, the serial
            # random tie-break's full 53-bit mantissa in the low bits
            # (``Generator.random`` emits multiples of 2**-53, so the
            # scaling is exact).  Absent equal composite keys the sorted
            # permutation is unique, so the default unstable sort gives
            # ``lexsort((rand, seg))`` bit-for-bit; any tie falls back
            # to the stable sort, which breaks it by key position as
            # lexsort does.  More segments would overflow the high bits.
            comp = (seg << 53) + (rand * 9007199254740992.0).astype(np.int64)
            order = np.argsort(comp)
            ranked = comp[order]
            if (ranked[1:] == ranked[:-1]).any():
                order = np.argsort(comp, kind="stable")
        else:
            order = np.lexsort((rand, seg))
        # Keep the first ``want`` rand-ranked keys of each segment:
        # positions below the segment's start-plus-want threshold.
        starts = np.cumsum(h) - h
        kept = sub[order[np.arange(len(sub)) < np.repeat(starts + w, h)]]
        if every:
            keys = kept
        else:
            out = np.empty(int(want.sum()), dtype=np.int64)
            kept_mask = np.repeat(seg_trim, want)
            out[kept_mask] = kept
            out[~kept_mask] = keys[~key_trim]
            keys = out
    # Decode once over the whole node-major key array: segment j's keys
    # are node nd[j]'s slots offset by bases[j].  Per-trial results are
    # zero-copy views.
    nodes = np.repeat(nd, want)
    slots = keys - np.repeat(bases, want)
    bounds = np.zeros(nt + 1, dtype=np.int64)
    np.cumsum(C.sum(axis=1), out=bounds[1:])
    return [
        (nodes[lo:hi], slots[lo:hi])
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]



def _key_base(lengths, n: int) -> np.ndarray:
    key_base = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(n * np.asarray(lengths, dtype=np.int64), out=key_base[1:])
    return key_base


def _state(rng) -> dict:
    return getattr(rng, "_rng", rng).bit_generator.state


def assert_matches_reference(lengths, counts, make_rng=np.random.default_rng,
                             seeds=None):
    """Run the kernel and the reference on equal generators and compare
    them trial by trial."""
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    B, n = counts.shape
    seeds = range(B) if seeds is None else seeds
    lock = np.flatnonzero(counts.any(axis=1))
    key_base = _key_base(lengths, n)
    got_rngs = [make_rng(s) for s in seeds]
    want_rngs = [make_rng(s) for s in seeds]
    keys, nodes, slots, bounds = _lockstep_light_subsets(
        got_rngs, lengths, counts, lock, key_base
    )
    want = reference_lockstep_light_subsets(want_rngs, lengths, counts, lock)
    for arr in (keys, nodes, slots, bounds):
        assert arr.dtype == np.int64
    assert len(bounds) == B + 1 and bounds[0] == 0 and bounds[-1] == len(keys)
    sizes = np.diff(bounds)
    assert not sizes[np.setdiff1d(np.arange(B), lock)].any()
    for t, (want_nodes, want_slots) in zip(lock.tolist(), want):
        lo, hi = bounds[t], bounds[t + 1]
        assert want_nodes.dtype == want_slots.dtype == np.int64
        np.testing.assert_array_equal(nodes[lo:hi], want_nodes)
        np.testing.assert_array_equal(slots[lo:hi], want_slots)
    owner = np.repeat(np.arange(B), sizes)
    np.testing.assert_array_equal(
        keys, key_base[owner] + nodes * lengths[owner] + slots
    )
    for got, ref in zip(got_rngs, want_rngs):
        assert _state(got) == _state(ref)


LIGHT = ("zero", "tiny", "half", "light")


def _light_count(fill: np.random.Generator, length: int, regime: str) -> int:
    half = length // 2
    if regime == "zero" or not half:
        return 0
    if regime == "tiny":
        return int(min(half, fill.integers(1, 4)))
    if regime == "half":
        return int(max(0, half - fill.integers(0, 3)))
    return int(fill.integers(0, half + 1))


@st.composite
def light_batches(draw):
    """``(seeds, lengths, counts2d)``: 1 to 9 trials whose wants are all
    in the light regime, one regime per trial or per node."""
    b = draw(st.integers(1, 9))
    n = draw(st.integers(1, 70))
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 16), st.integers(17, 600)),
        min_size=b, max_size=b,
    ))
    regimes = draw(st.lists(
        st.sampled_from(LIGHT + ("mixed",)), min_size=b, max_size=b
    ))
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((b, n), dtype=np.int64)
    for t, (length, regime) in enumerate(zip(lengths, regimes)):
        for u in range(n):
            r = fill.choice(LIGHT) if regime == "mixed" else regime
            counts[t, u] = _light_count(fill, length, r)
    seeds = draw(st.lists(
        st.integers(0, 2**32 - 1), min_size=b, max_size=b
    ))
    return seeds, lengths, counts


def _tied(seed: int) -> RepeatingRandom:
    return RepeatingRandom(seed, set())


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(batch=light_batches(), tie=st.booleans())
    def test_matches_reference(self, batch, tie):
        seeds, lengths, counts = batch
        assume(counts.any())
        make_rng = _tied if tie else np.random.default_rng
        assert_matches_reference(lengths, counts, make_rng, seeds)


@pytest.fixture
def trims(monkeypatch):
    """Log every trim of the kernel as ``(how, segments)``: ``how`` is
    ``"packed"`` when the packed sort answered, ``"prefix-tie"`` when
    two keys of a segment shared a prefix, and ``"few-bits"`` when the
    layout left too few prefix bits."""
    log = []
    packed = sampling._packed_trim

    def spy(sub, rand, h, seg_bases, max_length, keep):
        out = packed(sub, rand, h, seg_bases, max_length, keep)
        bits = 63 - (len(h) - 1).bit_length() - (max_length - 1).bit_length()
        how = (
            "packed" if out is not None
            else "few-bits" if bits < sampling._MIN_PREFIX_BITS
            else "prefix-tie"
        )
        log.append((how, len(h)))
        return out

    monkeypatch.setattr(sampling, "_packed_trim", spy)
    return log


class TestEveryBranch:
    # Each trial overdraws want + want // 16 + 4 slots, which land on
    # distinct slots of a long phase, so both trials trim.
    LENGTHS = [4096, 300]
    COUNTS = [[5, 0, 9], [3, 3, 3]]

    def test_packed_sort(self, trims):
        assert_matches_reference(self.LENGTHS, self.COUNTS)
        assert trims == [("packed", 5)]

    def test_prefix_tie_takes_the_exact_order(self, trims):
        # RepeatingRandom ties the first two tie-breaks of each
        # trimming trial: a true tie, hence a shared prefix.
        assert_matches_reference(self.LENGTHS, self.COUNTS, _tied)
        assert trims == [("prefix-tie", 5)]

    def test_too_few_prefix_bits(self, trims):
        # Slots of 2**40 take 40 bits and two segments one, which
        # leaves 22 prefix bits.
        assert_matches_reference([2**40, 2**40], [[5], [7]])
        assert trims == [("few-bits", 2)]

    def test_more_than_1023_segments(self, trims):
        counts = np.random.default_rng(0).integers(1, 4, (2, 600))
        assert_matches_reference([64, 64], counts)
        # With a tie, the exact order there comes from lexsort.
        assert_matches_reference([64, 64], counts, _tied)
        assert trims == [("packed", 1200), ("prefix-tie", 1200)]

    def test_partial_trim(self, trims):
        # One light node wanting one of two slots overdraws five times,
        # so a trial trims unless all five draws hit the same slot.
        trimmed: set = set()
        seeds = range(40)
        assert_matches_reference(
            [2] * len(seeds), np.ones((len(seeds), 1), dtype=np.int64),
            lambda s: RandomLog(s, trimmed), seeds,
        )
        assert 0 < len(trimmed) < len(seeds)
        assert trims == [("packed", len(trimmed))]

    def test_no_trim(self, trims):
        seeds = [
            s for s in range(100)
            if len(set(np.random.default_rng(s).integers(0, 2, 5))) == 1
        ][:2]
        trimmed: set = set()
        assert_matches_reference(
            [2, 2], np.ones((2, 1), dtype=np.int64),
            lambda s: RandomLog(s, trimmed), seeds,
        )
        assert trims == [] and not trimmed

    def test_heavy_nodes_after_light_ones(self, monkeypatch):
        inverted = []
        invert = sampling._invert_complement

        def spy(heavy_idx, *args):
            inverted.append(heavy_idx.tolist())
            return invert(heavy_idx, *args)

        monkeypatch.setattr(sampling, "_invert_complement", spy)
        lengths = np.array([50, 40, 30], dtype=np.int64)
        # Heavy: over half the phase (nodes 0 and 3 of trial 0, node 2
        # of trial 1); trial 2 draws nothing.
        counts = np.array(
            [[40, 2, 0, 49], [3, 0, 39, 0], [0, 0, 0, 0]], dtype=np.int64
        )
        key_base = _key_base(lengths, 4)
        got = [np.random.default_rng(s) for s in range(3)]
        want = [np.random.default_rng(s) for s in range(3)]
        keys, nodes, slots, bounds = _distinct_positions_multi(
            got, lengths, counts, key_base
        )
        assert inverted == [[0, 3], [2]]
        for t in range(3):
            want_nodes, want_slots = _distinct_positions_batch(
                want[t], int(lengths[t]), counts[t]
            )
            np.testing.assert_array_equal(
                nodes[bounds[t]:bounds[t + 1]], want_nodes
            )
            np.testing.assert_array_equal(
                slots[bounds[t]:bounds[t + 1]], want_slots
            )
            assert _state(got[t]) == _state(want[t])
        # Each trial's light node leads its rows.
        assert nodes[bounds[0]:bounds[0] + 2].tolist() == [1, 1]
        assert nodes[bounds[1]:bounds[1] + 3].tolist() == [0, 0, 0]
        # Spliced rows were not drawn on the key axis; the stack builds
        # their keys on it.
        assert keys is None
        owner = np.repeat(np.arange(3), np.diff(bounds))
        np.testing.assert_array_equal(
            EventStack(nodes, slots, None, bounds).half_duplex_keys(
                lengths, 4
            ),
            key_base[owner] + nodes * lengths[owner] + slots,
        )


PROBS = (0.0, 0.02, 0.2, 0.6, 1.0)


@st.composite
def phases(draw):
    """One lockstep step: B trials' rngs and action probabilities, with
    jam plans (global, targeted and spoofed) and group assignments that
    are absent, shared or per trial."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, 200), min_size=b, max_size=b))
    fill = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    send_probs = fill.choice(PROBS, (b, n))
    listen_probs = fill.choice(PROBS, (b, n))
    kinds = fill.integers(int(TxKind.NOISE), int(TxKind.ACK) + 1, (b, n))
    plans = []
    for length in lengths:
        n_spoofs = int(fill.integers(0, 3))
        plans.append(JamPlan(
            length,
            global_slots=fill.choice(length, fill.integers(0, length // 3 + 1)),
            targeted={1: fill.choice(length, fill.integers(0, length // 2 + 1))},
            spoof_slots=fill.integers(0, length, n_spoofs),
            spoof_kinds=fill.integers(1, 5, n_spoofs).astype(np.int8),
        ))
    mode = draw(st.sampled_from(("none", "shared", "per-trial")))
    if mode == "none":
        groups = [None] * b
    elif mode == "shared":
        groups = [fill.integers(0, 2, n)] * b
    else:
        groups = [fill.integers(0, 3, n) for _ in range(b)]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=b, max_size=b))
    return (seeds, lengths, send_probs, kinds.astype(np.int8), listen_probs,
            plans, groups)


class TestStackedResolve:
    @settings(max_examples=150, deadline=None)
    @given(case=phases())
    def test_stacks_lists_and_dense_agree(self, case):
        seeds, lengths, send_probs, kinds, listen_probs, plans, groups = case
        n = send_probs.shape[1]
        rngs = [np.random.default_rng(s) for s in seeds]
        events = sample_action_events_batch(
            rngs, lengths, send_probs, kinds, listen_probs
        )
        # Sends and listens share one key axis.
        key_base = _key_base(lengths, n)
        for stack in (events.sends, events.listens):
            assert isinstance(stack, EventStack)
            owner = np.repeat(np.arange(len(lengths)), np.diff(stack.bounds))
            np.testing.assert_array_equal(
                stack.half_duplex_keys(lengths, n),
                key_base[owner] + stack.nodes * np.asarray(lengths)[owner]
                + stack.slots,
            )
        stacked = resolve_phase_batch_core(
            lengths, n, events.sends, events.listens, plans, groups,
            validate=False,
        )
        lists = resolve_phase_batch_core(
            lengths, n, list(events.sends), list(events.listens), plans,
            groups,
        )
        for f in dataclasses.fields(stacked):
            np.testing.assert_array_equal(
                getattr(stacked, f.name), getattr(lists, f.name)
            )
        for t, (sends, listens) in enumerate(events):
            want = resolve_phase_dense(
                lengths[t], n, sends, listens, plans[t], groups[t]
            )
            got = stacked.outcome_for(t)
            for f in dataclasses.fields(want):
                np.testing.assert_array_equal(
                    getattr(got, f.name), getattr(want, f.name)
                )
