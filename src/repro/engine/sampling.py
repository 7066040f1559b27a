"""Exact, vectorized sampling of per-slot Bernoulli action processes.

Every protocol in the paper has each node act independently per slot
with some probability ``p`` ("send with probability S_u / 2**i", "listen
with probability p_i", ...).  Materialising an ``(n_nodes, L)`` Bernoulli
matrix is wasteful when ``p`` is small (and ``L`` reaches ``2**20`` in
the sweeps), so we sample the *positions* of the successes directly.

The geometric-gap ("skip") method is exact: in a Bernoulli(p) process
the gaps between consecutive successes are i.i.d. Geometric(p), so we
draw gaps via inverse-CDF, prefix-sum them, and truncate at ``L``.  Cost
is ``O(pL)`` instead of ``O(L)``.  For large ``p`` a dense draw is
cheaper and we switch automatically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.events import (
    _EMPTY_SLOTS,
    BatchEvents,
    EventStack,
    ListenEvents,
    SendEvents,
)
from repro.errors import SimulationError

__all__ = [
    "bernoulli_positions",
    "sample_action_events",
    "sample_action_events_batch",
    "DENSE_P_THRESHOLD",
]

#: Above this probability a dense length-``L`` draw beats skip sampling.
DENSE_P_THRESHOLD: float = 0.2


def _geometric_gaps(
    rng: np.random.Generator, p: float, count: int, cap: int
) -> np.ndarray:
    """Draw ``count`` i.i.d. Geometric(p) gaps (support ``{1, 2, ...}``).

    Uses the inverse CDF ``ceil(log(1-U) / log(1-p))``, exact for
    float64 ``U`` up to representability.  Gaps are clipped to ``cap``
    (any value beyond the phase length is equivalent) so that extreme
    draws at tiny ``p`` cannot overflow the integer cast.
    """
    u = rng.random(count)
    # log1p(-u) is log(1-u) computed stably; log1p(-p) likewise.  The
    # division can overflow to inf for astronomically small p; those
    # draws are beyond any phase and the clip handles them.
    with np.errstate(over="ignore"):
        raw = np.ceil(np.log1p(-u) / math.log1p(-p))
    gaps = np.clip(raw, 1.0, float(cap)).astype(np.int64)
    return gaps


def bernoulli_positions(
    rng: np.random.Generator, length: int, p: float
) -> np.ndarray:
    """Positions of successes of a length-``length`` Bernoulli(p) process.

    Returns a sorted int64 array of distinct slot indices in
    ``[0, length)``.  The distribution is *exactly* that of flipping an
    independent p-coin per slot: the count is Binomial(length, p) and,
    conditioned on the count, the positions are a uniform random subset.

    Parameters
    ----------
    rng:
        Source of randomness.
    length:
        Number of slots.
    p:
        Per-slot success probability; values outside ``[0, 1]`` raise.
    """
    if length < 0:
        raise SimulationError(f"length must be non-negative, got {length}")
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"probability must be in [0, 1], got {p!r}")
    if length == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(length, dtype=np.int64)

    if p >= DENSE_P_THRESHOLD:
        return np.flatnonzero(rng.random(length) < p).astype(np.int64)

    # Skip sampling: draw a batch of gaps sized for the expected count
    # plus slack; extend in the (rare) case the prefix sum falls short.
    mean = length * p
    batch = int(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16.0)
    cap = length + 1
    positions = np.cumsum(_geometric_gaps(rng, p, batch, cap)) - 1
    while positions[-1] < length - 1:
        extra = np.cumsum(_geometric_gaps(rng, p, batch, cap)) + positions[-1]
        positions = np.concatenate([positions, extra])
    return positions[positions < length]


def _sorted_distinct(keys: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Sorted distinct values of ``keys``: an in-place sort plus an
    adjacency mask (``np.unique`` without its extra passes).

    The lockstep kernel dedups each rejection round's new keys alone and
    then merges them into its sorted accumulator with
    ``kind="stable"``: on two concatenated sorted runs that sort is a
    linear merge, and distinct values of the two runs meet as adjacent
    duplicates.
    """
    if not len(keys):
        return keys
    keys.sort(kind=kind)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _invert_complement(
    heavy_idx: np.ndarray,
    length: int,
    comp_nodes: np.ndarray,
    comp_slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert sampled complements: each heavy node's slots are
    ``[0, length)`` minus its complement slots, emitted node-major with
    slots ascending (the order a row-major mask scan produces).

    ``p == 1`` actions (every-slot listeners dominate the broadcast
    protocols) have empty complements, so that case skips the dense
    mask entirely and writes the full rows directly.
    """
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


def _distinct_positions_batch(
    rng: np.random.Generator, length: int, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each node ``u``, a uniform random ``counts[u]``-subset of
    ``[0, length)`` — all nodes at once.

    Exactness: conditioned on its Binomial count, a Bernoulli process's
    success positions are a uniform subset, and sequential rejection of
    duplicates samples uniform subsets exactly.  Nodes wanting more
    than half the slots are handled by sampling the *complement* (a
    uniform (L-k)-subset's complement is a uniform k-subset), which
    keeps the rejection loop away from the coupon-collector regime.

    Returns ``(node_ids, slots)`` arrays (unordered within a node).

    A call is one small phase, usually with one drawing node, so its
    cost is the NumPy call count: it counts per node by ``searchsorted``
    and trims with one stable sort.
    """
    counts = np.asarray(counts, dtype=np.int64)
    some_heavy = counts.max(initial=0) > length // 2
    if some_heavy:
        heavy = counts > length // 2
        light_idx = (~heavy & (counts > 0)).nonzero()[0]
    else:
        light_idx = counts.nonzero()[0]

    # Light nodes: rejection sampling on (node, slot) keys.  Each round
    # overdraws slightly so one dedup pass usually collects enough
    # distinct slots per node; surpluses are trimmed afterwards by a
    # per-node uniformly random subset (value-symmetric, hence exact).
    k = len(light_idx)
    if k:
        want = counts[light_idx]
        n_want = int(want.sum())
        base = light_idx * length  # node u's keys: [u * length, ... + length)
        top = base + length
        keys = None
        overdraw = want + want // 16 + 4
        while True:
            draw = rng.integers(0, length, int(overdraw.sum()))
            draw += base.repeat(overdraw)
            keys = _sorted_distinct(
                draw if keys is None else np.concatenate([keys, draw])
            )
            start = keys.searchsorted(base)
            have = keys.searchsorted(top) - start
            short = have < want
            if not short.any():
                break
            need = np.where(short, want - have, 0)
            overdraw = need + need // 16 + 4

        if len(keys) > n_want:  # some node has a surplus
            # keys is sorted, hence node-major: trim each node's segment
            # to a random `want`-subset, ranked in ``lexsort((rand,
            # node))`` order.  Below node 1024 one stable sort of node
            # (high bits) and the tie-break's 53-bit mantissa (low bits;
            # ``Generator.random`` emits multiples of 2**-53, so the
            # scaling is exact) gives that order, ties included.
            rand = rng.random(len(keys))
            if k > 1 and light_idx[-1] >= 1024:
                order = np.lexsort((rand, keys // length))
            else:
                rank = (rand * 9007199254740992.0).astype(np.int64)
                if k > 1:
                    rank += keys // length << 53
                order = rank.argsort(kind="stable")
            # Keep each segment's first ``want`` ranked positions.
            keys = keys[
                order[:n_want] if k == 1
                else order[np.arange(len(keys)) < (start + want).repeat(have)]
            ]
        nodes, slots = np.divmod(keys, length)
        if not some_heavy:
            return nodes, slots
    elif not some_heavy:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    # Heavy nodes: sample the complement, then invert with a mask.
    comp_nodes, comp_slots = _distinct_positions_batch(
        rng, length, np.where(heavy, length - counts, 0)
    )
    heavy_nodes, heavy_slots = _invert_complement(
        heavy.nonzero()[0], length, comp_nodes, comp_slots
    )
    if not k:
        return heavy_nodes, heavy_slots
    return (
        np.concatenate([nodes, heavy_nodes]),
        np.concatenate([slots, heavy_slots]),
    )


def sample_action_events(
    rng: np.random.Generator,
    length: int,
    send_probs: np.ndarray,
    send_kinds: np.ndarray,
    listen_probs: np.ndarray,
) -> tuple[SendEvents, ListenEvents]:
    """Sample every node's send and listen slots for one phase.

    The per-node, per-slot Bernoulli processes are sampled exactly but
    fully batched: one vectorised Binomial draw for the counts, then a
    batched uniform-subset draw for the positions (see
    :func:`_distinct_positions_batch`).  No Python-level loop over
    nodes — this is the engine's hottest path.

    Parameters
    ----------
    rng:
        Source of randomness (one stream for the whole phase; node
        streams need not be separated because the draws are independent
        by construction).
    length:
        Phase length in slots.
    send_probs / listen_probs:
        ``(n_nodes,)`` per-slot action probabilities.
    send_kinds:
        ``(n_nodes,)`` :class:`~repro.channel.events.TxKind` value each
        node transmits when it sends.

    Returns
    -------
    (SendEvents, ListenEvents)
        Sparse event sets, node-grouped.
    """
    send_probs = np.asarray(send_probs, dtype=np.float64)
    listen_probs = np.asarray(listen_probs, dtype=np.float64)
    send_kinds = np.asarray(send_kinds, dtype=np.int8)
    n = len(send_probs)
    if listen_probs.shape != (n,) or send_kinds.shape != (n,):
        raise SimulationError("send_probs, send_kinds, listen_probs length mismatch")

    # ``Generator.binomial`` refuses probabilities outside [0, 1] (and
    # NaN) itself, so the range check costs nothing on valid input.
    try:
        send_counts = rng.binomial(length, send_probs)
        send_nodes, send_slots = _distinct_positions_batch(
            rng, length, send_counts
        )
        listen_counts = rng.binomial(length, listen_probs)
    except ValueError:
        if not (
            ((send_probs >= 0) & (send_probs <= 1)).all()
            and ((listen_probs >= 0) & (listen_probs <= 1)).all()
        ):
            raise SimulationError(
                "action probabilities must lie in [0, 1]"
            ) from None
        raise
    listen_nodes, listen_slots = _distinct_positions_batch(
        rng, length, listen_counts
    )
    # The subset sampler emits canonical arrays (1-D int64, in range).
    sends = (
        SendEvents._from_arrays(send_nodes, send_slots, send_kinds[send_nodes])
        if len(send_nodes)
        else SendEvents.empty()
    )
    listens = (
        ListenEvents._from_arrays(listen_nodes, listen_slots)
        if len(listen_nodes)
        else ListenEvents.empty()
    )
    return sends, listens


#: Fewest tie-break prefix bits the packed trim sort runs with.  With
#: fewer, two keys of a segment would often share a prefix, and the
#: exact fallback would run after a wasted sort.
_MIN_PREFIX_BITS = 24


def _ranked_order(rand: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``lexsort((rand, seg))`` for keys in ``len(h)`` consecutive
    segments of sizes ``h``: the exact trim order, with ties broken by
    key position."""
    seg = np.repeat(np.arange(len(h), dtype=np.int64), h)
    if len(h) > 1023:  # more segments would overflow the high bits
        return np.lexsort((rand, seg))
    # Composite sort key: segment in the high bits, the serial random
    # tie-break's full 53-bit mantissa in the low bits
    # (``Generator.random`` emits multiples of 2**-53, so the scaling is
    # exact).  Absent equal composite keys the sorted permutation is
    # unique, so the default unstable sort gives ``lexsort((rand, seg))``
    # bit-for-bit; any tie falls back to the stable sort, which breaks it
    # by key position as lexsort does.
    comp = (seg << 53) + (rand * 9007199254740992.0).astype(np.int64)
    order = np.argsort(comp)
    ranked = comp[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(comp, kind="stable")
    return order


def _packed_trim(
    sub: np.ndarray,
    rand: np.ndarray,
    h: np.ndarray,
    seg_bases: np.ndarray,
    max_length: int,
    keep: np.ndarray,
) -> np.ndarray | None:
    """The trim by one sort of values, or ``None`` where that is not
    exact.

    ``sub`` holds ``len(h)`` consecutive key segments of sizes ``h``
    (segment ``j``'s keys are ``seg_bases[j]`` plus a slot below
    ``max_length``), ``rand`` their tie-breaks.  Each key becomes one
    int64 word, ``segment | top bits of its tie-break's 53-bit mantissa
    | slot``, and the words are sorted.  The prefix rises with the
    tie-break, so while no two keys of a segment share a prefix the
    sorted words are in the exact ``(segment, rand)`` order, and their
    low bits are the slots.  A shared prefix, which every true tie is,
    returns ``None``, as does a layout that leaves fewer than
    ``_MIN_PREFIX_BITS`` prefix bits.

    Returns the slots at the ranked positions ``keep`` selects.
    """
    slot_bits = (max_length - 1).bit_length()
    pre_bits = min(53, 63 - (len(h) - 1).bit_length() - slot_bits)
    if pre_bits < _MIN_PREFIX_BITS:
        return None
    words = (rand * 9007199254740992.0).astype(np.int64)
    words >>= 53 - pre_bits
    words <<= slot_bits
    # Adding the key and subtracting its segment's base leaves the slot;
    # the segment index rides on the same per-segment repeat.
    words += sub
    words += np.repeat(
        (np.arange(len(h), dtype=np.int64) << (pre_bits + slot_bits))
        - seg_bases,
        h,
    )
    words.sort()
    prefixes = words >> slot_bits
    if (prefixes[1:] == prefixes[:-1]).any():
        return None
    return words[keep] & ((1 << slot_bits) - 1)


def _lockstep_light_subsets(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    counts2d: np.ndarray,
    lock: np.ndarray,
    key_base: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Global-axis uniform subsets for the light regime, many trials at
    once.

    ``counts2d`` holds every trial's per-node wants, each entry in the
    light regime (``<= lengths[t] // 2``); ``lock`` lists the trials
    with a positive want (it may be empty).  Per trial the rng call sequence — one
    ``integers`` draw per rejection round while the trial still needs
    positions, one ``random`` draw if it trims — and the emitted
    (node, slot) order match :func:`_distinct_positions_batch`'s light
    path exactly, which is what pins per-trial streams under batching.
    All deterministic processing — dedup, counting, trimming — runs
    once on the step's key axis: node ``u``'s slot ``s`` in trial ``t``
    is key ``key_base[t] + u * L_t + s``, with ``key_base`` the
    exclusive prefix sum of ``n * L`` over all the step's trials (total
    last).  So one sorted key array holds every trial's rejection
    state, and per-trial segments of it equal the trials' serial
    results.

    Returns ``(keys, nodes, slots, bounds)``: every trial's subsets in
    one array each, trial ``t``'s in rows ``bounds[t]:bounds[t + 1]``
    (empty for trials outside ``lock``).
    """
    nt = len(lock)
    if not nt:
        return (
            _EMPTY_SLOTS, _EMPTY_SLOTS, _EMPTY_SLOTS,
            np.zeros(len(counts2d) + 1, dtype=np.int64),
        )
    L = lengths[lock]
    C = counts2d[lock]
    # Row-major nonzero is trial-major with nodes ascending — the
    # construction order the serial per-trial scans produce.  Each
    # (trial, node) pair is one *segment* of the sorted key axis, and
    # bases[j] is segment j's key origin.
    tr, nd = np.nonzero(C)
    bases = key_base[lock[tr]] + nd * L[tr]
    want = C[tr, nd]
    # Every key lands in some segment's range, so per-segment counts are
    # differences of boundary positions — searching the few segment
    # edges into the big sorted key array is O(n log K), not O(K log n).
    edges = np.concatenate([bases, key_base[-1:]])
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
        new_keys = _sorted_distinct(np.repeat(bases[act], od) + slots)
        keys = new_keys if keys is None else _sorted_distinct(
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
    seg_base = np.repeat(bases, want)
    slots = None
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
        # Keep the first ``w`` rand-ranked keys of each segment:
        # positions below the segment's start-plus-w threshold.
        keep = np.arange(len(sub)) < np.repeat(np.cumsum(h) - h + w, h)
        kept = _packed_trim(sub, rand, h, bases[seg_trim], int(L.max()), keep)
        if kept is None:
            kept = sub[_ranked_order(rand, h)[keep]]
        elif every:
            slots = kept
            kept = kept + seg_base
        else:
            kept += np.repeat(bases[seg_trim], w)
        if every:
            keys = kept
        else:
            out = np.empty(len(seg_base), dtype=np.int64)
            kept_mask = np.repeat(seg_trim, want)
            out[kept_mask] = kept
            out[~kept_mask] = keys[~key_trim]
            keys = out
    # Segment j's keys are node nd[j]'s slots offset by bases[j].
    if slots is None:
        slots = keys - seg_base
    bounds = np.zeros(len(counts2d) + 1, dtype=np.int64)
    np.cumsum(counts2d.sum(axis=1), out=bounds[1:])
    return keys, np.repeat(nd, want), slots, bounds


def _distinct_positions_multi(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    counts2d: np.ndarray,
    key_base: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial uniform subsets, batched across B trials.

    Trial ``t`` draws ``counts2d[t, u]`` distinct slots of
    ``[0, lengths[t])`` for each node ``u`` — with *exactly* the rng call
    sequence of B independent :func:`_distinct_positions_batch` calls.
    Entropy stays per-trial (each trial's generator sees the same draws
    it would serially), while the deterministic bookkeeping is shared
    across trials by :func:`_lockstep_light_subsets` on whole ``(B, n)``
    arrays — the regime split, lock selection, and want layout are all
    2-D array ops, so per-phase Python cost does not scale with B.

    Heavy nodes (count > length/2, the complement-sampling regime) ride
    the same machinery: serially each trial samples its light nodes
    first and then the complements of its heavy nodes, and since every
    trial owns its own generator, running one lockstep pass over all
    trials' light nodes followed by a second over all complements
    preserves each generator's call order exactly.  Complements are
    light by construction, so the second pass never recurses.  A batch
    that degenerates to one drawing trial goes straight to the serial
    helper — which *is* the reference stream, so the dispatch is
    invisible in the output.

    Returns ``(keys, nodes, slots, bounds)`` on ``key_base``'s axis,
    as :func:`_lockstep_light_subsets` does, except that ``keys`` is
    ``None`` where the subsets were not drawn on that axis (one drawing
    trial, or heavy nodes); the stack builds those keys if asked.
    """
    B = len(rngs)
    counts2d = np.asarray(counts2d, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    todo = np.flatnonzero(counts2d.any(axis=1))
    if len(todo) > 1:
        heavy2d = counts2d > (lengths // 2)[:, None]
        if not heavy2d.any():
            return _lockstep_light_subsets(
                rngs, lengths, counts2d, todo, key_base
            )

    # Otherwise assemble per-trial parts, light nodes then heavy ones.
    parts: dict = {}
    if len(todo) == 1:
        t = int(todo[0])
        parts[t] = _distinct_positions_batch(
            rngs[t], int(lengths[t]), counts2d[t]
        )
    elif len(todo):
        light2d = np.where(heavy2d, 0, counts2d)
        comp2d = np.where(heavy2d, lengths[:, None] - counts2d, 0)
        light = _lockstep_light_subsets(
            rngs, lengths, light2d, np.flatnonzero(light2d.any(axis=1)),
            key_base,
        )
        comp = _lockstep_light_subsets(
            rngs, lengths, comp2d, np.flatnonzero(comp2d.any(axis=1)),
            key_base,
        )
        lb, cb = light[3].tolist(), comp[3].tolist()
        for t in todo.tolist():
            nodes = light[1][lb[t]:lb[t + 1]]
            slots = light[2][lb[t]:lb[t + 1]]
            heavy_idx = np.flatnonzero(heavy2d[t])
            if len(heavy_idx):
                heavy_nodes, heavy_slots = _invert_complement(
                    heavy_idx, int(lengths[t]),
                    comp[1][cb[t]:cb[t + 1]], comp[2][cb[t]:cb[t + 1]],
                )
                nodes = np.concatenate([nodes, heavy_nodes])
                slots = np.concatenate([slots, heavy_slots])
            parts[t] = nodes, slots
    sizes = np.zeros(B, dtype=np.int64)
    for t, (nodes, _) in parts.items():
        sizes[t] = len(nodes)
    bounds = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    if not parts:
        return _EMPTY_SLOTS, _EMPTY_SLOTS, _EMPTY_SLOTS, bounds
    nodes = np.concatenate([p[0] for p in parts.values()])
    slots = np.concatenate([p[1] for p in parts.values()])
    return None, nodes, slots, bounds


def _binomial_rows(
    rngs: list[np.random.Generator],
    lengths: np.ndarray,
    probs: np.ndarray,
) -> np.ndarray:
    """Draw ``counts[t, i] ~ Binomial(lengths[t], probs[t, i])`` row by row.

    For small node counts the element-wise scalar draws beat NumPy's
    array-``p`` broadcast path by ~7x (the array path re-runs its
    parameter set-up per element); both consume the per-trial stream
    identically — ``Generator.binomial`` draws element-by-element in C
    order for array ``p`` — so the choice never changes the sampled
    counts.
    """
    B, n = probs.shape
    counts = np.empty((B, n), dtype=np.int64)
    if n <= 8:
        for t in range(B):
            g = rngs[t]
            length = int(lengths[t])
            row = probs[t]
            for i in range(n):
                counts[t, i] = g.binomial(length, float(row[i]))
    else:
        for t in range(B):
            counts[t] = rngs[t].binomial(int(lengths[t]), probs[t])
    return counts


def sample_action_events_batch(
    rngs: list[np.random.Generator],
    lengths,
    send_probs_list: list[np.ndarray],
    send_kinds_list: list[np.ndarray],
    listen_probs_list: list[np.ndarray],
    validate: bool = True,
) -> BatchEvents:
    """Sample B trials' phases at once; bit-identical per trial to B
    :func:`sample_action_events` calls.

    Each trial keeps its own generator and sees the serial call order —
    send Binomial, send positions, listen Binomial, listen positions —
    so per-trial streams are unchanged by batching; the deterministic
    subset-selection work is shared across trials via
    :func:`_distinct_positions_multi`.

    Parameters mirror :func:`sample_action_events`, one row per trial:
    each of ``send_probs_list`` / ``send_kinds_list`` /
    ``listen_probs_list`` is a ``(B, n)`` array or a length-B sequence
    of ``(n,)`` rows (trials in a batch share ``n_nodes``);
    ``lengths`` is a ``(B,)`` int array of phase lengths (trials in a
    lockstep batch may sit in different epochs).  ``validate=False``
    skips the shape/range checks for callers whose inputs are already
    validated (the engine's batch specs); it never changes the sampled
    events.

    The multichannel engine reuses this sampler unchanged: events are
    drawn on *real* slots from each trial's ``protocol`` stream, and
    only afterwards does the medium's hop
    (:meth:`repro.multichannel.engine.HoppingChannels.hop`) filter
    half-duplex conflicts and hop the survivors onto virtual slots from the
    separate per-trial ``hopping`` streams — so the draws made here are
    identical whether the phase later resolves on one channel or many.

    Returns a :class:`~repro.channel.events.BatchEvents`: one
    ``(SendEvents, ListenEvents)`` pair per trial, as views of the two
    :class:`~repro.channel.events.EventStack` arrays it carries, whose
    keys share one trial-major axis.
    """
    B = len(rngs)
    lengths = np.asarray(lengths, dtype=np.int64)
    try:
        send_probs = np.asarray(send_probs_list, dtype=np.float64)
        listen_probs = np.asarray(listen_probs_list, dtype=np.float64)
        send_kinds = np.asarray(send_kinds_list, dtype=np.int8)
    except ValueError as exc:
        raise SimulationError(
            "trials in a batch must share n_nodes"
        ) from exc
    if validate:
        if (
            send_probs.ndim != 2
            or listen_probs.shape != send_probs.shape
            or send_kinds.shape != send_probs.shape
        ):
            raise SimulationError(
                "send_probs, send_kinds, listen_probs length mismatch"
            )
        if lengths.shape != (B,) or send_probs.shape[0] != B:
            raise SimulationError(
                "rngs, lengths and probability rows must have one entry "
                "per trial"
            )
        if (lengths < 0).any():
            raise SimulationError("phase lengths must be non-negative")
        if ((send_probs < 0) | (send_probs > 1)).any() or (
            (listen_probs < 0) | (listen_probs > 1)
        ).any():
            raise SimulationError("action probabilities must lie in [0, 1]")

    # One trial-major key axis for the step's sends and listens.
    key_base = EventStack.key_axis(lengths, send_probs.shape[1])
    send_counts = _binomial_rows(rngs, lengths, send_probs)
    keys, nodes, slots, bounds = _distinct_positions_multi(
        rngs, lengths, send_counts, key_base
    )
    owner = np.repeat(np.arange(B, dtype=np.int64), np.diff(bounds))
    sends = EventStack(
        nodes, slots, send_kinds[owner, nodes], bounds, keys, owner
    )
    listen_counts = _binomial_rows(rngs, lengths, listen_probs)
    keys, nodes, slots, bounds = _distinct_positions_multi(
        rngs, lengths, listen_counts, key_base
    )
    listens = EventStack(nodes, slots, None, bounds, keys)
    return BatchEvents(sends, listens)
