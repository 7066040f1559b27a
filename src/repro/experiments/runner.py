"""Shared experiment machinery: tables, replication, jam sweeps.

``replicate``, ``mc_replicate`` and ``sweep_epoch_targets`` share one
body: a sweep is a list of cells, and the cells' trials run as
``run_batch`` tasks of up to ``config.batch`` trials (groups span cell
bounds), fanned out through :mod:`repro.engine.executor`; pass a
:class:`~repro.experiments.registry.RunConfig` via ``config=`` to run
them on several worker processes.  Seeds are derived per trial from
indices fixed before execution starts, so serial, parallel and batched
runs are bit-identical.

With ``config.cache`` enabled, every task is first looked up in the
content-addressed result cache (:mod:`repro.cache`) by a fingerprint of
its protocol, adversary, simulator options, and derived seed; hits are
served from disk and misses are written back as their group completes,
so an interrupted sweep resumes from its finished groups on the next
identical invocation.  Tasks whose inputs cannot be canonically
fingerprinted (callable predicates, trace recorders, history-keeping
runs) simply execute uncached.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.adversaries.base import Adversary
from repro.engine.executor import resolve_jobs, run_tasks
from repro.engine.simulator import RunResult, Simulator
from repro.errors import ConfigurationError
from repro.protocols.base import Protocol
from repro.rng import derive

__all__ = [
    "Table",
    "mc_replicate",
    "replicate",
    "stable_hash",
    "sweep_epoch_targets",
    "SweepPoint",
]


def stable_hash(*parts) -> int:
    """Process-independent hash for deriving per-cell seeds.

    Python's built-in ``hash`` is salted per interpreter process, which
    would make experiment replications irreproducible across runs.
    Returns the full 32-bit CRC range: an earlier version collapsed it
    to 10,000 values, which made seed collisions between sweep cells
    likely at scale (birthday bound ~120 cells).
    """
    import zlib

    return zlib.crc32(repr(parts).encode("utf-8"))


@dataclass
class Table:
    """A plain-text results table (what the paper would print as a
    figure's data series)."""

    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> np.ndarray:
        """Extract one column as a float array (for fits)."""
        idx = self.columns.index(name)
        return np.asarray([row[idx] for row in self.rows], dtype=float)

    def to_dict(self) -> dict:
        """Plain-container snapshot (the persisted form in ``repro.store``)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> Table:
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(data["title"], list(data["columns"]))
        for row in data["rows"]:
            table.add_row(*row)
        return table

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1000 or abs(v) < 0.01:
                    return f"{v:.3g}"
                return f"{v:.3f}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(c), *(len(r[j]) for r in cells)) if cells else len(c)
            for j, c in enumerate(self.columns)
        ]
        lines = [self.title]
        lines.append("  ".join(c.rjust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


def _executor_kwargs(config) -> dict:
    """Map a RunConfig (or ``None`` = serial) onto ``run_tasks`` options."""
    if config is None:
        return {}
    return {
        "jobs": config.jobs,
        "timeout": config.timeout,
        "stats": config.stats,
        "pool": getattr(config, "pool", None),
    }


def _fingerprint_base(
    config, store, kind: str, make_protocol, sim_kwargs: dict
) -> dict | None:
    """Shared (protocol + simulator + run context) part of the cache
    key payload, or ``None`` when these tasks cannot be cached.

    History-keeping runs are never cached: ``run_result_to_dict``
    deliberately drops ``phase_history`` (forensic, not archival), so a
    warm hit could not reproduce a cold run bit-for-bit.
    """
    if store is None or sim_kwargs.get("keep_history"):
        return None
    from repro.cache.fingerprint import fingerprint
    from repro.errors import FingerprintError

    try:
        return fingerprint(
            kind=kind,
            protocol=make_protocol(),
            adversary=None,  # group-specific; filled in per adversary
            sim_kwargs=sim_kwargs,
            experiment=config.experiment,
            quick=config.quick,
        )
    except FingerprintError:
        return None


def _group_keys(base: dict | None, make_adversary, seed_paths) -> list:
    """Content keys for one adversary's replications (``None`` entries
    mean "run uncached")."""
    if base is None:
        return [None] * len(seed_paths)
    from repro.cache.fingerprint import describe, task_key
    from repro.errors import FingerprintError

    try:
        with_adv = dict(base, adversary=describe(make_adversary()))
    except FingerprintError:
        return [None] * len(seed_paths)
    return [task_key(with_adv, path) for path in seed_paths]


def _group_size(config, n_misses: int) -> int:
    """Trials per ``run_batch`` group for ``n_misses`` cache misses.

    Up to ``config.batch`` (the cap), and with ``jobs > 1`` (0 resolved
    to the core count) no more than ``ceil(n_misses / jobs)``, so the
    misses still split over every worker.  ``config=None`` gives
    one-trial groups.
    """
    if config is None or n_misses == 0:
        return 1
    return min(config.batch, -(-n_misses // resolve_jobs(config.jobs)))


def _dispatch_batched(make_group_task, keys, config, store) -> list:
    """Serve cache hits and run the misses as ``run_batch`` groups.

    Cache hits are served individually; the remaining misses are
    chunked in trial order, across cell bounds, into groups of
    :func:`_group_size` trials, and each group runs as one executor
    task (at ``batch=1``, one trial per task).  ``config.timeout`` is a
    per-trial budget, so ``run_tasks`` gets it times the largest
    group's trial count.  Every cacheable trial still writes its *own*
    entry back from inside the worker once its group completes, so
    batching changes neither the cache granularity nor resumability —
    and because each trial's rng streams are independent of batch
    composition, a chunk thinned by cache hits produces the same bits
    as a full one.  ``config`` may be ``None`` (serial, uncached).
    """
    kwargs = _executor_kwargs(config)
    stats = kwargs.get("stats")
    n = len(keys)
    results: list = [None] * n

    hits: dict = {}
    bytes_read = 0
    if store is not None and config.resume:
        keyed = [k for k in keys if k is not None]
        if keyed:
            hits, bytes_read = store.get_many(keyed)

    miss = [i for i in range(n) if keys[i] is None or keys[i] not in hits]
    size = _group_size(config, len(miss))
    groups = [miss[j : j + size] for j in range(0, len(miss), size)]
    for i in range(n):
        if keys[i] is not None and keys[i] in hits:
            results[i] = hits[keys[i]]
    if kwargs.get("timeout") is not None and groups:
        kwargs["timeout"] *= max(map(len, groups))

    def wrap(group):
        task = make_group_task(group)
        if store is None or all(keys[i] is None for i in group):
            return lambda: (task(), 0)
        meta = {"experiment": config.experiment}

        def wrapped():
            values = task()
            n_bytes = sum(
                store.put(keys[i], v, meta=meta)
                for i, v in zip(group, values)
                if keys[i] is not None
            )
            return values, n_bytes

        return wrapped

    outs = run_tasks([wrap(g) for g in groups], **kwargs)

    bytes_written = 0
    for group, (values, n_bytes) in zip(groups, outs):
        bytes_written += n_bytes
        for i, v in zip(group, values):
            results[i] = v

    if stats is not None:
        stats.batch_tasks += len(groups)
        stats.batch_trials += len(miss)
        stats.batch_capacity += len(groups) * size
    if store is not None and any(k is not None for k in keys):
        n_hits = sum(
            1 for k in keys if k is not None and k in hits
        )
        n_misses = sum(1 for i in miss if keys[i] is not None)
        if stats is not None:
            stats.cache_hits += n_hits
            stats.cache_misses += n_misses
            stats.cache_bytes_read += bytes_read
            stats.cache_bytes_written += bytes_written
        from repro.telemetry.sink import get_sink

        sink = get_sink()
        if sink is not None:
            sink.counter("cache.hits", n_hits)
            sink.counter("cache.misses", n_misses)
            sink.counter("cache.bytes_read", bytes_read)
            sink.counter("cache.bytes_written", bytes_written)
    return results


def replicate(
    make_protocol: Callable[[], Protocol],
    make_adversary: Callable[[], Adversary],
    n_reps: int,
    seed: int = 0,
    *,
    config=None,
    **sim_kwargs,
) -> list[RunResult]:
    """Run ``n_reps`` independent executions with derived seeds.

    Fresh protocol/adversary instances are built per replication so
    that stateful strategies cannot leak across runs; replication ``r``
    uses the generator ``derive(seed, r)`` regardless of which worker
    executes it, so results are identical for any ``config.jobs``.

    ``config`` is an optional
    :class:`~repro.experiments.registry.RunConfig` supplying the
    executor options (jobs, batch, timeout); ``None`` runs serially
    in-process, one trial per task.  Replications run as
    :meth:`~repro.engine.simulator.Simulator.run_batch` tasks of up to
    ``config.batch`` trials — bit-identical results, per-trial cache
    entries, at every batch size.  ``sim_kwargs`` go to the engine
    (for example ``keep_history=True``; runs that keep history are
    never cached).
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    cells = [(make_adversary, [(seed, r) for r in range(n_reps)])]
    (results,) = _run_cells(
        Simulator, "replicate", {}, make_protocol, cells, config, sim_kwargs
    )
    return results


def mc_replicate(
    make_protocol: Callable[[], Protocol],
    make_adversary,
    n_reps: int,
    seed: int = 0,
    *,
    n_channels: int,
    config=None,
    **sim_kwargs,
) -> list[RunResult]:
    """Multichannel counterpart of :func:`replicate`.

    Identical replication/seeding/caching contract, but each trial runs
    on an :class:`~repro.multichannel.engine.MCSimulator` over
    ``n_channels`` channels with an
    :class:`~repro.multichannel.adversaries.MCAdversary`.  The cache
    fingerprint folds ``n_channels`` into the task identity (kind
    ``"mc_replicate"``), so single- and multi-channel runs of the same
    protocol can never collide in the store.

    Cache misses run as ``MCSimulator.run_batch`` groups of up to
    ``config.batch`` trials (warm hits are served individually from the
    store), exactly like the single-channel path — per-trial results
    and cache entries are bit-identical at every batch size, so a sweep
    can be killed under one batch setting and resumed under another.
    """
    from repro.multichannel.engine import MCSimulator

    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    cells = [(make_adversary, [(seed, r) for r in range(n_reps)])]
    (results,) = _run_cells(
        functools.partial(MCSimulator, n_channels=n_channels),
        "mc_replicate", {"n_channels": n_channels},
        make_protocol, cells, config, sim_kwargs,
    )
    return results


def _run_cells(
    engine,
    kind: str,
    key_options: dict,
    make_protocol,
    cells,
    config,
    sim_kwargs: dict,
) -> list[list[RunResult]]:
    """The one body of :func:`replicate`, :func:`mc_replicate` and
    :func:`sweep_epoch_targets` (and of E15, which brings its own seed
    paths); returns one result list per cell.

    A sweep is a list of *cells* ``(make_adversary, seed_paths)``:
    trial ``i`` of a cell plays ``derive(*seed_paths[i])`` against a
    fresh ``make_adversary()``.  The cells' cache misses are grouped
    across cell bounds, and each trial keeps its own cell's adversary,
    seed path and cache key.  ``engine(protocol, adversary,
    **sim_kwargs)`` builds each task's simulator, and the task plays
    its group through ``run_batch`` on that simulator's freshly built
    protocol — the engine, not this function, picks the loop for the
    group's trial count.  The cache fingerprint covers ``kind`` and
    the engine options, ``sim_kwargs`` plus ``key_options``.
    """
    store = config.resolve_cache_store() if config is not None else None
    base = _fingerprint_base(
        config, store, kind, make_protocol, dict(sim_kwargs, **key_options)
    )
    spans, keys, trials = [], [], []
    for make_adversary, paths in cells:
        spans.append((len(trials), len(trials) + len(paths)))
        keys += _group_keys(base, make_adversary, paths)
        trials += [(make_adversary, path) for path in paths]

    def make_group_task(group: list[int]) -> Callable[[], list[RunResult]]:
        factories = [trials[i][0] for i in group]
        paths = [trials[i][1] for i in group]

        def task() -> list[RunResult]:
            adversaries = [make() for make in factories]
            sim = engine(make_protocol(), adversaries[0], **sim_kwargs)
            return list(
                sim.run_batch(
                    [derive(*path) for path in paths],
                    adversaries=adversaries,
                )
            )

        return task

    flat = _dispatch_batched(make_group_task, keys, config, store)
    return [flat[start:stop] for start, stop in spans]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated replications at one sweep setting."""

    setting: float
    mean_T: float
    mean_max_cost: float
    mean_mean_cost: float
    mean_slots: float
    success_rate: float
    n_reps: int
    truncated_rate: float = 0.0


def _aggregate_point(target: int, results: list[RunResult], n_reps: int) -> SweepPoint:
    return SweepPoint(
        setting=float(target),
        mean_T=float(np.mean([r.adversary_cost for r in results])),
        mean_max_cost=float(np.mean([r.max_node_cost for r in results])),
        mean_mean_cost=float(np.mean([r.node_costs.mean() for r in results])),
        mean_slots=float(np.mean([r.slots for r in results])),
        success_rate=float(np.mean([r.success for r in results])),
        n_reps=n_reps,
        truncated_rate=float(np.mean([r.truncated for r in results])),
    )


def sweep_epoch_targets(
    make_protocol: Callable[[], Protocol],
    make_adversary: Callable[[int], Adversary],
    targets: Sequence[int],
    n_reps: int,
    seed: int = 0,
    *,
    config=None,
    **sim_kwargs,
) -> list[SweepPoint]:
    """The workhorse sweep behind E1/E3/E4/E6/E7: attack up to epoch
    ``target`` (larger target = larger adversary budget ``T``), measure
    costs.

    ``make_adversary`` receives the target epoch and returns a fresh
    strategy (usually an
    :class:`~repro.adversaries.blocking.EpochTargetJammer`).

    The whole ``(target, replication)`` grid is submitted as one task
    batch, so with ``config.jobs > 1`` parallelism spans sweep points —
    a slow largest-budget point no longer serializes behind the cheap
    ones.  Replication ``r`` of target ``t`` always uses
    ``derive(seed + 1000 * t, r)``, matching the historical per-point
    seeding exactly.
    """
    if n_reps < 1:
        raise ConfigurationError(f"n_reps must be >= 1, got {n_reps}")
    targets = list(targets)
    cells = [
        (
            functools.partial(make_adversary, t),
            [(seed + 1000 * t, r) for r in range(n_reps)],
        )
        for t in targets
    ]
    per_target = _run_cells(
        Simulator, "sweep_epoch_targets", {}, make_protocol, cells, config,
        sim_kwargs,
    )
    return [
        _aggregate_point(target, results, n_reps)
        for target, results in zip(targets, per_target)
    ]
