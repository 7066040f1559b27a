"""Content-addressed result cache with checkpoint/resume for sweeps.

Every ``(sweep point, replication)`` cell in this repo is a pure
function of ``(experiment, params, derived seed)`` — PR 1's executor
made that contract explicit and bit-reproducible.  This package turns
the contract into speed: a cell that has been computed once, under the
same engine version and parameters, is never computed again.

* :mod:`repro.cache.fingerprint` canonically hashes a task's inputs
  into a SHA-256 content key;
* :mod:`repro.cache.store` persists results in sharded, append-only
  JSONL segments with file locking (safe under forked ``--jobs``
  workers);
* :class:`~repro.cache.memory.ReadThroughStore` is the bounded
  in-process layer the sweep service keeps in front of a store.

Sweeps reach the store through one path, the experiment runner's
dispatcher behind :func:`repro.experiments.runner.replicate`,
:func:`~repro.experiments.runner.mc_replicate` and
:func:`~repro.experiments.runner.sweep_epoch_targets`.  It looks up
every trial, runs only the misses as ``run_batch`` groups of up to
``RunConfig.batch`` trials (one trial per group at batch 1), and writes
each trial's own entry back *as its group completes* — so an
interrupted sweep leaves its finished cells behind and the next
identical invocation resumes from them, under any batch size.

Because cache writes happen inside the worker that ran the task, a
sweep aborted by ``ExecutorError``, ``KeyboardInterrupt``, or a kill
signal checkpoints for free; there is no separate checkpoint file to
maintain or to go stale.
"""

from __future__ import annotations

from repro.cache.fingerprint import (
    CACHE_KEY_SCHEMA,
    describe,
    fingerprint,
    task_key,
)
from repro.cache.memory import DEFAULT_MEMORY_ENTRIES, ReadThroughStore
from repro.cache.store import (
    DEFAULT_GC_BYTES,
    CacheStats,
    CacheStore,
    default_cache_dir,
)

__all__ = [
    "CACHE_KEY_SCHEMA",
    "CacheStats",
    "CacheStore",
    "DEFAULT_GC_BYTES",
    "DEFAULT_MEMORY_ENTRIES",
    "ReadThroughStore",
    "default_cache_dir",
    "describe",
    "fingerprint",
    "task_key",
]
