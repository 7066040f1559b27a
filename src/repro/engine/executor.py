"""Deterministic fan-out of independent simulation tasks.

Every experiment decomposes into independent ``(point, replication)``
tasks whose seeds are fixed up front, so execution order cannot change
the science — which makes them safe to spread across worker processes.
This module is the execution backbone behind
:func:`repro.experiments.runner.replicate` and
:func:`repro.experiments.runner.sweep_epoch_targets`:

* the **serial** backend (default) runs tasks in order in-process, with
  zero dependencies and best-effort timeout enforcement via
  ``SIGALRM`` where available;
* the **process** backend forks a pool of workers that *inherit* the
  task closures (no pickling of user callables — only task indices go
  to workers and pickled results come back), with chunked task
  assignment, a per-task timeout, and bounded retry when a worker
  crashes.  A hung or segfaulting adversary run therefore cannot wedge
  a sweep.
* the **pool** backend (:class:`WorkerPool`) keeps forked workers alive
  across ``run_tasks`` calls: spawn once, then ship each batch's task
  callables by value (:mod:`repro.engine.closures`) over the pipes.  A
  long-lived caller — the sweep service, a ``run all`` CLI invocation,
  an arena search issuing thousands of small batches — pays the fork
  cost once instead of per batch.  Tasks that resist serialization fall
  back to the fork-per-call process backend transparently.

Determinism contract: ``run_tasks`` returns results in task order, and
each task must be a pure function of its own pre-derived seed.  Under
that contract serial, process, and pooled runs are bit-identical.

Examples
--------
>>> from repro.engine.executor import run_tasks
>>> run_tasks([lambda i=i: i * i for i in range(5)])
[0, 1, 4, 9, 16]
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutorError
from repro.telemetry.sink import get_sink

__all__ = [
    "ExecutorStats",
    "WorkerPool",
    "available_cpus",
    "resolve_jobs",
    "run_tasks",
]

# How often the parent wakes to check worker deadlines (seconds).
_POLL_INTERVAL = 0.05


@dataclass
class ExecutorStats:
    """Accounting for one or more :func:`run_tasks` batches.

    An experiment typically issues several batches (one per
    ``replicate`` call); passing the same stats object accumulates
    across them.  ``busy_time`` is the sum of in-task durations as
    measured inside the workers, so ``utilization`` compares it against
    the pool's capacity ``wall_time * workers``.
    """

    tasks: int = 0
    batches: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    wall_time: float = 0.0
    busy_time: float = 0.0
    workers: int = 0
    backend: str = ""
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_read: int = 0
    cache_bytes_written: int = 0
    batch_tasks: int = 0
    batch_trials: int = 0
    batch_capacity: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of pool capacity spent inside tasks (0 when idle)."""
        capacity = self.wall_time * max(self.workers, 1)
        return self.busy_time / capacity if capacity > 0 else 0.0

    @property
    def cache_requests(self) -> int:
        """Cacheable task lookups issued (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cacheable lookups served warm (0 when none)."""
        return self.cache_hits / self.cache_requests if self.cache_requests else 0.0

    @property
    def trials_per_task(self) -> float:
        """Mean trials packed into each batched task (0 when none ran)."""
        return self.batch_trials / self.batch_tasks if self.batch_tasks else 0.0

    @property
    def batch_fill_rate(self) -> float:
        """Fraction of offered batch slots actually filled with trials.

        A call offers its group size (the batch cap, lowered by the
        ``-j`` split) per group, so this is below 1.0 when a call's
        cache misses did not divide evenly into its groups.
        """
        return (
            self.batch_trials / self.batch_capacity if self.batch_capacity else 0.0
        )

    def summary(self) -> str:
        """One-line human summary for report notes / the CLI."""
        parts = [
            f"executor: {self.tasks} tasks in {self.batches} batches",
            f"backend={self.backend or 'serial'}",
            f"workers={max(self.workers, 1)}",
            f"wall {self.wall_time:.2f}s",
            f"utilization {self.utilization:.0%}",
        ]
        if self.retries or self.timeouts or self.crashes:
            parts.append(
                f"retries={self.retries} (timeouts={self.timeouts}, "
                f"crashes={self.crashes})"
            )
        if self.cache_requests:
            parts.append(
                f"cache {self.cache_hits}/{self.cache_requests} hits "
                f"({self.cache_hit_rate:.0%}; "
                f"{self.cache_bytes_read}B read, "
                f"{self.cache_bytes_written}B written)"
            )
        if self.batch_tasks:
            parts.append(
                f"batched {self.batch_trials} trials in {self.batch_tasks} "
                f"tasks ({self.trials_per_task:.1f}/task, "
                f"fill {self.batch_fill_rate:.0%})"
            )
        return ", ".join(parts)


def available_cpus() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup CPU set or ``taskset`` affinity mask (the norm in CI
    containers) it oversubscribes the pool, and the forked workers then
    fight each other for the few cores the scheduler will really give
    them.  ``os.sched_getaffinity(0)`` reflects those limits where the
    platform provides it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query refused
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/negative mean "all
    cores available to this process" (see :func:`available_cpus`)."""
    if jobs is None or jobs <= 0:
        return available_cpus()
    return jobs


def run_tasks(
    tasks: Sequence[Callable[[], Any]],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    stats: ExecutorStats | None = None,
    pool: "WorkerPool | None" = None,
) -> list[Any]:
    """Run independent zero-argument tasks, returning results in order.

    Parameters
    ----------
    tasks:
        Zero-argument callables.  Each must be a pure function of state
        fixed before the call (its derived seed), never of shared
        mutable state — that is what makes parallel runs bit-identical
        to serial ones.
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``0`` or negative means one per CPU core.  The process backend
        needs ``os.fork`` (POSIX); elsewhere execution silently falls
        back to serial.
    timeout:
        Per-task wall-clock limit in seconds, a finite number > 0, or
        ``None`` for no limit.  In the process backend an overrunning
        worker is killed and the task retried; serially it is enforced
        best-effort via ``SIGALRM`` on the main thread.
    retries:
        How many times a task that timed out or whose worker crashed is
        retried before :class:`~repro.errors.ExecutorError` is raised.
        Ordinary exceptions raised *by* a task are never retried — they
        are deterministic and propagate immediately.
    stats:
        Optional :class:`ExecutorStats` to accumulate into.
    pool:
        Optional :class:`WorkerPool` of long-lived workers.  Used when
        ``jobs > 1`` and every task serializes
        (:mod:`repro.engine.closures`); otherwise execution falls back
        to the fork-per-call process backend with identical results.
    """
    if retries < 0:
        raise ExecutorError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
        raise ExecutorError(
            f"timeout must be a finite number > 0 or None, got {timeout!r}"
        )
    stats = stats if stats is not None else ExecutorStats()
    tasks = list(tasks)
    n = len(tasks)
    if n == 0:
        return []
    jobs = min(resolve_jobs(jobs), n)
    can_fork = hasattr(os, "fork")
    use_pool = (
        pool is not None and not pool.closed and jobs > 1 and can_fork
    )
    payloads = pool.encode_tasks(tasks) if use_pool else None
    if payloads is None:
        use_pool = False
    use_process = not use_pool and jobs > 1 and can_fork

    start = time.perf_counter()
    if use_pool:
        results = pool.run_encoded(payloads, timeout, retries, stats)
        backend, workers = "pool", min(pool.jobs, n)
    elif use_process:
        results = _run_process(tasks, jobs, timeout, retries, stats)
        backend, workers = "process", jobs
    else:
        results = _run_serial(tasks, timeout, retries, stats)
        backend, workers = "serial", 1
    wall = time.perf_counter() - start
    stats.tasks += n
    stats.batches += 1
    stats.wall_time += wall
    sink = get_sink()
    if sink is not None:
        sink.span_event(
            "executor.batch", wall, backend=backend, workers=workers, tasks=n
        )
    stats.workers = max(stats.workers, workers)
    # A mixed run (some batches too small to fork) reports the parallel
    # capability used: the record is about capability, not every
    # batch's path.
    if stats.backend not in ("process", "pool"):
        stats.backend = backend
    return results


# --------------------------------------------------------------------------
# serial backend


class _SerialTimeout(Exception):
    """Internal: a SIGALRM fired inside a serially-executed task."""


def _raise_serial_timeout(signum, frame):
    raise _SerialTimeout()


def _run_serial(tasks, timeout, retries, stats):
    sink = get_sink()
    use_alarm = bool(timeout) and hasattr(signal, "setitimer")
    if use_alarm:
        try:
            previous = signal.signal(signal.SIGALRM, _raise_serial_timeout)
        except ValueError:  # not on the main thread: no enforcement
            use_alarm = False

    results = []
    try:
        for i, task in enumerate(tasks):
            for attempt in range(retries + 1):
                t0 = time.perf_counter()
                completed = False
                try:
                    if use_alarm:
                        signal.setitimer(signal.ITIMER_REAL, timeout)
                    value = task()
                    completed = True
                    # Disarm before the result is recorded.  The alarm
                    # used to stay armed until the ``finally`` below,
                    # so one firing after the task finished (but before
                    # the disarm) was caught as a timeout and the task
                    # retried — appending a *duplicate* result and
                    # shifting every later result by one slot.
                    if use_alarm:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except _SerialTimeout:
                    # ``completed`` distinguishes a real in-task timeout
                    # from an alarm that lost the race with the task's
                    # completion; the latter is success, not a retry.
                    pass
                finally:
                    if use_alarm:
                        try:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                        except _SerialTimeout:
                            pass  # alarm landed on the disarm call itself
                    duration = time.perf_counter() - t0
                    stats.busy_time += duration
                if completed:
                    if sink is not None:
                        sink.span_event(
                            "executor.task", duration,
                            index=i, attempt=attempt, outcome="ok",
                        )
                    results.append(value)
                    break
                stats.timeouts += 1
                if sink is not None:
                    sink.span_event(
                        "executor.task", duration,
                        index=i, attempt=attempt, outcome="timeout",
                    )
                if attempt >= retries:
                    raise ExecutorError(
                        f"task {i} timed out after {timeout}s "
                        f"({attempt + 1} attempts)"
                    ) from None
                stats.retries += 1
    finally:
        if use_alarm:
            signal.signal(signal.SIGALRM, previous)
    return results


# --------------------------------------------------------------------------
# shared worker-side plumbing


def _run_one(task) -> tuple:
    """Execute one task in a worker; returns the result message tail."""
    t0 = time.perf_counter()
    try:
        result = task()
        return ("ok", result, time.perf_counter() - t0)
    except (KeyboardInterrupt, SystemExit):
        # A Ctrl-C (or an explicit exit) must kill this worker — the
        # parent sees the EOF as a crash and its own interrupt tears
        # the pool down.  Reporting it as a task error would swallow
        # the interrupt and keep the fork pool running through the
        # user's abort.
        raise
    except Exception as exc:  # forwarded to parent
        return ("err", f"{type(exc).__name__}: {exc}",
                time.perf_counter() - t0)


def _send_result(conn, idx: int, outcome: tuple) -> None:
    status, payload, duration = outcome
    try:
        conn.send((status, idx, payload, duration))
    except Exception as exc:  # unpicklable result: report, don't die
        conn.send(("err", idx, f"result not picklable: {exc}", duration))


def _worker_main(conn, tasks):
    """Fork-per-call worker loop: receive index chunks, send results.

    Runs in a child forked *after* the task list was built, so
    ``tasks`` (with all its closures) is inherited memory — nothing
    user-provided crosses the pipe except pickled *results*.
    """
    while True:
        try:
            chunk = conn.recv()
        except EOFError:
            return
        if chunk is None:
            return
        for idx in chunk:
            _send_result(conn, idx, _run_one(tasks[idx]))


def _pool_worker_main(conn):
    """Persistent-pool worker loop: receive serialized task chunks.

    Forked once at pool creation, *before* any task exists, so each
    chunk carries its callables by value
    (:func:`repro.engine.closures.loads_task`).  Every chunk message
    also names the parent's active telemetry run (or ``None``) so a
    worker outliving many telemetry sessions always writes into the
    right event log — with the parent's monotonic base, keeping
    timestamps comparable.
    """
    from repro.engine.closures import loads_task
    from repro.telemetry.sink import _worker_adopt

    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        sink_info, chunk = msg
        _worker_adopt(sink_info)
        for idx, payload in chunk:
            t0 = time.perf_counter()
            try:
                task = loads_task(payload)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                _send_result(
                    conn, idx,
                    ("err", f"task deserialization failed: {exc}",
                     time.perf_counter() - t0),
                )
                continue
            _send_result(conn, idx, _run_one(task))


class _Worker:
    __slots__ = ("proc", "conn", "assigned", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.assigned: deque[int] = deque()  # front = in-flight task
        self.deadline: float | None = None


def _spawn_worker(target, args, *, pool: bool) -> _Worker:
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=target, args=(child_conn, *args), daemon=True)
    proc.start()
    child_conn.close()
    sink = get_sink()
    if sink is not None:
        sink.event("executor.worker.spawn", worker_pid=proc.pid, pool=pool)
    return _Worker(proc, parent_conn)


def _kill_worker(worker: _Worker, *, timeout: float = 0.0) -> None:
    """Stop one worker (politely up to ``timeout``, then SIGKILL)."""
    if timeout > 0:
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        worker.proc.join(timeout=timeout)
    if worker.proc.is_alive():
        worker.proc.kill()
        worker.proc.join()
    worker.conn.close()
    sink = get_sink()
    if sink is not None:
        sink.event(
            "executor.worker.exit",
            worker_pid=worker.proc.pid, exitcode=worker.proc.exitcode,
        )


def _drive_workers(
    n: int,
    workers: list[_Worker],
    spawn: Callable[[], _Worker],
    encode_chunk: Callable[[list[int]], Any],
    timeout: float | None,
    retries: int,
    stats: ExecutorStats,
) -> list[Any]:
    """Generic chunked scheduler shared by the process and pool backends.

    Feeds index chunks (encoded by ``encode_chunk``) to ``workers``,
    collects per-task results in order, enforces per-task deadlines,
    and replaces crashed or overrunning workers via ``spawn``.
    ``workers`` is mutated in place so a persistent pool keeps the
    replacements.  Raises :class:`~repro.errors.ExecutorError` once a
    task exhausts its retry budget; teardown is the caller's job.
    """
    from multiprocessing.connection import wait as conn_wait

    sink = get_sink()
    # About four chunks per worker, at most 32 tasks per message.
    chunk_size = max(1, min(32, n // (max(len(workers), 1) * 4)))

    pending: deque[int] = deque(range(n))
    attempts = [0] * n
    results: list[Any] = [None] * n
    done = 0

    def assign(worker: _Worker) -> None:
        if not pending or worker.assigned:
            return
        chunk = [pending.popleft() for _ in range(min(chunk_size, len(pending)))]
        worker.conn.send(encode_chunk(chunk))
        worker.assigned.extend(chunk)
        worker.deadline = (time.perf_counter() + timeout) if timeout else None

    def consume(worker: _Worker, msg) -> None:
        nonlocal done
        status, idx, payload, duration = msg
        expected = worker.assigned.popleft()
        if expected != idx:  # pragma: no cover - protocol invariant
            raise ExecutorError(f"worker returned task {idx}, expected {expected}")
        stats.busy_time += duration
        if sink is not None:
            sink.span_event(
                "executor.task", duration,
                index=idx, attempt=attempts[idx],
                outcome="err" if status == "err" else "ok",
            )
        if status == "err":
            raise ExecutorError(f"task {idx} raised: {payload}")
        results[idx] = payload
        done += 1
        worker.deadline = (
            (time.perf_counter() + timeout)
            if timeout and worker.assigned else None
        )

    def fail_in_flight(worker: _Worker, kind: str) -> None:
        """Kill ``worker``, requeue its chunk, charge one attempt to the
        in-flight task."""
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        idx = worker.assigned.popleft()
        attempts[idx] += 1
        if kind == "timeout":
            stats.timeouts += 1
        else:
            stats.crashes += 1
        if sink is not None:
            sink.event(
                "executor.task.fail",
                index=idx, attempt=attempts[idx], outcome=kind,
                worker_pid=worker.proc.pid,
            )
        if attempts[idx] > retries:
            raise ExecutorError(
                f"task {idx} {kind} after {attempts[idx]} attempts "
                f"(retries={retries})"
            )
        stats.retries += 1
        # Untouched remainder of the chunk goes back first, the failed
        # task in front of it — order keeps results deterministic-ready.
        for j in reversed(worker.assigned):
            pending.appendleft(j)
        pending.appendleft(idx)

    for w in workers:
        assign(w)
    while done < n:
        active = [w for w in workers if w.assigned]
        ready = conn_wait([w.conn for w in active], timeout=_POLL_INTERVAL)
        by_conn = {w.conn: w for w in workers}
        for conn in ready:
            w = by_conn[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                workers.remove(w)
                fail_in_flight(w, "crash")
                workers.append(spawn())
                continue
            consume(w, msg)
        now = time.perf_counter()
        for w in list(workers):
            if w.assigned and w.deadline is not None and now > w.deadline:
                # Drain results that beat the deadline before blaming
                # the in-flight task.
                while w.assigned and w.conn.poll(0):
                    try:
                        consume(w, w.conn.recv())
                    except (EOFError, OSError):
                        break
                if not (w.assigned and w.deadline is not None
                        and now > w.deadline):
                    continue
                workers.remove(w)
                fail_in_flight(w, "timeout")
                workers.append(spawn())
        for w in workers:
            assign(w)
    return results


# --------------------------------------------------------------------------
# process backend (fork per call)


def _run_process(tasks, jobs, timeout, retries, stats):
    def spawn() -> _Worker:
        return _spawn_worker(_worker_main, (tasks,), pool=False)

    workers = [spawn() for _ in range(jobs)]
    try:
        return _drive_workers(
            len(tasks), workers, spawn, list, timeout, retries, stats,
        )
    finally:
        for w in workers:
            _kill_worker(w, timeout=1.0)


# --------------------------------------------------------------------------
# pool backend (spawn once, reuse across run_tasks calls)


class WorkerPool:
    """Long-lived fork workers reusable across :func:`run_tasks` calls.

    The classic process backend pays one fork per worker per *batch*;
    for workloads issuing many small batches (arena search, ``run
    all``, the sweep service) that cost dominates.  A ``WorkerPool``
    forks its workers once — lazily, at the first pooled batch — and
    thereafter ships each batch's task callables by value over the
    existing pipes (:mod:`repro.engine.closures`).

    Contract mirrors the process backend exactly: results in task
    order, per-task deadline enforcement (an overrunning or crashed
    worker is killed, *replaced in the pool*, and the task retried),
    and bit-identical results — a worker executes the same closure the
    parent would, against its own fork-inherited module state.

    Pass a pool to :func:`run_tasks` (or via
    ``RunConfig(pool=...)``); batches whose tasks cannot be serialized
    fall back to fork-per-call automatically.  One pool may be shared
    by sequential callers; concurrent ``run`` calls are serialized by
    an internal lock.  Use as a context manager or call :meth:`close`
    to reap the workers.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        self._spawned_total = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def alive_workers(self) -> int:
        """Currently live worker processes (0 before first use)."""
        return sum(1 for w in self._workers if w.proc.is_alive())

    @property
    def spawned_total(self) -> int:
        """Workers ever forked (replacements included) — the number a
        fork-per-call backend would multiply per batch."""
        return self._spawned_total

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (stable across batches — the
        pool-reuse property tests pin)."""
        return [w.proc.pid for w in self._workers if w.proc.is_alive()]

    def _spawn(self) -> _Worker:
        self._spawned_total += 1
        return _spawn_worker(_pool_worker_main, (), pool=True)

    def _ensure_workers(self) -> None:
        # Replace any worker that died between batches (OOM kill, admin
        # signal) so a pool never shrinks silently.
        kept = []
        for w in self._workers:
            if w.proc.is_alive():
                kept.append(w)
            else:
                _kill_worker(w)  # reap + close the pipe
        self._workers[:] = kept
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn())

    def reset(self) -> None:
        """Kill every worker; the next batch respawns a fresh set.

        Called internally after an error mid-batch, when in-flight
        state on the pipes can no longer be trusted.
        """
        for w in self._workers:
            _kill_worker(w)
        self._workers.clear()

    def close(self) -> None:
        """Shut the pool down (idempotent); later batches fall back."""
        if self._closed:
            return
        for w in self._workers:
            _kill_worker(w, timeout=1.0)
        self._workers.clear()
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    def encode_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[bytes] | None:
        """Serialized payloads for ``tasks``, or ``None`` when any task
        resists serialization (the fall-back-to-fork signal)."""
        from repro.engine.closures import TaskNotPortable, dumps_task

        try:
            return [dumps_task(task) for task in tasks]
        except TaskNotPortable:
            return None

    def run_encoded(
        self,
        payloads: list[bytes],
        timeout: float | None,
        retries: int,
        stats: ExecutorStats,
    ) -> list[Any]:
        """Run pre-encoded tasks on the pool (``run_tasks`` internals)."""
        from repro.telemetry.sink import _worker_share_info

        if self._closed:
            raise ExecutorError("worker pool is closed")
        sink_info = _worker_share_info()

        def encode_chunk(chunk: list[int]):
            return (sink_info, [(i, payloads[i]) for i in chunk])

        with self._lock:
            self._ensure_workers()
            try:
                return _drive_workers(
                    len(payloads), self._workers, self._spawn, encode_chunk,
                    timeout, retries, stats,
                )
            except BaseException:
                # In-flight chunks may still be draining into the
                # pipes; a fresh set of workers is cheaper than
                # resynchronizing the old ones.
                self.reset()
                raise
