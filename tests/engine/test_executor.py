"""Unit tests for the parallel task executor.

The executor's contract is strict because the science depends on it:
results in task order, bit-identical across backends and worker
counts, bounded retry on crash/timeout, honest stats.  Process-backend
tests are skipped where ``os.fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

import repro.engine.executor as executor_mod
from repro.engine.executor import (
    ExecutorStats,
    available_cpus,
    resolve_jobs,
    run_tasks,
)
from repro.errors import ExecutorError

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process backend needs os.fork"
)


def square_tasks(n):
    return [lambda i=i: i * i for i in range(n)]


class TestSerialBackend:
    def test_results_in_order(self):
        assert run_tasks(square_tasks(10)) == [i * i for i in range(10)]

    def test_empty(self):
        assert run_tasks([]) == []

    def test_exception_propagates_unwrapped(self):
        def boom():
            raise ValueError("deterministic failure")

        with pytest.raises(ValueError, match="deterministic failure"):
            run_tasks([boom])

    def test_timeout_raises_after_retries(self):
        stats = ExecutorStats()
        with pytest.raises(ExecutorError, match="timed out"):
            run_tasks(
                [lambda: time.sleep(10)], timeout=0.1, retries=1, stats=stats
            )
        assert stats.timeouts == 2  # first attempt + one retry
        assert stats.retries == 1

    def test_stats_accounting(self):
        stats = ExecutorStats()
        run_tasks(square_tasks(7), stats=stats)
        assert stats.tasks == 7
        assert stats.batches == 1
        assert stats.backend == "serial"
        assert stats.workers == 1
        assert stats.wall_time > 0
        assert stats.retries == stats.timeouts == stats.crashes == 0
        assert "7 tasks" in stats.summary()

    def test_stats_accumulate_across_batches(self):
        stats = ExecutorStats()
        run_tasks(square_tasks(3), stats=stats)
        run_tasks(square_tasks(4), stats=stats)
        assert stats.tasks == 7
        assert stats.batches == 2

    def test_late_alarm_after_completion_is_not_a_timeout(self, monkeypatch):
        """Regression: SIGALRM firing after ``task()`` returned.

        The alarm used to stay armed until the per-attempt ``finally``,
        so one firing in the window after the task finished was caught
        as a ``_SerialTimeout`` and the completed task retried —
        appending a duplicate result and shifting every later result by
        one slot (or, landing on the ``finally`` disarm itself, leaking
        the internal exception out of ``run_tasks``).  The fake
        ``setitimer`` delivers the alarm synchronously at the first
        disarm call, i.e. at the first signal checkpoint after task
        completion.
        """
        real_setitimer = signal.setitimer
        fired = {"done": False}

        def late_alarm_setitimer(which, seconds, *rest):
            if seconds == 0 and not fired["done"]:
                fired["done"] = True
                real_setitimer(which, 0)
                executor_mod._raise_serial_timeout(signal.SIGALRM, None)
            return real_setitimer(which, seconds, *rest)

        monkeypatch.setattr(signal, "setitimer", late_alarm_setitimer)
        stats = ExecutorStats()
        results = run_tasks(
            [lambda: "a", lambda: "b", lambda: "c"],
            timeout=30.0, retries=1, stats=stats,
        )
        assert results == ["a", "b", "c"]  # no duplicate, no shift
        assert stats.timeouts == 0
        assert stats.retries == 0

    def test_real_timeout_still_enforced_after_race_fix(self):
        # The disarm-before-append fix must not weaken genuine
        # in-task timeout enforcement.
        stats = ExecutorStats()
        results = run_tasks(
            [lambda: time.sleep(0.05) or "slow", lambda: "fast"],
            timeout=5.0, retries=0, stats=stats,
        )
        assert results == ["slow", "fast"]
        assert stats.timeouts == 0


class TestTimeoutValidation:
    """A timeout must be ``None`` or a finite number > 0, on every
    backend: zero and NaN used to mean no limit, and -1 raised a raw
    ``setitimer`` error serially but timed out every task in workers."""

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    @pytest.mark.parametrize("timeout", [-1, 0, float("nan"), float("inf")])
    def test_bad_timeout_rejected(self, timeout, jobs):
        stats = ExecutorStats()
        with pytest.raises(ExecutorError, match="timeout must be"):
            run_tasks(square_tasks(2), jobs=jobs, timeout=timeout, stats=stats)
        assert stats.tasks == 0


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_available_cpus(self):
        assert resolve_jobs(0) == available_cpus()
        assert resolve_jobs(None) == available_cpus()

    def test_affinity_mask_caps_the_default(self, monkeypatch):
        # A cgroup/taskset mask of 2 CPUs on an 8-core machine must
        # yield 2 workers, not 8.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert available_cpus() == 2
        assert resolve_jobs(0) == 2
        assert resolve_jobs(None) == 2
        assert resolve_jobs(6) == 6  # explicit requests pass through

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity fall back to cpu_count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert available_cpus() == 5
        assert resolve_jobs(0) == 5

    def test_empty_affinity_or_cpu_count_means_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1


@needs_fork
class TestProcessBackend:
    def test_matches_serial_bit_for_bit(self):
        # Numpy payloads with per-task derived state, as in real sweeps.
        def make(i):
            def task():
                rng = np.random.default_rng(1000 + i)
                return rng.integers(0, 1 << 30, size=8)

            return task

        tasks = [make(i) for i in range(23)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=4)
        assert all(np.array_equal(a, b) for a, b in zip(serial, parallel))

    def test_runs_in_worker_processes(self):
        pids = run_tasks([os.getpid for _ in range(16)], jobs=3)
        assert os.getpid() not in pids
        assert len(set(pids)) > 1

    def test_closures_inherited_without_pickling(self):
        # Lambdas over local state cannot be pickled; fork inheritance
        # is what lets experiment factories cross into workers.
        payload = {"offset": 17}
        results = run_tasks(
            [lambda i=i: payload["offset"] + i for i in range(8)], jobs=2
        )
        assert results == [17 + i for i in range(8)]

    def test_task_exception_reported(self):
        def boom():
            raise ValueError("deterministic failure")

        with pytest.raises(ExecutorError, match="deterministic failure"):
            run_tasks([boom, lambda: 1], jobs=2)

    def test_crashed_worker_is_retried(self, tmp_path):
        flag = tmp_path / "crashed-once"

        def crashy():
            if not flag.exists():
                flag.touch()
                os._exit(13)  # simulate a segfaulting worker
            return 42

        stats = ExecutorStats()
        results = run_tasks([crashy, lambda: 7], jobs=2, retries=1, stats=stats)
        assert results == [42, 7]
        assert stats.crashes == 1
        assert stats.retries == 1

    def test_persistent_crash_exhausts_retries(self):
        def crashy():
            os._exit(13)

        stats = ExecutorStats()
        with pytest.raises(ExecutorError, match="crash after 2 attempts"):
            run_tasks([crashy, lambda: 7], jobs=2, retries=1, stats=stats)
        assert stats.crashes == 2

    def test_hung_task_times_out(self):
        stats = ExecutorStats()
        start = time.perf_counter()
        with pytest.raises(ExecutorError, match="timeout"):
            run_tasks(
                [lambda: time.sleep(60), lambda: 2],
                jobs=2, timeout=0.3, retries=0, stats=stats,
            )
        assert time.perf_counter() - start < 10  # did not wedge
        assert stats.timeouts == 1

    def test_stats_accounting(self):
        stats = ExecutorStats()
        run_tasks(square_tasks(20), jobs=4, stats=stats)
        assert stats.tasks == 20
        assert stats.backend == "process"
        assert stats.workers == 4
        assert 0.0 <= stats.utilization <= 1.0
        assert "backend=process" in stats.summary()


@needs_fork
class TestWorkerInterrupts:
    """Regression: ``_worker_main`` used to catch ``BaseException``.

    A Ctrl-C (or an explicit ``sys.exit``) inside a task was swallowed
    and forwarded to the parent as an ordinary error payload, so the
    worker kept running instead of dying — interrupts must terminate
    the worker, not masquerade as task failures.
    """

    def _drive_worker(self, task):
        # Run _worker_main in-process against a primed pipe: one chunk
        # holding task 0, then the shutdown sentinel.
        parent_conn, child_conn = mp.get_context("fork").Pipe()
        parent_conn.send([0])
        parent_conn.send(None)
        try:
            executor_mod._worker_main(child_conn, [task])
        finally:
            parent_conn.close()
            child_conn.close()

    def test_worker_main_reraises_keyboard_interrupt(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._drive_worker(interrupted)

    def test_worker_main_reraises_system_exit(self):
        def exiting():
            raise SystemExit(3)

        with pytest.raises(SystemExit):
            self._drive_worker(exiting)

    def test_worker_main_still_forwards_ordinary_errors(self):
        parent_conn, child_conn = mp.get_context("fork").Pipe()
        parent_conn.send([0])
        parent_conn.send(None)

        def boom():
            raise ValueError("plain failure")

        executor_mod._worker_main(child_conn, [boom])
        status, index, message, duration = parent_conn.recv()
        parent_conn.close()
        child_conn.close()
        assert (status, index) == ("err", 0)
        assert "plain failure" in message
        assert duration >= 0.0

    def test_interrupted_worker_terminates_pool_cleanly(self):
        # End-to-end: the interrupt kills the worker, the parent sees a
        # crash (not an "err" result), and shutdown leaves no children.
        def interrupted():
            raise KeyboardInterrupt

        stats = ExecutorStats()
        with pytest.raises(ExecutorError, match="crash after 1 attempts"):
            run_tasks(
                [interrupted, lambda: 1], jobs=2, retries=0, stats=stats
            )
        assert stats.crashes == 1
        assert mp.active_children() == []
