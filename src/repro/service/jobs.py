"""Job model, dedupe index, and single-runner job queue for the service.

A *job* is one experiment run the service has been asked for:
``(experiment, seed, quick)`` — exactly the science-determining fields
of :class:`~repro.experiments.registry.RunConfig`, and therefore
exactly what :meth:`RunConfig.fingerprint` hashes.  That digest **is**
the job id, which makes deduplication structural instead of
bookkeeping: two clients asking for the same science compute the same
id and land on the same :class:`JobRecord`, whether the first request
is still queued, currently running, or long finished.  Execution knobs
(worker count, batch size, cache location) belong to the
:class:`JobManager`, not the job — they cannot change the bytes of the
answer, so they must not split the dedupe index.

The manager runs jobs **one at a time** on a single daemon thread.
That is a deliberate shape, not a missing feature: each job already
fans out across the manager's persistent
:class:`~repro.engine.executor.WorkerPool`, so job-level concurrency
would just make two sweeps fight over the same cores — and a strictly
serial runner keeps the per-job telemetry story trivial (the process's
telemetry sink is job-bound while the job runs).  Concurrency lives at
the *request* layer: any number of clients submit, dedupe, poll, and
stream concurrently; only the cache-miss computation is serialized.

Results are held as the exact bytes :func:`repro.store.save_report`
would write (see :func:`repro.store.report_to_bytes`), so a client that
saves a fetched result to disk produces a file byte-identical to a CLI
``run --save`` of the same config — the property the service CI gate
diffs for.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.executor import WorkerPool
from repro.errors import ConfigurationError, ServiceError
from repro.experiments.registry import (
    DEFAULT_BATCH,
    RunConfig,
    get_experiment,
    run_experiment,
)
from repro.store import report_to_bytes

__all__ = ["JobManager", "JobRecord", "JobSpec", "JobState"]


class JobState:
    """Lifecycle states (plain strings — they travel through JSON)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """The science a client is asking for: one experiment run.

    Frozen and minimal on purpose — anything that cannot change the
    report bytes has no business in here (it would fracture dedupe).
    """

    experiment: str
    seed: int = 0
    quick: bool = True

    def __post_init__(self) -> None:
        # Validate and canonicalize the id eagerly so two spellings of
        # one experiment ("e1"/"E1") cannot mint two jobs.
        if not isinstance(self.experiment, str):
            raise ServiceError(
                f"experiment must be a string, got {self.experiment!r}"
            )
        eid = get_experiment(self.experiment).eid
        object.__setattr__(self, "experiment", eid)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ServiceError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.quick, bool):
            raise ServiceError(f"quick must be a boolean, got {self.quick!r}")

    @property
    def job_id(self) -> str:
        """The config fingerprint — dedupe key and public job id."""
        return RunConfig(
            seed=self.seed, quick=self.quick, experiment=self.experiment
        ).fingerprint()

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "quick": self.quick,
        }

    @classmethod
    def from_dict(cls, data: dict) -> JobSpec:
        if not isinstance(data, dict):
            raise ServiceError(f"job spec must be an object, got {data!r}")
        unknown = set(data) - {"experiment", "seed", "quick"}
        if unknown:
            raise ServiceError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        if "experiment" not in data:
            raise ServiceError("job spec is missing 'experiment'")
        return cls(
            experiment=data["experiment"],
            seed=data.get("seed", 0),
            quick=data.get("quick", True),
        )


@dataclass
class JobRecord:
    """One deduped unit of work and everything known about it."""

    spec: JobSpec
    job_id: str
    state: str = JobState.QUEUED
    submissions: int = 1
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    result_bytes: bytes | None = None
    stats: dict | None = None
    telemetry_dir: str | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def to_dict(self) -> dict:
        """JSON status view (never includes the result payload)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "submissions": self.submissions,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "elapsed": (
                None if self.started is None
                else (self.finished or time.time()) - self.started
            ),
            "error": self.error,
            "stats": self.stats,
            "telemetry_dir": self.telemetry_dir,
        }


class JobManager:
    """Dedupe index + FIFO queue + single runner thread.

    All public methods are thread-safe; ``submit``/``get``/``wait`` are
    called from many server-side request handlers concurrently while
    the runner thread executes jobs.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        batch: int = DEFAULT_BATCH,
        cache_dir: str | Path | None = None,
        telemetry_root: str | Path | None = None,
        memory_entries: int | None = None,
    ) -> None:
        from repro.cache import CacheStore, ReadThroughStore, default_cache_dir
        from repro.cache.memory import DEFAULT_MEMORY_ENTRIES

        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.jobs = jobs
        self.batch = batch
        self.store = ReadThroughStore(
            CacheStore(cache_dir if cache_dir is not None else default_cache_dir()),
            max_entries=(
                DEFAULT_MEMORY_ENTRIES if memory_entries is None else memory_entries
            ),
        )
        # One long-lived pool shared by every job: workers are spawned
        # once and reused, so back-to-back jobs skip the fork storm.
        # jobs=1 runs serially in the runner thread; no pool needed.
        self.pool = WorkerPool(jobs) if jobs != 1 else None
        self.telemetry_root = (
            Path(telemetry_root) if telemetry_root is not None else None
        )
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._closed = False
        self.submitted = 0   # submit() calls accepted
        self.deduped = 0     # of those, absorbed by an existing record
        self.executed = 0    # jobs actually run by the runner thread
        self.failed = 0
        self._runner = threading.Thread(
            target=self._run_loop, name="repro-service-runner", daemon=True
        )
        self._runner.start()

    # -- public API ------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue (or join) the job for ``spec``; returns its record.

        A spec whose fingerprint matches a queued, running, or
        completed job joins that job — ``submissions`` counts how many
        requests the record absorbed.  A previously *failed* job is
        re-enqueued: failures are environmental (a killed worker, a
        full disk), never a property of the spec, so retrying on
        explicit resubmission is the honest policy.
        """
        job_id = spec.job_id
        with self._lock:
            if self._closed:
                raise ServiceError("job manager is closed")
            self.submitted += 1
            record = self._records.get(job_id)
            if record is not None and record.state != JobState.FAILED:
                record.submissions += 1
                self.deduped += 1
                return record
            if record is not None:  # failed: reset and retry
                record.submissions += 1
                record.state = JobState.QUEUED
                record.error = None
                record.done.clear()
            else:
                record = JobRecord(spec=spec, job_id=job_id)
                self._records[job_id] = record
            self._queue.put(job_id)
            return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return record

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job finishes (either way); returns its record."""
        record = self.get(job_id)
        if not record.done.wait(timeout):
            raise ServiceError(
                f"job {job_id} did not finish within {timeout}s"
            )
        return record

    def list_jobs(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.created)

    def counters(self) -> dict:
        """Service-level accounting: dedupe, execution, cache, pool."""
        with self._lock:
            out = {
                "submitted": self.submitted,
                "deduped": self.deduped,
                "executed": self.executed,
                "failed": self.failed,
                "jobs_known": len(self._records),
                "queue_depth": self._queue.qsize(),
            }
        out["cache"] = self.store.counters()
        if self.pool is not None:
            out["pool"] = {
                "jobs": self.pool.jobs,
                "alive_workers": self.pool.alive_workers,
                "spawned_total": self.pool.spawned_total,
            }
        return out

    def close(self) -> None:
        """Stop the runner thread and release the worker pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._runner.join(timeout=30.0)
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> JobManager:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- runner thread ---------------------------------------------------

    def _job_config(self, spec: JobSpec) -> RunConfig:
        return RunConfig(
            seed=spec.seed,
            quick=spec.quick,
            jobs=self.jobs,
            batch=self.batch,
            cache=True,
            cache_store=self.store,
            pool=self.pool,
        )

    def _run_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            record = self._records[job_id]
            with self._lock:
                record.state = JobState.RUNNING
                record.started = time.time()
            try:
                self._execute(record)
            except BaseException as exc:  # a job must never kill the loop
                with self._lock:
                    record.state = JobState.FAILED
                    record.error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    record.finished = time.time()
                    self.failed += 1
            finally:
                record.done.set()

    def _execute(self, record: JobRecord) -> None:
        cfg = self._job_config(record.spec)
        if self.telemetry_root is not None:
            from repro.telemetry.sink import bound_session

            run_dir = self.telemetry_root / record.job_id
            with bound_session(
                run_dir,
                manifest={
                    "command": "service.job",
                    "experiments": [record.spec.experiment],
                    "seed": record.spec.seed,
                    "quick": record.spec.quick,
                    "config_fingerprint": record.job_id,
                },
            ):
                with self._lock:
                    record.telemetry_dir = str(run_dir)
                report = run_experiment(record.spec.experiment, cfg)
        else:
            report = run_experiment(record.spec.experiment, cfg)
        with self._lock:
            record.result_bytes = report_to_bytes(report)
            record.stats = dataclasses.asdict(cfg.stats)
            record.state = JobState.COMPLETED
            record.finished = time.time()
            self.executed += 1
