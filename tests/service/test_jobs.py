"""Tests for the job model and manager: dedupe, execution, accounting.

The load-bearing test here is the ISSUE's acceptance property: N
identical concurrent submissions cost exactly one executed task set,
proven from the executor's own accounting (``ExecutorStats``) and the
cache's put counters rather than from the manager's say-so.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.experiments.registry import RunConfig, run_experiment
from repro.service import JobManager, JobSpec, JobState
from repro.store import report_to_bytes

pytestmark = pytest.mark.service


class TestJobSpec:
    def test_canonicalizes_experiment_id(self):
        assert JobSpec("e1").experiment == "E1"
        assert JobSpec("e1", seed=4).job_id == JobSpec("E1", seed=4).job_id

    def test_job_id_is_the_config_fingerprint(self):
        spec = JobSpec("E1", seed=11, quick=True)
        expected = RunConfig(
            seed=11, quick=True, experiment="E1"
        ).fingerprint()
        assert spec.job_id == expected

    def test_rejects_unknown_experiment(self):
        with pytest.raises(Exception, match="unknown experiment"):
            JobSpec("E99")

    def test_rejects_bad_types(self):
        with pytest.raises(ServiceError, match="seed"):
            JobSpec("E1", seed="7")
        with pytest.raises(ServiceError, match="seed"):
            JobSpec("E1", seed=True)  # bool is not an acceptable seed
        with pytest.raises(ServiceError, match="quick"):
            JobSpec("E1", quick="yes")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown job spec field"):
            JobSpec.from_dict({"experiment": "E1", "jobs": 4})
        with pytest.raises(ServiceError, match="missing 'experiment'"):
            JobSpec.from_dict({"seed": 1})

    def test_round_trip(self):
        spec = JobSpec("E1", seed=3, quick=False)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestJobManager:
    def test_executes_and_result_matches_direct_run(self, tmp_path):
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            record = mgr.submit(JobSpec("E1", seed=11))
            record = mgr.wait(record.job_id, timeout=120)
        assert record.state == JobState.COMPLETED
        reference = report_to_bytes(
            run_experiment("E1", RunConfig(seed=11, quick=True))
        )
        assert record.result_bytes == reference

    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        # The acceptance property: dedupe proven from ExecutorStats and
        # cache counters, not the manager's own bookkeeping.
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            spec = JobSpec("E1", seed=11)
            records = []

            def submit():
                records.append(mgr.submit(spec))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            record = mgr.wait(spec.job_id, timeout=120)

            assert len({id(r) for r in records}) == 1  # one shared record
            assert record.submissions == 8
            assert mgr.executed == 1
            assert mgr.deduped == 7
            # executor accounting: exactly one task set ran; cache
            # counts are per trial, and a task runs a group of trials
            trials = record.stats["batch_trials"]
            assert record.stats["tasks"] > 0
            assert trials >= record.stats["tasks"]
            assert record.stats["cache_misses"] == trials
            assert record.stats["cache_hits"] == 0
            # cache accounting: every cell was put exactly once
            disk = mgr.store.stats()
            assert disk.entries == trials
            assert disk.unique_keys == trials

    def test_warm_manager_over_same_cache_executes_zero_cells(self, tmp_path):
        # A *fresh* manager (new process, in spirit) over the same
        # cache directory must serve the whole job from cache.
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            cold = mgr.wait(mgr.submit(JobSpec("E1", seed=11)).job_id, 120)
        with JobManager(cache_dir=tmp_path / "cache") as mgr2:
            warm = mgr2.wait(mgr2.submit(JobSpec("E1", seed=11)).job_id, 120)
        assert warm.result_bytes == cold.result_bytes
        assert warm.stats["cache_hits"] == cold.stats["batch_trials"]
        assert warm.stats["cache_misses"] == 0
        assert warm.stats["backend"] == ""  # no executor batch went wide

    def test_different_specs_are_different_jobs(self, tmp_path):
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            a = mgr.submit(JobSpec("E1", seed=1))
            b = mgr.submit(JobSpec("E1", seed=2))
            assert a.job_id != b.job_id
            mgr.wait(a.job_id, 120)
            mgr.wait(b.job_id, 120)
            assert mgr.executed == 2
            assert mgr.deduped == 0

    def test_unknown_job_id(self, tmp_path):
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            with pytest.raises(ServiceError, match="unknown job id"):
                mgr.get("feedfacedeadbeef")

    def test_wait_timeout(self, tmp_path):
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            record = mgr.submit(JobSpec("E1", seed=11))
            with pytest.raises(ServiceError, match="did not finish"):
                mgr.wait(record.job_id, timeout=0.0)
            mgr.wait(record.job_id, timeout=120)

    def test_failed_job_records_error_and_retries_on_resubmit(
        self, tmp_path, monkeypatch
    ):
        import repro.service.jobs as jobs_mod

        calls = {"n": 0}
        real = jobs_mod.run_experiment

        def flaky(eid, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker loss")
            return real(eid, cfg)

        monkeypatch.setattr(jobs_mod, "run_experiment", flaky)
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            record = mgr.wait(mgr.submit(JobSpec("E1", seed=11)).job_id, 120)
            assert record.state == JobState.FAILED
            assert "transient worker loss" in record.error
            assert mgr.failed == 1
            # resubmitting a failed job re-enqueues it
            record = mgr.wait(mgr.submit(JobSpec("E1", seed=11)).job_id, 120)
            assert record.state == JobState.COMPLETED
            assert record.error is None
            assert record.submissions == 2

    def test_rejects_batch_below_one(self, tmp_path):
        # Refused at construction: no worker pool, no runner thread, and
        # no job that could fail later on the bad value.
        with pytest.raises(ConfigurationError, match="batch must be >= 1"):
            JobManager(batch=0, cache_dir=tmp_path / "cache")

    def test_closed_manager_rejects_submissions(self, tmp_path):
        mgr = JobManager(cache_dir=tmp_path / "cache")
        mgr.close()
        with pytest.raises(ServiceError, match="closed"):
            mgr.submit(JobSpec("E1", seed=11))

    def test_per_job_telemetry_run_directory(self, tmp_path):
        from repro.telemetry import read_events

        with JobManager(
            cache_dir=tmp_path / "cache", telemetry_root=tmp_path / "tel"
        ) as mgr:
            record = mgr.wait(mgr.submit(JobSpec("E1", seed=11)).job_id, 120)
        assert record.telemetry_dir == str(tmp_path / "tel" / record.job_id)
        events = read_events(record.telemetry_dir)
        names = {e.get("name") for e in events}
        assert "run.start" in names and "run.end" in names
        assert any(e.get("name") == "executor.batch" for e in events)

    def test_counters_shape(self, tmp_path):
        with JobManager(cache_dir=tmp_path / "cache") as mgr:
            mgr.wait(mgr.submit(JobSpec("E1", seed=11)).job_id, 120)
            counters = mgr.counters()
        assert counters["submitted"] == 1
        assert counters["executed"] == 1
        assert counters["jobs_known"] == 1
        assert counters["cache"]["misses"] > 0
