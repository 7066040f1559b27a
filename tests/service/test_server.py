"""End-to-end tests for the HTTP server and client library.

A real server on a real ephemeral socket, driven by the real client —
no mocked transports — because the contract under test is precisely
the wire behavior: byte-identity of results over HTTP, dedupe across
concurrent client connections, streaming progress, and honest error
statuses.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import ServiceError
from repro.experiments.registry import RunConfig, run_experiment
from repro.service import JobManager, JobSpec, ServiceClient, ServiceServer
from repro.service import jobs
from repro.store import report_to_bytes

pytestmark = pytest.mark.service


@contextmanager
def _serving(manager):
    """A live server for ``manager`` on an ephemeral port, run by a
    thread; yields ``(url, loop)`` and closes the manager on exit."""
    holder: dict = {}
    ready = threading.Event()

    def run():
        async def main():
            server = ServiceServer(manager)
            await server.start()
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not come up"
    try:
        yield holder["server"].url, holder["loop"]
    finally:
        # Cancel from inside the loop: cancelling task by task from
        # this thread raced the loop's shutdown once the first cancel
        # ended ``main`` ("Event loop is closed").
        def cancel_all():
            for task in asyncio.all_tasks():
                task.cancel()

        holder["loop"].call_soon_threadsafe(cancel_all)
        thread.join(timeout=10)
        manager.close()


@pytest.fixture
def service(tmp_path):
    """A live server+manager on an ephemeral port; yields its URL."""
    manager = JobManager(
        cache_dir=tmp_path / "cache", telemetry_root=tmp_path / "tel"
    )
    with _serving(manager) as (url, _):
        yield url, manager


class TestEndToEnd:
    def test_health(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            health = client.health()
        assert health["ok"] is True
        assert "E1" in health["experiments"]
        assert health["counters"]["submitted"] == 0

    def test_submit_wait_result_byte_identity(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            job = client.submit("E1", seed=11, wait=True, timeout=120)
            assert job["state"] == "completed"
            body = client.result(job["job_id"])
        reference = report_to_bytes(
            run_experiment("E1", RunConfig(seed=11, quick=True))
        )
        assert body == reference  # the HTTP body IS the --save file

    def test_concurrent_clients_dedupe_to_one_execution(self, service):
        url, manager = service
        results: list[bytes] = []
        errors: list[Exception] = []

        def one_client():
            try:
                with ServiceClient(url) as client:
                    job = client.submit("E1", seed=11, wait=True, timeout=120)
                    results.append(client.result(job["job_id"]))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one_client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 6
        assert len(set(results)) == 1  # everyone got identical bytes
        assert manager.executed == 1  # but the work ran once
        assert manager.deduped == 5
        record = manager.get(next(iter(manager.list_jobs())).job_id)
        # Cache misses are per trial: one per trial that ran.
        assert record.stats["cache_misses"] == record.stats["batch_trials"]

    def test_status_and_jobs_listing(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            job = client.submit("E1", seed=11, wait=True, timeout=120)
            status = client.status(job["job_id"])
            jobs = client.jobs()
        assert status["state"] == "completed"
        assert status["spec"] == {"experiment": "E1", "seed": 11, "quick": True}
        assert [j["job_id"] for j in jobs] == [job["job_id"]]

    def test_events_stream_ends_after_job(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            job = client.submit("E1", seed=11, wait=True, timeout=120)
            events = list(client.events(job["job_id"]))
        job_records = [e for e in events if e.get("ev") == "job"]
        assert job_records[-1]["state"] == "completed"
        names = {e.get("name") for e in events}
        assert "run.start" in names  # telemetry relayed on the stream
        assert "run.end" in names

    def test_events_stream_during_execution(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            job = client.submit("E1", seed=23)  # no wait: still queued
            states = []
            for event in client.events(job["job_id"]):
                if event.get("ev") == "job":
                    states.append(event["state"])
        assert states[-1] == "completed"
        assert states == sorted(
            states, key=["queued", "running", "completed"].index
        )

    def test_result_without_wait_conflicts_while_running(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            job = client.submit("E1", seed=31)
            try:
                client.result(job["job_id"], wait=False)
            except ServiceError as exc:
                assert "409" in str(exc)
            # and with wait it arrives
            assert client.result(job["job_id"], wait=True, timeout=120)


class TestErrorStatuses:
    def test_unknown_job_is_404(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="404"):
                client.status("feedfacedeadbeef")

    def test_bad_spec_is_400(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="400"):
                client.submit("E99")

    def test_unknown_path_is_404(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="404"):
                client._json("GET", "/v2/nope")

    def test_wrong_method_is_405(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="405"):
                client._json("POST", "/v1/health", payload={})

    @pytest.mark.parametrize(
        "payload",
        [{"experiment": 5}, {"experiment": None}, [1, 2]],
        ids=["int-experiment", "null-experiment", "array-body"],
    )
    def test_malformed_job_body_is_400(self, service, payload):
        # These used to reach get_experiment / dict.pop and answer 500.
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="-> 400: "):
                client._json("POST", "/v1/jobs", payload=payload)

    def test_unknown_spec_fields_rejected(self, service):
        url, _ = service
        with ServiceClient(url) as client:
            with pytest.raises(ServiceError, match="unknown job spec"):
                client._json(
                    "POST", "/v1/jobs",
                    payload={"experiment": "E1", "jobs": 8},
                )

    def test_malformed_json_body_is_400(self, service):
        url, _ = service
        import http.client

        split = ServiceClient(url)
        conn = http.client.HTTPConnection(split.host, split.port, timeout=30)
        conn.request(
            "POST", "/v1/jobs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "not JSON" in body["error"]


def _raw_exchange(url: str, request: bytes) -> tuple[int, dict]:
    """Send raw bytes, read until the server closes; (status, JSON body)."""
    client = ServiceClient(url)
    with socket.create_connection((client.host, client.port), timeout=30) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head, "server closed without replying"
    return int(head.split()[1]), json.loads(body)


class TestRequestParseErrors:
    """Unparsable requests get a JSON error reply, then the server closes."""

    def test_oversized_body_is_413(self, service):
        url, _ = service
        status, body = _raw_exchange(
            url, b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"
        )
        assert status == 413
        assert "exceeds" in body["error"]

    def test_malformed_request_line_is_400(self, service):
        url, _ = service
        status, body = _raw_exchange(url, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert "malformed request line" in body["error"]

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, service, length):
        url, _ = service
        status, body = _raw_exchange(
            url,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]


def _open_handlers(loop) -> int:
    """Connection handlers still running on the server's event loop."""

    async def count():
        return sum(
            task.get_coro().__qualname__ == "ServiceServer._handle_connection"
            for task in asyncio.all_tasks()
        )

    return asyncio.run_coroutine_threadsafe(count(), loop).result(10)


class TestAbandonedStream:
    def test_leaving_an_idle_stream_ends_its_handler(self, tmp_path, monkeypatch):
        """Without job telemetry the stream writes nothing between job
        state changes, so no failed write tells the server its client
        left; the handler must notice the closed read side itself."""
        self._leave_idle_stream(tmp_path, monkeypatch, reset=False)

    def test_resetting_an_idle_stream_ends_its_handler(
        self, tmp_path, monkeypatch
    ):
        """A client that closes with unread data sends a reset, not a
        FIN: the read side then holds an error instead of EOF."""
        self._leave_idle_stream(tmp_path, monkeypatch, reset=True)

    @staticmethod
    def _leave_idle_stream(tmp_path, monkeypatch, reset: bool) -> None:
        release = threading.Event()

        def blocked_run(eid, config):
            release.wait(60)
            raise RuntimeError("released by the test")

        monkeypatch.setattr(jobs, "run_experiment", blocked_run)
        manager = JobManager(cache_dir=tmp_path / "cache", telemetry_root=None)
        with _serving(manager) as (url, loop):
            try:
                record = manager.submit(JobSpec("E6"))
                # Running, so the stream has no state change left to
                # write: only the read side can tell the client left.
                deadline = time.monotonic() + 10
                while record.state != "running" and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert record.state == "running"
                client = ServiceClient(url)
                with socket.create_connection(
                    (client.host, client.port), timeout=30
                ) as sock:
                    sock.sendall(
                        f"GET /v1/jobs/{record.job_id}/events HTTP/1.1\r\n\r\n"
                        .encode("latin-1")
                    )
                    assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                    if reset:  # close with a reset (linger on, timeout 0)
                        sock.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0),
                        )
                deadline = time.monotonic() + 5
                while _open_handlers(loop) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert _open_handlers(loop) == 0
                assert not record.done.is_set()  # the job is still running
            finally:
                release.set()


@contextmanager
def _serve_process(cache_dir):
    """``repro-bcast serve`` as a child process with one serial job
    runner and no telemetry; yields ``(process, url)``, kills it on exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "1", "--no-telemetry", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            yield proc, line.split()[-1]
        finally:
            proc.kill()


def _cache_records(cache_dir) -> int:
    return sum(p.read_bytes().count(b"\n") for p in cache_dir.rglob("*.jsonl"))


class TestServerKilledMidJob:
    def test_restart_over_the_same_cache_resumes(self, tmp_path):
        """SIGKILL the server once the job's first cache record lands;
        a new server over the same directory serves the finished cells
        from disk, runs the rest and returns the cold run's bytes."""
        cache = tmp_path / "cache"
        with _serve_process(cache) as (proc, url):
            with ServiceClient(url) as client:
                client.submit("E2", seed=5)  # no wait: returns at once
            deadline = time.monotonic() + 120
            while not _cache_records(cache):
                assert proc.poll() is None, "server exited on its own"
                assert time.monotonic() < deadline, "no cache record landed"
                time.sleep(0.01)
            proc.kill()
            proc.wait(30)
        with _serve_process(cache) as (_, url):
            with ServiceClient(url) as client:
                job = client.submit("E2", seed=5, wait=True, timeout=300)
                body = client.result(job["job_id"])

        cold = RunConfig(seed=5, quick=True, cache=True, cache_dir=tmp_path / "cold")
        assert body == report_to_bytes(run_experiment("E2", cold))
        stats = job["stats"]
        assert stats["cache_hits"] >= 1  # cells finished before the kill
        assert stats["cache_misses"] >= 1  # the kill landed mid-job
        assert (
            stats["cache_hits"] + stats["cache_misses"]
            == cold.stats.cache_misses
        )
