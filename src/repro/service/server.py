"""Hand-rolled asyncio HTTP/1.1 front end for the job manager.

Stdlib only — the repo's zero-dependency rule covers the service too,
so this module implements the 20 lines of HTTP/1.1 it actually needs
(request line, headers, ``Content-Length`` bodies, chunked responses)
on :func:`asyncio.start_server` instead of importing a framework.  The
protocol surface is deliberately small and JSON-first:

===========================================  ==================================
``GET  /v1/health``                          liveness + counters + experiments
``GET  /v1/jobs``                            all job statuses
``POST /v1/jobs``                            submit a :class:`JobSpec`
                                             (``wait=1`` blocks until done)
``GET  /v1/jobs/<id>``                       one job's status
``GET  /v1/jobs/<id>/result``                the report **bytes**
                                             (``wait=1`` blocks; else 409
                                             while unfinished)
``GET  /v1/jobs/<id>/events``                NDJSON stream: job-state records
                                             interleaved with the job's
                                             telemetry events as they land
===========================================  ==================================

Concurrency model: the event loop owns all sockets; anything that
blocks (waiting for a job) is pushed to the default thread-pool
executor so one slow client cannot stall the others.  Submissions and
status reads are lock-cheap and run inline.

The result endpoint returns :func:`repro.store.report_to_bytes` output
verbatim with no re-serialization, preserving the byte-identity
contract end to end — the response body *is* the ``--save`` file.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.errors import ReproError, ServiceError
from repro.experiments.registry import list_experiments
from repro.service.jobs import JobManager, JobSpec, JobState
from repro.telemetry.follow import read_new_events

__all__ = ["ServiceServer", "serve"]

_MAX_BODY = 1 << 20  # 1 MiB: job specs are tiny; anything bigger is abuse

#: Poll interval for the events stream.  Matches the follow reader's
#: bounded-poll discipline; a no-change poll costs one ``stat``.
_EVENTS_POLL = 0.2


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


class ServiceServer:
    """One listening socket bound to one :class:`JobManager`."""

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port  # 0 = ephemeral; updated once bound
        self._server: asyncio.base_events.Server | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:  # keep-alive: serve requests until EOF/close
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except _HttpError as exc:
                    # An unparsable head or an unread body leaves the
                    # stream out of step: answer, then close.
                    await self._send_json(
                        writer, exc.status, {"error": str(exc)}
                    )
                    return
                if request is None:
                    return
                method, path, query, body = request
                close = await self._dispatch(
                    reader, writer, method, path, query, body
                )
                if close:
                    return
        except (ConnectionError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight handlers; exiting
            # cleanly here keeps task.exception() retrieval quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: server shutdown raced the close
                # handshake; the transport is being torn down anyway.
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        head = await reader.readuntil(b"\r\n\r\n")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"bad Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body of {length} bytes exceeds {_MAX_BODY}")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        return method.upper(), split.path, query, body

    async def _dispatch(
        self, reader, writer, method: str, path: str, query: dict, body: bytes
    ) -> bool:
        """Route one request; returns True when the connection is done."""
        try:
            segments = [s for s in path.split("/") if s]
            if segments[:1] != ["v1"]:
                raise _HttpError(404, f"no such path: {path}")
            rest = segments[1:]
            if rest == ["health"] and method == "GET":
                await self._send_json(writer, 200, self._health())
            elif rest == ["jobs"] and method == "GET":
                await self._send_json(
                    writer, 200,
                    {"jobs": [r.to_dict() for r in self.manager.list_jobs()]},
                )
            elif rest == ["jobs"] and method == "POST":
                await self._post_job(writer, query, body)
            elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
                record = self._record(rest[1])
                await self._send_json(writer, 200, record.to_dict())
            elif (
                len(rest) == 3 and rest[0] == "jobs" and rest[2] == "result"
                and method == "GET"
            ):
                await self._get_result(writer, rest[1], query)
            elif (
                len(rest) == 3 and rest[0] == "jobs" and rest[2] == "events"
                and method == "GET"
            ):
                await self._stream_events(reader, writer, rest[1])
                return True  # stream ends the connection
            elif rest[:1] in (["jobs"], ["health"]):
                raise _HttpError(405, f"{method} not allowed on {path}")
            else:
                raise _HttpError(404, f"no such path: {path}")
        except _HttpError as exc:
            await self._send_json(
                writer, exc.status, {"error": str(exc)}
            )
        except ReproError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            await self._send_json(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        return False

    # -- routes ----------------------------------------------------------

    def _health(self) -> dict:
        return {
            "ok": True,
            "version": __version__,
            "experiments": [e.eid for e in list_experiments()],
            "counters": self.manager.counters(),
        }

    def _record(self, job_id: str):
        try:
            return self.manager.get(job_id)
        except ServiceError as exc:
            raise _HttpError(404, str(exc)) from None

    @staticmethod
    def _truthy(query: dict, key: str) -> bool:
        return query.get(key, "").lower() in ("1", "true", "yes")

    @staticmethod
    def _timeout(query: dict) -> float | None:
        raw = query.get("timeout")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise _HttpError(400, f"bad timeout: {raw!r}") from None

    async def _post_job(self, writer, query: dict, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(
                400,
                "request body must be a JSON object, "
                f"got {type(payload).__name__}",
            )
        wait = self._truthy(query, "wait") or bool(payload.pop("wait", False))
        spec = JobSpec.from_dict(payload)
        record = self.manager.submit(spec)
        if wait:
            record = await self._wait(record.job_id, self._timeout(query))
        await self._send_json(writer, 200, record.to_dict())

    async def _wait(self, job_id: str, timeout: float | None):
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, self.manager.wait, job_id, timeout
            )
        except ServiceError as exc:  # manager timeout
            raise _HttpError(504, str(exc)) from None

    async def _get_result(self, writer, job_id: str, query: dict) -> None:
        record = self._record(job_id)
        if record.state != JobState.COMPLETED and self._truthy(query, "wait"):
            record = await self._wait(job_id, self._timeout(query))
        if record.state == JobState.FAILED:
            raise _HttpError(409, f"job {job_id} failed: {record.error}")
        if record.state != JobState.COMPLETED or record.result_bytes is None:
            raise _HttpError(
                409, f"job {job_id} is {record.state}; pass wait=1 to block"
            )
        await self._send_raw(
            writer, 200, record.result_bytes, "application/json"
        )

    async def _stream_events(self, reader, writer, job_id: str) -> None:
        """Chunked NDJSON: job-state lines + the job's telemetry events.

        Emits a ``{"ev": "job", ...}`` record on every state change and
        relays committed telemetry events (via the same incremental
        reader as ``telemetry tail --follow``) as they land.  Ends with
        the final job record once the job is done and the log is dry,
        or at the first idle poll that finds the client gone.
        """
        record = self._record(job_id)
        await self._start_chunked(writer, "application/x-ndjson")
        offset = 0
        last_state = None
        while True:
            state = record.state
            if state != last_state:
                last_state = state
                await self._send_chunk(
                    writer, {"ev": "job", **record.to_dict()}
                )
            events: list[dict] = []
            if record.telemetry_dir is not None:
                events, offset = read_new_events(
                    f"{record.telemetry_dir}/events.jsonl", offset
                )
                for event in events:
                    await self._send_chunk(writer, event)
            # done is set strictly after the final state lands, and all
            # telemetry is written before that — so "done, final state
            # already emitted, drain came back dry" means fully sent.
            if record.done.is_set() and not events and state == record.state:
                await self._end_chunked(writer)
                return
            if not events:
                # A client that left closed its side with a FIN (EOF)
                # or, with our chunks still unread, a reset (an error).
                if reader.at_eof() or reader.exception() is not None:
                    return
                await asyncio.sleep(_EVENTS_POLL)

    # -- response plumbing ----------------------------------------------

    async def _send_json(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._send_raw(writer, status, body, "application/json")

    async def _send_raw(
        self, writer, status: int, body: bytes, content_type: str
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _start_chunked(self, writer, content_type: str) -> None:
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {content_type}\r\n"
                "Transfer-Encoding: chunked\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()

    async def _send_chunk(self, writer, payload: dict) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    async def _end_chunked(self, writer) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready = None,
) -> None:
    """Run a server until interrupted (the CLI entry point).

    ``ready`` is called with the bound :class:`ServiceServer` once the
    socket is listening — how the CLI prints the ephemeral-port URL
    before blocking.
    """

    async def _main() -> None:
        server = ServiceServer(manager, host, port)
        await server.start()
        if ready is not None:
            ready(server)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
