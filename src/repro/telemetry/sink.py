"""Process-safe structured event sink (JSONL spans/counters/gauges).

One *activation* (see :func:`activate` / :func:`session`) creates a run
directory ``<root>/<run_id>/`` holding

* ``manifest.json`` — who/what/where of the run: engine version, git
  revision, host info, Python version, argv, plus whatever the caller
  records (root seed, experiment ids, RunConfig fingerprint);
* ``events.jsonl`` — one JSON record per line, appended under an
  exclusive lock (:func:`repro.locking.locked_append`) so forked
  executor workers can write concurrently without interleaving.

Records carry a monotonic offset ``t`` (seconds since activation — the
base survives ``os.fork``, so worker timestamps are comparable to the
parent's), the writing ``pid``, and one of four shapes:

* ``span``    — a measured duration (``dur``) with free-form ``attrs``;
* ``counter`` — an additive quantity (cache hits, bytes written);
* ``gauge``   — a sampled level (per-generation best fitness);
* ``event``   — a point occurrence (worker spawned, run ended).

Determinism contract: telemetry is strictly *write-only* observability.
Nothing in this module is consulted by the engine, so reports are
byte-identical with telemetry on or off (the determinism CI gate proves
it), and when no sink is active the instrumentation hot paths reduce to
one ``get_sink() is None`` check.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro._version import __version__
from repro.errors import TelemetryError

__all__ = [
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "activate",
    "bound_session",
    "deactivate",
    "default_telemetry_dir",
    "get_sink",
    "session",
]

#: Version stamp written into every manifest; bumped when the event or
#: manifest shape changes incompatibly.
TELEMETRY_SCHEMA = 1

#: Environment variable overriding the default telemetry root.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"


def default_telemetry_dir() -> Path:
    """``$REPRO_TELEMETRY_DIR`` if set, else ``.repro-telemetry`` in the cwd."""
    env = os.environ.get(TELEMETRY_DIR_ENV)
    return Path(env) if env else Path(".repro-telemetry")


def _git_rev() -> str | None:
    """Current git revision, resolved by file inspection (no subprocess).

    Walks up from the cwd to the repository root, follows ``HEAD``
    through one level of symbolic ref, and falls back to
    ``packed-refs``.  Returns ``None`` when there is no repository or
    anything about its layout surprises us — a manifest field, not a
    correctness input.
    """
    try:
        for parent in [Path.cwd(), *Path.cwd().parents]:
            git = parent / ".git"
            if not git.is_dir():
                continue
            head = (git / "HEAD").read_text().strip()
            if not head.startswith("ref: "):
                return head or None
            ref = head[5:].strip()
            ref_path = git / ref
            if ref_path.is_file():
                return ref_path.read_text().strip() or None
            packed = git / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
            return None
    except OSError:
        pass
    return None


def _host_info() -> dict:
    import platform

    from repro.engine.executor import available_cpus  # lazy: avoids a cycle

    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": available_cpus(),
    }


class TelemetrySink:
    """Event writer bound to one run directory.

    The sink keeps no open handles between events — each emit opens,
    locks, appends one line, and closes — so a single instance is safe
    to share across ``os.fork`` exactly like
    :class:`~repro.cache.store.CacheStore`.
    """

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.run_dir / "events.jsonl"
        self.manifest_path = self.run_dir / "manifest.json"
        self._t0 = time.monotonic()

    # -- record plumbing -------------------------------------------------

    def emit(self, record: dict) -> None:
        """Append one raw record (``t``/``pid`` added) as a locked write."""
        from repro.locking import locked_append

        record = dict(
            record, t=round(time.monotonic() - self._t0, 6), pid=os.getpid()
        )
        data = (json.dumps(record, sort_keys=True, default=str) + "\n").encode(
            "utf-8"
        )
        locked_append(self.events_path, data)

    # -- typed records ---------------------------------------------------

    def span_event(self, name: str, dur: float, **attrs) -> None:
        """Record an externally measured duration (seconds)."""
        self.emit({"ev": "span", "name": name, "dur": round(dur, 6),
                   "attrs": attrs})

    @contextmanager
    def span(self, name: str, **attrs):
        """Measure the ``with`` body as a span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.span_event(name, time.perf_counter() - t0, **attrs)

    def counter(self, name: str, value: int | float = 1, **attrs) -> None:
        """Record an additive quantity (summed by the summarizer)."""
        self.emit({"ev": "counter", "name": name, "value": value,
                   "attrs": attrs})

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record a sampled level (tracked as a series by the summarizer)."""
        self.emit({"ev": "gauge", "name": name, "value": value,
                   "attrs": attrs})

    def event(self, name: str, **attrs) -> None:
        """Record a point occurrence."""
        self.emit({"ev": "event", "name": name, "attrs": attrs})

    # -- manifest --------------------------------------------------------

    def write_manifest(self, **fields) -> dict:
        """Write ``manifest.json`` (schema + environment + ``fields``)."""
        manifest = {
            "telemetry_schema": TELEMETRY_SCHEMA,
            "run_id": self.run_dir.name,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "engine_version": __version__,
            "git_rev": _git_rev(),
            "host": _host_info(),
            "argv": list(sys.argv),
            **fields,
        }
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
        )
        return manifest


# --------------------------------------------------------------------------
# module-level current sink (inherited by forked workers)

_SINK: TelemetrySink | None = None


def get_sink() -> TelemetrySink | None:
    """The active sink, or ``None`` when telemetry is off.

    This is the whole disabled-path overhead: every instrumentation
    site does ``sink = get_sink()`` followed by an ``is None`` check.
    """
    return _SINK


def _worker_share_info() -> tuple[str, float] | None:
    """Internal: what a pool worker needs to adopt the active sink.

    Fork-per-call workers inherit the sink (object *and* monotonic
    base) at fork time; a persistent pool worker was forked before the
    current session existed, so the parent ships ``(run_dir, t0)``
    alongside every task chunk instead.  ``time.monotonic`` is
    CLOCK_MONOTONIC — comparable across processes on one host — so the
    worker's ``t`` offsets line up with the parent's.
    """
    if _SINK is None:
        return None
    return (str(_SINK.run_dir), _SINK._t0)


def _worker_adopt(info: tuple[str, float] | None) -> None:
    """Internal: bind this (pool worker) process to the parent's sink.

    ``None`` deactivates without emitting ``run.end`` — the run is the
    parent's, the worker merely contributes events to it.
    """
    global _SINK
    if info is None:
        _SINK = None
        return
    run_dir, t0 = info
    if _SINK is not None and str(_SINK.run_dir) == run_dir:
        _SINK._t0 = t0
        return
    sink = TelemetrySink(run_dir)
    sink._t0 = t0
    _SINK = sink


def _new_run_dir(root: Path) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"{stamp}-{os.getpid()}"
    for suffix in ("", *(f"-{k}" for k in range(2, 100))):
        candidate = root / (base + suffix)
        try:
            candidate.mkdir(parents=True, exist_ok=False)
            return candidate
        except FileExistsError:
            continue
    raise TelemetryError(f"could not allocate a run directory under {root}")


def activate(
    directory: str | Path | None = None, manifest: dict | None = None
) -> TelemetrySink:
    """Open a new run under ``directory`` and make it the active sink.

    ``directory`` defaults to :func:`default_telemetry_dir`.  Any
    previously active sink is closed first.  ``manifest`` fields are
    merged into the run manifest (seed root, experiment ids, RunConfig
    fingerprint, ...).
    """
    global _SINK
    if _SINK is not None:
        deactivate()
    root = Path(directory) if directory is not None else default_telemetry_dir()
    sink = TelemetrySink(_new_run_dir(root))
    sink.write_manifest(**(manifest or {}))
    sink.event("run.start")
    _SINK = sink
    return sink


def deactivate() -> None:
    """Close the active sink (emits ``run.end``); no-op when inactive."""
    global _SINK
    sink, _SINK = _SINK, None
    if sink is not None:
        sink.event("run.end")


@contextmanager
def session(directory: str | Path | None = None, manifest: dict | None = None):
    """Context-managed :func:`activate` / :func:`deactivate` pair."""
    sink = activate(directory, manifest)
    try:
        yield sink
    finally:
        if _SINK is sink:
            deactivate()


@contextmanager
def bound_session(run_dir: str | Path, manifest: dict | None = None):
    """A session at an *explicit* run directory (no timestamp naming).

    :func:`session` allocates ``<root>/<timestamp>-<pid>``; callers
    that need an addressable run — the sweep service binds one run per
    job id so clients can tail it — pass the exact directory here
    instead.  Same manifest and ``run.start``/``run.end`` discipline.
    """
    global _SINK
    if _SINK is not None:
        deactivate()
    sink = TelemetrySink(run_dir)
    sink.write_manifest(**(manifest or {}))
    sink.event("run.start")
    _SINK = sink
    try:
        yield sink
    finally:
        if _SINK is sink:
            deactivate()
