"""Zero-dependency structured observability for the whole stack.

Resource-competitive experiments are measurements of *spend* — the same
discipline the paper applies to nodes vs. the jammer has to apply to
our own wall-clock and cache budget, or performance work is guesswork.
This package is the measurement substrate: a process-safe JSONL event
sink (:mod:`repro.telemetry.sink`) with span/counter/gauge records and
a per-run manifest, plus readers (:mod:`repro.telemetry.summary`) that
render a human summary from the event log.

Instrumented subsystems (all behind a single ``get_sink() is None``
check when telemetry is off):

* :mod:`repro.engine.executor` — per-task spans with
  attempt/timeout/crash outcome, batch spans, worker lifecycle events;
* :mod:`repro.cache` — hit/miss/byte counters, per-append lock-wait;
* :mod:`repro.engine.simulator` — per-run phase-loop time, its stage
  split and events-per-slot ratio;
* :mod:`repro.arena.search` — per-generation best-fitness gauges.

Enable from the CLI with ``repro-bcast run E1 --telemetry`` (or
``--telemetry DIR``), then ``repro-bcast telemetry summarize``; from
the API, either pass ``RunConfig(telemetry=DIR)`` or wrap calls in
:func:`session`.  Reports stay byte-identical with telemetry on or off
— the determinism CI gate enforces it.
"""

from __future__ import annotations

from repro.telemetry.follow import follow_events, read_new_events
from repro.telemetry.sink import (
    TELEMETRY_DIR_ENV,
    TELEMETRY_SCHEMA,
    TelemetrySink,
    activate,
    bound_session,
    deactivate,
    default_telemetry_dir,
    get_sink,
    session,
)
from repro.telemetry.summary import (
    find_runs,
    latest_run,
    read_events,
    read_manifest,
    resolve_run,
    summarize,
    tail,
)

__all__ = [
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "activate",
    "bound_session",
    "deactivate",
    "default_telemetry_dir",
    "find_runs",
    "follow_events",
    "get_sink",
    "latest_run",
    "read_events",
    "read_manifest",
    "read_new_events",
    "resolve_run",
    "session",
    "summarize",
    "tail",
]
