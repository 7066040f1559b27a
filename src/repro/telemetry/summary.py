"""Readers for telemetry run directories: summarize and tail.

The summarizer is intentionally schema-light: it aggregates whatever
span/counter/gauge/event names the instrumented code emitted, so a new
instrumentation site shows up in ``repro-bcast telemetry summarize``
without touching this module.  Torn trailing lines (a worker killed
mid-append) are skipped exactly as the result cache does.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import TelemetryError

__all__ = [
    "find_runs",
    "latest_run",
    "read_events",
    "read_manifest",
    "resolve_run",
    "summarize",
    "tail",
]


def find_runs(root: str | Path) -> list[Path]:
    """Run directories under ``root``, oldest first.

    Run ids start with a UTC timestamp, so lexicographic order is
    creation order.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and (
            (p / "manifest.json").is_file() or (p / "events.jsonl").is_file()
        )
    )


def latest_run(root: str | Path) -> Path:
    """The most recent run under ``root``; raises when there is none.

    A ``root`` that is itself a run directory (a ``bound_session`` dir,
    e.g. a service job's ``<telemetry_root>/<job_id>``) resolves to
    itself, so ``telemetry summarize|tail --dir`` work on both layouts.
    """
    root = Path(root)
    if (root / "manifest.json").is_file() or (root / "events.jsonl").is_file():
        return root
    runs = find_runs(root)
    if not runs:
        raise TelemetryError(
            f"no telemetry runs under {root} (run with --telemetry first)"
        )
    return runs[-1]


def resolve_run(run: str | Path | None, root: str | Path) -> Path:
    """Map a CLI run argument to a run directory.

    ``None`` means the latest run under ``root``; otherwise ``run`` may
    be a run id under ``root`` or a path to a run directory.
    """
    if run is None:
        return latest_run(root)
    candidate = Path(root) / str(run)
    if candidate.is_dir():
        return candidate
    candidate = Path(run)
    if candidate.is_dir():
        return candidate
    raise TelemetryError(f"no telemetry run {run!r} under {root}")


def read_manifest(run_dir: str | Path) -> dict:
    """The run's manifest, or ``{}`` when it was never written."""
    path = Path(run_dir) / "manifest.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def read_events(run_dir: str | Path) -> list[dict]:
    """Every parseable event record, in file (= append) order."""
    path = Path(run_dir) / "events.jsonl"
    if not path.is_file():
        return []
    events = []
    for line in path.read_bytes().splitlines():
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn append (killed worker); skip
    return events


def _fmt_seconds(s: float) -> float:
    return round(float(s), 6)


def summarize(run_dir: str | Path) -> str:
    """Human summary of one run: manifest header + aggregate tables."""
    from repro.experiments.runner import Table  # lazy: avoids an import cycle

    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    events = read_events(run_dir)

    lines = [f"=== telemetry run {run_dir.name}  ({run_dir})"]
    for key in ("created", "git_rev", "engine_version", "command",
                "experiments", "seed", "config_fingerprint"):
        if key in manifest and manifest[key] is not None:
            lines.append(f"{key}: {manifest[key]}")
    host = manifest.get("host") or {}
    if host:
        lines.append(
            f"host: {host.get('hostname', '?')} "
            f"({host.get('platform', '?')}, python {host.get('python', '?')}, "
            f"{host.get('cpus', '?')} cpus)"
        )
    pids = sorted({e.get("pid") for e in events if "pid" in e})
    lines.append(f"{len(events)} events from {len(pids)} process(es)")
    lines.append("")

    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, list[float]] = {}
    points: dict[str, int] = {}
    for e in events:
        name = e.get("name", "?")
        kind = e.get("ev")
        if kind == "span":
            agg = spans.setdefault(name, {
                "n": 0, "total": 0.0, "max": 0.0, "outcomes": {}, "stages": {},
            })
            dur = float(e.get("dur", 0.0))
            agg["n"] += 1
            agg["total"] += dur
            agg["max"] = max(agg["max"], dur)
            attrs = e.get("attrs") or {}
            outcome = attrs.get("outcome")
            if outcome is not None:
                agg["outcomes"][outcome] = agg["outcomes"].get(outcome, 0) + 1
            # Whatever stages a span splits its time over become rows.
            for stage, secs in (attrs.get("stages") or {}).items():
                agg["stages"][stage] = agg["stages"].get(stage, 0.0) + secs
        elif kind == "counter":
            counters[name] = counters.get(name, 0) + float(e.get("value", 0))
        elif kind == "gauge":
            gauges.setdefault(name, []).append(float(e.get("value", 0.0)))
        elif kind == "event":
            points[name] = points.get(name, 0) + 1

    if spans:
        table = Table(
            "spans", ["name", "count", "total_s", "mean_ms", "max_ms", "outcomes"]
        )
        for name in sorted(spans):
            agg = spans[name]
            outcomes = " ".join(
                f"{k}:{v}" for k, v in sorted(agg["outcomes"].items())
            ) or "-"
            table.add_row(
                name, agg["n"], _fmt_seconds(agg["total"]),
                round(1000 * agg["total"] / agg["n"], 3),
                round(1000 * agg["max"], 3), outcomes,
            )
        lines.append(table.render())
        lines.append("")
    if any(agg["stages"] for agg in spans.values()):
        table = Table("stages", ["span", "stage", "total_s", "share"])
        for name in sorted(spans):
            agg = spans[name]
            for stage, secs in sorted(agg["stages"].items()):
                share = f"{secs / agg['total']:.1%}" if agg["total"] else "-"
                table.add_row(name, stage, _fmt_seconds(secs), share)
        lines.append(table.render())
        lines.append("")
    if counters:
        table = Table("counters", ["name", "total"])
        for name in sorted(counters):
            value = counters[name]
            table.add_row(name, int(value) if value == int(value) else value)
        lines.append(table.render())
        lines.append("")
    if gauges:
        table = Table("gauges", ["name", "n", "first", "last", "min", "max"])
        for name in sorted(gauges):
            series = gauges[name]
            table.add_row(
                name, len(series), series[0], series[-1],
                min(series), max(series),
            )
        lines.append(table.render())
        lines.append("")
    if points:
        table = Table("events", ["name", "count"])
        for name in sorted(points):
            table.add_row(name, points[name])
        lines.append(table.render())
        lines.append("")
    if not (spans or counters or gauges or points):
        lines.append("(no events recorded)")
    return "\n".join(lines).rstrip("\n")


def tail(run_dir: str | Path, n: int = 20) -> str:
    """The last ``n`` raw event records, one compact JSON line each."""
    if n <= 0:
        return ""
    events = read_events(run_dir)
    return "\n".join(
        json.dumps(e, sort_keys=True, separators=(",", ":"))
        for e in events[-n:]
    )
