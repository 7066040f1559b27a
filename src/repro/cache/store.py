"""On-disk content-addressed store for simulation results.

Layout: ``root/segments/<ss>.jsonl`` where ``ss`` is a CRC-derived
shard of the content key — one JSON record per line::

    {"key": "<sha256>", "meta": {...}, "result": {run_result_to_dict}}

Append-only JSONL was chosen over one-file-per-entry because sweep
cells are small (a few hundred bytes) and plentiful: a full E-series
run writes thousands of entries, and a directory of thousands of tiny
files is slower to scan and garbage-collect than 64 segment files.

Concurrency: entries are written by forked executor workers running the
miss tasks — and, under the sweep service, read by many concurrent
client threads sharing one store — so the protocol is
single-writer-per-append, lock-free snapshot reads:

* every append goes through :func:`repro.locking.locked_append`: it
  takes an exclusive lock on its segment (``fcntl`` where available,
  an atomic ``O_EXCL`` lockfile elsewhere), writes the record as a
  single ``write`` call (after a newline if a crashed writer left the
  segment torn), and re-checks its inode after locking so a
  concurrent :meth:`CacheStore.compact` cannot strand the append in a
  replaced file;
* readers take no lock at all: a record is *committed* only once its
  trailing newline is on disk, so a snapshot simply drops everything
  after the last newline (a torn in-flight append) and parses the
  rest.  Compaction swaps whole files in with ``os.replace``, so a
  snapshot is always a complete old or complete new segment, never a
  hybrid.

When several records carry the same key the *newest* wins, which is
what makes ``resume=False`` refresh semantics work without rewrites.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.engine.simulator import RunResult
from repro.errors import CacheError
from repro.locking import exclusive_lock, locked_append
from repro.store import run_result_from_dict, run_result_to_dict
from repro.telemetry.sink import get_sink

__all__ = ["CacheStore", "CacheStats", "DEFAULT_GC_BYTES", "default_cache_dir"]

_N_SEGMENTS = 64

#: Default size bound for ``repro-bcast cache gc`` (256 MiB).
DEFAULT_GC_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path(".repro-cache")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time census of one cache directory."""

    root: str
    segments: int
    entries: int
    unique_keys: int
    total_bytes: int

    def render(self) -> str:
        mib = self.total_bytes / (1024 * 1024)
        return (
            f"cache at {self.root}: {self.entries} entries "
            f"({self.unique_keys} unique keys) in {self.segments} "
            f"segments, {mib:.2f} MiB"
        )


class CacheStore:
    """Content-addressed result cache rooted at one directory.

    The store keeps no open handles between calls, so a single instance
    is safe to share across ``os.fork`` — parent and workers each open,
    lock, and close per operation.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise CacheError(f"cache path {self.root} is not a directory")
        self._segments_dir = self.root / "segments"

    # -- key plumbing ----------------------------------------------------

    def _segment(self, key: str) -> Path:
        shard = zlib.crc32(key.encode("ascii")) % _N_SEGMENTS
        return self._segments_dir / f"{shard:02x}.jsonl"

    @staticmethod
    def _parse_lines(raw: bytes) -> list[dict]:
        # Readers take no lock, so a snapshot may end mid-append.  A
        # record is only *committed* once its trailing newline is on
        # disk: drop everything after the last newline before parsing,
        # instead of relying on the torn tail failing to parse — the
        # explicit commit marker holds even for payloads a line-framed
        # parser would accept (and documents the contract the
        # reader-snapshot tests pin).
        end = raw.rfind(b"\n")
        raw = b"" if end < 0 else raw[: end + 1]
        records = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # garbled line (crashed writer); skip
        return records

    # -- write path ------------------------------------------------------

    def put(self, key: str, result: RunResult, meta: dict | None = None) -> int:
        """Append one result; returns the bytes written.

        Safe to call concurrently from forked workers: the record is
        serialized first, then appended under an exclusive lock as one
        write.
        """
        record = {"key": key, "meta": meta or {},
                  "result": run_result_to_dict(result)}
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        path = self._segment(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        lock_wait = locked_append(path, data)
        sink = get_sink()
        if sink is not None:
            sink.span_event(
                "cache.put", time.perf_counter() - t0,
                bytes=len(data), lock_wait=round(lock_wait, 6),
            )
        return len(data)

    # -- read path -------------------------------------------------------

    def get_many(self, keys) -> tuple[dict[str, RunResult], int]:
        """Look up many keys at once; returns ``(hits, bytes_read)``.

        Each needed segment is read exactly once, so a warm sweep costs
        one file read per shard instead of one per cell.
        """
        t0 = time.perf_counter()
        wanted = set(keys)
        by_segment: dict[Path, set[str]] = {}
        for key in wanted:
            by_segment.setdefault(self._segment(key), set()).add(key)
        hits: dict[str, RunResult] = {}
        bytes_read = 0
        for path, segment_keys in sorted(by_segment.items()):
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                continue
            bytes_read += len(raw)
            found: dict[str, dict] = {}
            for record in self._parse_lines(raw):
                if record.get("key") in segment_keys:
                    found[record["key"]] = record  # newest record wins
            for key, record in found.items():
                try:
                    hits[key] = run_result_from_dict(record["result"])
                except Exception as exc:
                    raise CacheError(
                        f"corrupt cache record for key {key[:12]}… in "
                        f"{path}: {exc}"
                    ) from exc
        sink = get_sink()
        if sink is not None:
            sink.span_event(
                "cache.get_many", time.perf_counter() - t0,
                keys=len(wanted), hits=len(hits), bytes=bytes_read,
            )
        return hits, bytes_read

    def get(self, key: str) -> RunResult | None:
        """Single-key convenience wrapper over :meth:`get_many`."""
        hits, _ = self.get_many([key])
        return hits.get(key)

    # -- maintenance -----------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        if not self._segments_dir.is_dir():
            return []
        return sorted(self._segments_dir.glob("*.jsonl"))

    def stats(self) -> CacheStats:
        entries = 0
        unique: set[str] = set()
        total = 0
        paths = self._segment_paths()
        for path in paths:
            raw = path.read_bytes()
            total += len(raw)
            for record in self._parse_lines(raw):
                entries += 1
                if "key" in record:
                    unique.add(record["key"])
        return CacheStats(
            root=str(self.root), segments=len(paths), entries=entries,
            unique_keys=len(unique), total_bytes=total,
        )

    def compact(self) -> int:
        """Rewrite every segment keeping only the newest record per
        key; returns the bytes reclaimed.

        Each rewrite lands as a whole-file ``os.replace`` (under the
        segment lock, so appenders serialize against it and re-check
        their inode — see :func:`repro.locking.locked_append`).  An
        earlier version truncated the segment *in place*, which let a
        lock-free reader snapshot a new-prefix/old-suffix hybrid whose
        seam could glue two half records into one committed-looking
        line; atomic replacement means readers only ever see a complete
        old or complete new segment.
        """
        reclaimed = 0
        for path in self._segment_paths():
            with open(path, "r+b") as fh:
                with exclusive_lock(fh, path):
                    raw = fh.read()
                    latest: dict[str, dict] = {}
                    for record in self._parse_lines(raw):
                        if "key" in record:
                            latest[record["key"]] = record
                    out = io.BytesIO()
                    for record in latest.values():
                        out.write(
                            (json.dumps(record, separators=(",", ":")) + "\n")
                            .encode("utf-8")
                        )
                    data = out.getvalue()
                    if len(data) < len(raw):
                        tmp = path.with_name(path.name + ".compact")
                        tmp.write_bytes(data)
                        os.replace(tmp, path)
                        reclaimed += len(raw) - len(data)
        return reclaimed

    def gc(self, max_bytes: int = DEFAULT_GC_BYTES) -> int:
        """Bound the cache to ``max_bytes``; returns the bytes freed.

        First compacts away superseded records, then — if still over
        budget — drops whole segments, least-recently-written first.
        Dropping a segment only costs recomputation of its cells, never
        correctness, so coarse granularity is fine here.
        """
        if max_bytes < 0:
            raise CacheError(f"max_bytes must be >= 0, got {max_bytes}")
        freed = self.compact()
        sized = [(p.stat().st_mtime, p.stat().st_size, p)
                 for p in self._segment_paths()]
        total = sum(size for _, size, _ in sized)
        for _, size, path in sorted(sized):
            if total <= max_bytes:
                break
            path.unlink()
            total -= size
            freed += size
        return freed

    def clear(self) -> int:
        """Delete every entry; returns the bytes freed."""
        freed = 0
        for path in self._segment_paths():
            freed += path.stat().st_size
            path.unlink()
        return freed
