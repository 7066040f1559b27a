"""Cross-process exclusive file locking with a portable fallback.

The result cache (:mod:`repro.cache.store`), the telemetry sink
(:mod:`repro.telemetry.sink`) and the attack corpus
(:mod:`repro.arena.corpus`) append JSONL records, the first two from
forked executor workers, so every append must be serialized across
processes: all three go through :func:`locked_append`.  On POSIX
that is one ``fcntl.flock`` call; where ``fcntl`` is missing (or has
been monkeypatched away in tests) we fall back to an ``O_CREAT|O_EXCL``
lockfile next to the target — exclusive creation is atomic on every
platform and filesystem we care about.

The fallback spins with a short sleep while the lockfile exists and
breaks locks older than ``stale_after`` seconds, so a writer killed
between creating and removing its lockfile cannot wedge every later
writer forever.  Breaking a *live* writer's lock after that long is the
lesser evil: these are append-only logs whose readers already tolerate
a torn final line.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX only; the lockfile fallback covers everything else.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = ["exclusive_lock", "locked_append", "lockfile_path"]

#: How long the lockfile fallback sleeps between creation attempts.
_SPIN_INTERVAL = 0.002

#: Age (seconds) past which a fallback lockfile is presumed abandoned.
DEFAULT_STALE_AFTER = 10.0


def lockfile_path(path: str | Path) -> Path:
    """The fallback lockfile guarding ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".lock")


@contextmanager
def exclusive_lock(fh, path: str | Path, *, stale_after: float = DEFAULT_STALE_AFTER):
    """Hold an exclusive cross-process lock on open file ``fh`` at ``path``.

    Uses ``fcntl.flock`` when available; otherwise an atomic
    ``O_EXCL`` lockfile beside ``path``.  ``stale_after`` bounds how
    long an abandoned fallback lockfile can block new writers.
    """
    if fcntl is not None:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)
        return

    lock = lockfile_path(path)
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            break
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:  # holder released between open and stat
                continue
            if age > stale_after:
                try:  # break the abandoned lock; racing breakers are fine
                    lock.unlink()
                except OSError:
                    pass
                continue
            time.sleep(_SPIN_INTERVAL)
    try:
        yield
    finally:
        try:
            lock.unlink()
        except OSError:  # pragma: no cover - lock broken under us
            pass


def locked_append(path: str | Path, data: bytes) -> float:
    """Append whole lines ``data`` to ``path`` under its exclusive lock.

    Returns the seconds spent waiting for the lock.

    Live writers write whole lines while holding the lock, so a file
    that does not end in a newline once the lock is held was left torn
    by a dead writer.  The append then starts with a newline, which
    keeps that fragment on its own (unparseable) line; without it the
    new record would be glued onto the fragment and lost with it.

    A file can also be swapped out under the lock: the cache's
    ``compact`` installs rewritten segments with ``os.replace``.
    Appending to the old inode would lose the record silently, so
    after locking we check that the locked inode is still the one the
    path names, and reopen if not.
    """
    t0 = time.perf_counter()
    while True:
        with open(path, "a+b") as fh:
            with exclusive_lock(fh, path):
                st_open = os.fstat(fh.fileno())
                try:
                    st_path = os.stat(path)
                except FileNotFoundError:
                    continue  # replaced or removed under us; reopen
                if (st_open.st_ino, st_open.st_dev) != (
                    st_path.st_ino, st_path.st_dev,
                ):
                    continue  # swapped by a replace; reopen
                lock_wait = time.perf_counter() - t0
                if st_open.st_size:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        data = b"\n" + data
                fh.write(data)
                fh.flush()
                return lock_wait
