"""Unit tests for the sharded JSONL cache store."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cache.store import CacheStore
from repro.engine.simulator import RunResult
from repro.errors import CacheError
from repro.store import run_result_to_dict

pytestmark = pytest.mark.cache


def make_result(tag: int = 0, nan: bool = False) -> RunResult:
    return RunResult(
        node_costs=np.asarray([10 + tag, 20 + tag], dtype=np.int64),
        adversary_cost=100 + tag,
        slots=1000 + tag,
        phases=7,
        truncated=False,
        stats={"success": True, "x": float("nan") if nan else 1.5},
    )


def dumps(result: RunResult) -> str:
    return json.dumps(run_result_to_dict(result), sort_keys=True)


KEY_A = "a" * 64
KEY_B = "b" * 64


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        assert dumps(store.get(KEY_A)) == dumps(make_result(1))
        assert store.get(KEY_B) is None

    def test_nan_stats_survive(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(nan=True))
        back = store.get(KEY_A)
        assert np.isnan(back.stats["x"])

    def test_newest_record_wins(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        store.put(KEY_A, make_result(2))
        assert dumps(store.get(KEY_A)) == dumps(make_result(2))

    def test_persists_across_instances(self, tmp_path):
        CacheStore(tmp_path).put(KEY_A, make_result(3))
        assert dumps(CacheStore(tmp_path).get(KEY_A)) == dumps(make_result(3))

    def test_get_many_reports_bytes(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        store.put(KEY_B, make_result(2))
        hits, bytes_read = store.get_many([KEY_A, KEY_B, "c" * 64])
        assert set(hits) == {KEY_A, KEY_B}
        assert bytes_read > 0

    def test_torn_final_line_tolerated(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        segment = store._segment(KEY_A)
        with open(segment, "ab") as fh:
            fh.write(b'{"key": "' + KEY_B.encode() + b'", "result": {"trunc')
        assert dumps(store.get(KEY_A)) == dumps(make_result(1))
        assert store.get(KEY_B) is None
        # A later complete append still lands and is served.
        store.put(KEY_B, make_result(2))
        assert dumps(store.get(KEY_B)) == dumps(make_result(2))

    def test_put_after_torn_line_in_its_own_segment(self, tmp_path):
        # A crashed writer left a fragment with no newline in the very
        # segment the next put appends to: that record must still land
        # on a line of its own.
        store = CacheStore(tmp_path)
        segment = store._segment(KEY_B)
        segment.parent.mkdir(parents=True)
        segment.write_bytes(b'{"key": "' + KEY_A.encode() + b'", "resu')
        store.put(KEY_B, make_result(2))
        assert dumps(store.get(KEY_B)) == dumps(make_result(2))
        assert store.get(KEY_A) is None

    def test_path_collision_with_file_rejected(self, tmp_path):
        stray = tmp_path / "stray"
        stray.write_text("not a directory")
        with pytest.raises(CacheError):
            CacheStore(stray)


class TestMaintenance:
    def fill(self, tmp_path, n=20):
        store = CacheStore(tmp_path)
        for i in range(n):
            store.put(f"{i:064x}", make_result(i))
        return store

    def test_stats(self, tmp_path):
        store = self.fill(tmp_path)
        stats = store.stats()
        assert stats.entries == 20
        assert stats.unique_keys == 20
        assert stats.total_bytes > 0
        assert "20 entries" in stats.render()

    def test_compact_drops_superseded(self, tmp_path):
        store = CacheStore(tmp_path)
        for _ in range(5):
            store.put(KEY_A, make_result(1))
        assert store.stats().entries == 5
        assert store.compact() > 0
        assert store.stats().entries == 1
        assert dumps(store.get(KEY_A)) == dumps(make_result(1))

    def test_gc_bounds_size(self, tmp_path):
        store = self.fill(tmp_path, n=50)
        before = store.stats().total_bytes
        freed = store.gc(max_bytes=before // 2)
        after = store.stats().total_bytes
        assert after <= before // 2
        assert freed >= before - after

    def test_gc_noop_under_budget(self, tmp_path):
        store = self.fill(tmp_path, n=5)
        assert store.gc(max_bytes=10**9) == 0
        assert store.stats().entries == 5

    def test_clear(self, tmp_path):
        store = self.fill(tmp_path)
        assert store.clear() > 0
        assert store.stats().entries == 0
        assert store.get(KEY_A) is None


@pytest.mark.parallel
class TestConcurrency:
    def test_forked_writers_do_not_corrupt(self, tmp_path):
        """Many forked processes appending concurrently — the exact
        situation under ``--jobs`` — must leave every record parseable."""
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        store = CacheStore(tmp_path)
        n_procs, per_proc = 8, 25
        pids = []
        for p in range(n_procs):
            pid = os.fork()
            if pid == 0:
                try:
                    for i in range(per_proc):
                        store.put(f"{p:032x}{i:032x}", make_result(p * 1000 + i))
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert status == 0
        stats = store.stats()
        assert stats.entries == n_procs * per_proc
        assert stats.unique_keys == n_procs * per_proc
        for p in range(n_procs):
            for i in range(per_proc):
                back = store.get(f"{p:032x}{i:032x}")
                assert back.adversary_cost == 100 + p * 1000 + i


class TestLockFallback:
    """Regression: ``put``/``compact`` used to run lock-free when
    ``fcntl`` was unavailable — concurrent writers could interleave
    partial lines.  The ``O_EXCL`` lockfile fallback must serialize the
    same operations ``fcntl.flock`` does."""

    @pytest.fixture(autouse=True)
    def no_fcntl(self, monkeypatch):
        import repro.locking as locking

        monkeypatch.setattr(locking, "fcntl", None)

    def test_put_get_roundtrip_without_fcntl(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        store.put(KEY_A, make_result(2))
        store.put(KEY_B, make_result(3))
        assert dumps(store.get(KEY_A)) == dumps(make_result(2))
        assert dumps(store.get(KEY_B)) == dumps(make_result(3))

    def test_lockfile_removed_after_put(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        assert list(tmp_path.rglob("*.lock")) == []

    def test_compact_without_fcntl(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))
        store.put(KEY_A, make_result(2))
        store.compact()
        assert store.stats().entries == 1
        assert dumps(store.get(KEY_A)) == dumps(make_result(2))
        assert list(tmp_path.rglob("*.lock")) == []

    def test_stale_lockfile_is_broken(self, tmp_path):
        import time as _time

        from repro.locking import lockfile_path

        store = CacheStore(tmp_path)
        store.put(KEY_A, make_result(1))  # materialize the segment
        lock = lockfile_path(store._segment(KEY_A))
        lock.touch()
        old = _time.time() - 60.0
        os.utime(lock, (old, old))  # abandoned by a killed writer
        store.put(KEY_A, make_result(2))  # must break the lock, not hang
        assert dumps(store.get(KEY_A)) == dumps(make_result(2))
        assert not lock.exists()

    def test_forked_writers_without_fcntl(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("needs os.fork")
        store = CacheStore(tmp_path)
        n_procs, per_proc = 3, 6
        pids = []
        for p in range(n_procs):
            pid = os.fork()
            if pid == 0:
                try:
                    for i in range(per_proc):
                        store.put(f"{p:032x}{i:032x}", make_result(p * 1000 + i))
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert status == 0
        stats = store.stats()
        assert stats.entries == n_procs * per_proc
        assert stats.unique_keys == n_procs * per_proc
