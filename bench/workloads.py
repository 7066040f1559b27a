"""The benchmark's workloads, the operation runner and the output oracle.

A workload is a fixed list of operations built from the run's seed; one
*pass* runs each operation once.  :class:`Runner` times every operation,
groups the samples by operation kind, and checks every output:

* an operation fails if it raises or if a claim check it makes fails;
* outputs that share a key must be byte-identical: the same operation
  on every pass, and the warm and restart responses of a service
  request against its cold response;
* at seed 0 each output's sha256 must equal its reference: the
  committed ``results/baseline/<eid>.json`` for quick experiment
  reports, and ``bench/reference_seed0.json`` for everything else.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import itertools
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BASELINE = ROOT / "results" / "baseline"
REFERENCE = BENCH / "reference_seed0.json"

#: Quick 1-to-1 experiments run serially (batch=1): hundreds of short
#: 2-node runs through the scalar ``Simulator.run`` path.  E2 is left
#: out: its budget-capped jammers make its work vary by 7% from seed to
#: seed, and it would be 60% of the pass.
ONE_TO_ONE = ("E1", "E3", "E4", "E16", "A4")

#: 1-to-n broadcast cells ``(name, n, jammer target epoch or None)``
#: run through the lockstep ``run_batch`` kernel, 8 trials per batch.
#: The E6/E7/E8 protocol and jammer at cell sizes of about one second
#: each; the experiments themselves take 3-7 s apiece, too coarse for a
#: median inside one run.
BROADCAST_CELLS = (
    ("n16_silent", 16, None),
    ("n16_jam10", 16, 10),
    ("n64_jam10", 64, 10),
)

#: Multichannel experiments, run in full mode.
MULTICHANNEL = ("E15", "E18")
ARENA_PRESETS = ("cz-c4", "cz-c8")

#: The arena population is drawn once from this fixed stream; the run's
#: seed drives every trial.  Search trajectories are heavy-tailed in
#: cost (one seed finding a strong attacker can double a run), which
#: would swamp any code change in the spread between seeds.
POPULATION_SEED = 902


class CheckFailed(Exception):
    """An operation's own claim check failed."""


def import_experiments(eids) -> None:
    """Import the experiments' modules, so a tracer installed afterwards
    sees every name they bind at import time."""
    from repro.experiments.registry import get_experiment

    for eid in eids:
        importlib.import_module(get_experiment(eid).module)


def child_env() -> dict:
    """Environment for the benchmark's subprocesses: this checkout's
    ``src`` first, and no ``REPRO_*`` overrides of engine behaviour."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def _reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident size."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def baseline_digests() -> dict:
    """sha256 of each committed quick seed-0 report, keyed by its id."""
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in BASELINE.glob("*.json")
    }


def load_reference() -> dict:
    """Seed-0 digests: the committed baselines plus reference_seed0.json."""
    ref = baseline_digests()
    if REFERENCE.exists():
        ref.update(json.loads(REFERENCE.read_text()))
    return ref


#: What :func:`calibration_kernel` takes on the machine the bounds were
#: set on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, NumPy 1.26), so that
#: calibrated timings read as seconds on that machine.
CAL_NOMINAL_S = 0.015

_CAL_NODES = np.arange(64)
_CAL_MID = np.random.default_rng(0).random(20_000)
_CAL_BIG = np.random.default_rng(1).random(200_000)


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter loops, many small-array
    NumPy calls, and sorts and scans of cache-sized and memory-sized
    arrays: the shapes of work the simulator does, with no code from
    the program under test."""
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    for i in range(500):
        picked = _CAL_NODES[(_CAL_NODES * i) % 5 == 0]
        total += int(picked.sum()) + int(np.searchsorted(_CAL_NODES, picked)[-1])
    values = _CAL_MID
    for _ in range(4):
        values = np.sort(values)[::-1]
        total += np.unique((values * 1000).astype(np.int64)).size
    order = np.argsort(_CAL_BIG)
    sums = np.cumsum(_CAL_BIG[order])
    total += int(np.searchsorted(sums, sums[::7])[-1])
    return time.perf_counter() - t0


class Calibration:
    """Machine-speed readings taken between operations.

    The benchmark runs on shared hosts whose speed drifts by up to 2x
    for tens of seconds at a time, which no amount of work inside one
    run averages out.  Every timing is therefore scaled by
    ``CAL_NOMINAL_S`` over the median kernel time read within a few
    seconds of it; a change to the program moves the scaled time, a
    slow spell of the host mostly does not.
    """

    interval = 0.3  # seconds between readings
    margin = 2.0  # readings this close to an operation scale it

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take a reading if the last one is older than ``interval``."""
        if time.perf_counter() - self._last >= self.interval:
            self.read()

    def read(self) -> None:
        start = time.perf_counter()
        self.readings.append((start, calibration_kernel()))
        self._last = time.perf_counter()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, in nominal seconds."""
        near = [
            dt for t, dt in self.readings
            if start - self.margin <= t <= start + seconds + self.margin
        ]
        if len(near) < 3:
            by_distance = sorted(self.readings, key=lambda r: abs(r[0] - start))
            near = [dt for _, dt in by_distance[:3]]
        return seconds * CAL_NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(dt for _, dt in self.readings)


class Runner:
    """Runs passes, times operations and checks their outputs.

    ``reference`` maps output keys to sha256 digests (seed 0 only);
    with ``strict`` a key missing from it is a failure.
    """

    def __init__(self, reference: dict | None = None, strict: bool = True):
        self.reference = reference
        self.strict = strict
        self.calibration = Calibration()
        # (start, seconds) per operation kind, for untraced/traced passes
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.per_pass: dict[str, int] = {}
        self.expected: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None  # set during a traced pass
        self._pass_counts: Counter = Counter()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def op(self, kind: str, fn, key: str | None = None):
        """Run and time one operation; returns its output (``None`` if
        it failed).  Keyed operations return the bytes to check."""
        self.attempted += 1
        self._pass_counts[kind] += 1
        self.calibration.tick()
        span = (
            self.tracer.span(kind, key=key) if self.tracer is not None
            else contextlib.nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:  # any raising operation counts as failed
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        traced = self.tracer is not None
        self.samples[traced][kind].append((t0, time.perf_counter() - t0))
        if key is not None:
            problem = self._check(key, out)
            if problem:
                self.fail(f"{key}: {problem}")
        return out

    def _check(self, key: str, out: bytes) -> str | None:
        digest = hashlib.sha256(out).hexdigest()
        if self.expected.setdefault(key, digest) != digest:
            return "output differs from an earlier run of the same input"
        if self.reference is None:
            return None
        ref = self.reference.get(key)
        if ref is None:
            return "no reference digest" if self.strict else None
        return None if ref == digest else "output differs from the reference"

    def run_pass(self, workload, tracer=None) -> float:
        """One pass over ``workload``; traced when ``tracer`` is given."""
        self._pass_counts = Counter()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        self.tracer = workload.tracer = tracer
        try:
            workload.run_pass(self)
        finally:
            self.tracer = workload.tracer = None
            if tracer is not None:
                tracer.uninstall()
        self.calibration.read()
        elapsed = time.perf_counter() - t0
        if not self.per_pass:
            self.per_pass = dict(self._pass_counts)
        return elapsed

    def times(self, kind: str, traced: bool = False, raw: bool = False) -> list:
        """Every sample of one operation kind, calibrated unless ``raw``."""
        samples = self.samples[traced].get(kind, [])
        if raw:
            return [dt for _, dt in samples]
        return [self.calibration.scaled(t0, dt) for t0, dt in samples]

    def wall(self, traced: bool = False, raw: bool = False) -> float:
        """One pass's wall time from per-kind medians: the sum over
        operation kinds of median time x operations per pass.  Each
        kind's median is over every pass in the run, which keeps a
        slow spell of a few seconds out of the number."""
        total = 0.0
        for kind, count in self.per_pass.items():
            times = self.times(kind, traced, raw)
            if times:
                total += statistics.median(times) * count
        return total


class Workload:
    """A fixed list of ``(kind, key, fn)`` operations run in process."""

    name = ""
    #: Layer metrics a traced run of this workload must see above zero.
    required: tuple = ()

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.tracer = None  # the active Tracer during a traced pass
        self._rss_mb = 0.0

    def run_pass(self, runner: Runner) -> None:
        for kind, key, fn in self.ops:
            runner.op(kind, functools.partial(self._watch_rss, fn), key)

    def _watch_rss(self, fn):
        # The peak is taken over operations only, so the calibration
        # kernel's arrays between them never count.
        _reset_peak_rss()
        try:
            return fn()
        finally:
            self._rss_mb = max(self._rss_mb, _peak_rss_mb())

    def peak_rss_mb(self) -> float:
        return self._rss_mb

    def trace_problems(self) -> list[str]:
        return []

    def _stats(self, config) -> None:
        if self.tracer is not None:
            self.tracer.add_executor_stats(config.stats)

    def _experiment(self, eid: str, seed: int, quick: bool, batch: int) -> bytes:
        from repro.experiments import registry
        from repro.store import report_to_bytes

        config = registry.RunConfig(seed=seed, quick=quick, batch=batch)
        report = registry.run_experiment(eid, config)
        self._stats(config)
        failed = sorted(name for name, ok in report.checks.items() if not ok)
        if failed:
            raise CheckFailed(f"{eid} claim check(s) failed: {failed}")
        return report_to_bytes(report)


_SIM_LAYERS = (
    "runner.calls", "executor.calls", "protocols.calls",
    "adversaries.calls", "sampling.calls", "channel.calls",
    "accounting.calls",
)


class OneToOneSerial(Workload):
    """Quick 1-to-1 experiments at batch=1: per-phase Python cost in
    protocols, adversaries, the loop and the executor dominates, and
    only the serial sampler runs."""

    name = "oneone_serial"
    required = ("experiments.calls", "simulator.calls") + _SIM_LAYERS

    def __init__(self, seed: int, experiments=ONE_TO_ONE) -> None:
        super().__init__()
        import_experiments(experiments)
        self.ops = [
            (eid, eid,
             functools.partial(self._experiment, eid, seed, True, 1))
            for eid in experiments
        ]


class BroadcastBatched(Workload):
    """1-to-n broadcast (up to 64 nodes) through the lockstep batch
    kernel, where the batched sampler takes about half the time."""

    name = "broadcast_batched"
    required = ("simulator.calls", "sampling.batch_calls") + _SIM_LAYERS

    def __init__(self, seed: int, cells=BROADCAST_CELLS, reps: int = 8) -> None:
        super().__init__()
        from repro.adversaries.basic import SilentAdversary
        from repro.adversaries.blocking import EpochTargetJammer
        from repro.protocols.one_to_n import OneToNBroadcast, OneToNParams

        params = OneToNParams.sim()
        for name, n, target in cells:
            make_adversary = (
                SilentAdversary if target is None
                else functools.partial(EpochTargetJammer, target, q=0.6)
            )
            self.ops.append((
                name, f"broadcast.{name}.r{reps}",
                functools.partial(
                    self._cell, name,
                    functools.partial(OneToNBroadcast, n, params),
                    make_adversary, reps, seed + n,
                ),
            ))

    def _cell(self, name, make_protocol, make_adversary, reps, seed) -> bytes:
        from repro.experiments import registry, runner
        from repro.store import run_result_to_dict

        config = registry.RunConfig(seed=seed, batch=8)
        results = runner.replicate(
            make_protocol, make_adversary, reps, seed=seed, config=config
        )
        self._stats(config)
        if not all(r.success for r in results):
            raise CheckFailed(f"a broadcast in cell {name} did not complete")
        return json.dumps(
            [run_result_to_dict(r) for r in results], sort_keys=True
        ).encode("utf-8")


class Multichannel(Workload):
    """The Chen-Zheng multichannel engine: E15/E18 in full mode, then an
    arena evaluation of a fixed genome population against the C=4 and
    C=8 defenders."""

    name = "multichannel"
    required = (
        "experiments.calls", "arena.calls", "mc_simulator.calls",
    ) + _SIM_LAYERS

    def __init__(
        self, seed: int, experiments=MULTICHANNEL, presets=ARENA_PRESETS,
        genomes: int = 24, reps: int = 16,
    ) -> None:
        super().__init__()
        from repro.arena.space import multichannel_space
        from repro.rng import derive

        import_experiments(experiments)
        self.space = multichannel_space(quick=False)
        rng = derive(POPULATION_SEED, 902)
        fresh = [self.space.random_genome(rng) for _ in range(genomes)]
        # Like an evolve generation: fresh genomes plus a third carried
        # over, which the memo serves without re-running.
        self.population = fresh + fresh[: genomes // 3]
        self.ops = [
            (f"{eid}.full", f"{eid}.full",
             functools.partial(self._experiment, eid, seed, False, 8))
            for eid in experiments
        ] + [
            (f"arena.{p}", f"arena.{p}.g{genomes}.r{reps}",
             functools.partial(self._arena, p, reps, seed))
            for p in presets
        ]

    def _arena(self, preset: str, reps: int, seed: int) -> bytes:
        from repro.arena import search
        from repro.arena.space import protocol_channels, protocol_factory
        from repro.experiments import registry

        make = protocol_factory(preset)
        n_channels = protocol_channels(preset)
        config = registry.RunConfig(seed=seed, batch=8)
        baseline = search.baseline_cost(make, reps, seed, config, n_channels)
        memo: dict = {}
        search.evaluate_genomes(
            self.space, self.population, make, baseline=baseline,
            n_reps=reps, seed=seed, config=config, memo=memo,
            n_channels=n_channels,
        )
        self._stats(config)
        ranked = sorted(memo.values(), key=lambda ev: (-ev.index, ev.fingerprint))
        table = search.leaderboard_table(f"{preset} seed {seed}", ranked)
        return json.dumps(table.to_dict(), sort_keys=True).encode("utf-8")


class Server:
    """One ``repro-bcast serve --jobs 1 --no-telemetry`` subprocess.

    With ``dump`` set it runs under ``serve_traced.py``, which writes
    the server's layer totals to that path when stopped.
    """

    def __init__(self, cache_dir: Path, dump: Path | None = None) -> None:
        launcher = (
            ["-m", "repro.cli"] if dump is None
            else [str(BENCH / "serve_traced.py"), str(dump)]
        )
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--jobs", "1",
             "--no-telemetry", "--cache-dir", str(cache_dir)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        lines: queue.Queue = queue.Queue()
        # Drain stdout for the server's lifetime so it can never block.
        threading.Thread(
            target=lambda: [lines.put(line) for line in self.proc.stdout],
            daemon=True,
        ).start()
        try:
            first = lines.get(timeout=60)
        except queue.Empty:
            first = ""
        if not first.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"service did not start: {first!r}")
        self.url = first.split()[-1]

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class ServiceRestart(Workload):
    """One client in a closed loop over one connection: cold E1
    requests with distinct seeds (execute and write the cache), warm
    resubmissions (dedupe index), then SIGTERM, a new server over the
    same cache directory, and restart requests (disk cache reads)."""

    name = "service_restart"
    required = (
        "service.calls", "experiments.calls", "runner.calls",
        "executor.calls", "cache.calls", "simulator.calls",
    )

    def __init__(
        self, seed: int, cold: int = 20, warm: int = 1000, restart: int = 20,
    ) -> None:
        super().__init__()
        self.seeds = [1000 * seed + i for i in range(cold)]
        self.warm = warm
        self.restart = restart
        self.rss: list[float] = []
        self.phase_counts: dict[str, Counter] = defaultdict(Counter)
        self._ids = itertools.count()

    def run_pass(self, runner: Runner) -> None:
        cache_dir = OUT / f"service-cache-{os.getpid()}-{next(self._ids)}"
        try:
            cold = [("cold_req", s) for s in self.seeds] + [
                ("warm_req", self.seeds[i % len(self.seeds)])
                for i in range(self.warm)
            ]
            self._phase(runner, cache_dir, "cold", cold)
            restart = [("restart_req", s) for s in self.seeds[: self.restart]]
            self._phase(runner, cache_dir, "restart", restart)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _phase(self, runner: Runner, cache_dir: Path, phase: str, requests) -> None:
        from repro.service.client import ServiceClient

        dump = None
        if self.tracer is not None:
            dump = OUT / f"server-trace-{os.getpid()}-{next(self._ids)}.json"
        server = runner.op("server_start", lambda: Server(cache_dir, dump))
        if server is None:
            return
        try:
            with ServiceClient(server.url) as client:
                for kind, seed in requests:
                    runner.op(
                        kind,
                        functools.partial(
                            self._request, client, seed, kind == "cold_req"
                        ),
                        key=f"service.E1.s{seed}",
                    )
                counters = client.health()["counters"]
            self.rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        for problem in self._check_counters(phase, counters, requests):
            runner.fail(f"service {phase} phase: {problem}")
        if dump is not None:
            data = json.loads(dump.read_text())
            dump.unlink()
            self.tracer.merge(data, process=f"server-{phase}")
            self.phase_counts[phase].update(data["counts"])
            self.tracer.count("service.deduped", counters["deduped"])
            self.tracer.count("service.executed", counters["executed"])

    @staticmethod
    def _request(client, seed: int, check: bool) -> bytes:
        job = client.submit("E1", seed=seed, quick=True, wait=True)
        if job["state"] != "completed":
            raise RuntimeError(f"job {job['job_id']} {job['state']}: {job['error']}")
        body = client.result(job["job_id"])
        if check:
            failed = [k for k, ok in json.loads(body)["checks"].items() if not ok]
            if failed:
                raise CheckFailed(f"E1 seed {seed} claim check(s) failed: {failed}")
        return body

    @staticmethod
    def _check_counters(phase: str, counters: dict, requests) -> list[str]:
        """The server's own counters must show the path the phase is
        meant to take: cold executes each distinct seed once and dedupes
        the rest; restart executes every request from the disk cache."""
        distinct = len({seed for _, seed in requests})
        problems = []
        if counters["executed"] != distinct:
            problems.append(f"executed {counters['executed']} jobs, expected {distinct}")
        if counters["deduped"] != len(requests) - distinct:
            problems.append(f"deduped {counters['deduped']} requests")
        cache = counters["cache"]
        if phase == "restart" and (cache["misses"] or not cache["disk_hits"]):
            problems.append(f"cache did not serve every cell from disk: {cache}")
        return problems

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss) if self.rss else 0.0

    def trace_problems(self) -> list[str]:
        problems = []
        if not self.phase_counts["cold"]["cache.bytes_written"]:
            problems.append("cache.bytes_written is 0 in the cold phase")
        if not self.phase_counts["restart"]["cache.hits"]:
            problems.append("cache.hits is 0 in the restart phase")
        return problems


WORKLOADS = {
    w.name: w
    for w in (OneToOneSerial, BroadcastBatched, Multichannel, ServiceRestart)
}


def build(name: str, seed: int, **sizes) -> Workload:
    """Import what the workload needs and build its operations."""
    return WORKLOADS[name](seed, **sizes)
