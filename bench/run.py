#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics, or per-layer with --trace.

Run one workload (what BENCHMARK.json's command does)::

    python3 bench/run.py --workload oneone_serial --seed 0 --seconds 25

or every workload, each in a fresh process::

    python3 bench/run.py --seed 0
    python3 bench/run.py --seed 0 --trace

A run measures set-up time (median of five fresh starts), then runs
passes over the workload's operations until ``--seconds`` have passed,
checks every output, appends a record to ``bench/history.jsonl`` and
prints one JSON object as its last line.  With ``--trace`` every other
pass runs with the layer tracer installed and the metrics are the
per-layer ones; see bench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HISTORY = BENCH / "history.jsonl"

SETUP_RUNS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics beyond each layer's calls / self_s / frac.
LAYER_EXTRAS = {
    "sampling.events": "count",
    "sampling.batch_calls": "count",
    "channel.events": "count",
    "simulator.trials": "count",
    "simulator.phases": "count",
    "simulator.slots": "count",
    "mc_simulator.trials": "count",
    "arena.evaluations": "count",
    "executor.tasks": "count",
    "executor.retries": "count",
    "executor.timeouts": "count",
    "executor.crashes": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "service.deduped": "count",
    "service.executed": "count",
    "arena.memo_hit_ratio": "ratio",
    "executor.batch_fill": "ratio",
    "cache.hit_ratio": "ratio",
    "service.cold_req_p50_ms": "ms",
    "service.restart_req_p50_ms": "ms",
    "service.warm_req_p50_ms": "ms",
    "service.warm_req_p90_ms": "ms",
    "service.warm_req_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.frac"] = "ratio"
    units.update(LAYER_EXTRAS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup(name: str, seed: int, calibration,
                  runs: int = SETUP_RUNS) -> list[tuple[float, float]]:
    """``(start, seconds)`` from each of ``runs`` fresh interpreter
    starts until the workload is ready to run; for the service, until
    it prints ``serving on``."""
    from workloads import OUT, Server, child_env

    times = []
    for i in range(runs):
        calibration.read()
        t0 = time.perf_counter()
        if name == "service_restart":
            cache_dir = OUT / f"setup-cache-{os.getpid()}-{i}"
            server = Server(cache_dir)
            times.append((t0, time.perf_counter() - t0))
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
            continue
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--probe", name,
             "--seed", str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append((t0, time.perf_counter() - t0))
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
    calibration.read()
    return times


def run_passes(runner, workload, seconds: float, tracer=None) -> None:
    """Alternate passes (traced every other one when ``tracer`` is set)
    until ``seconds`` have passed; at least one pass of each kind."""
    durations = []
    start = time.perf_counter()
    while True:
        traced = len(durations) % 2 == 1
        durations.append(runner.run_pass(workload, tracer if traced else None))
        # Stop when another pass would end more than half a pass late.
        left = seconds - (time.perf_counter() - start)
        if len(durations) >= 2 and left < 0.5 * statistics.median(durations):
            return


def end_to_end_metrics(runner, workload, setup: list[tuple]) -> dict:
    scaled = runner.calibration.scaled
    return {
        "setup_s": statistics.median(scaled(t0, dt) for t0, dt in setup),
        "wall_s": runner.wall(),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def layer_metrics(tracer, runner) -> dict:
    from tracer import LAYERS

    layers, counts = tracer.totals()
    traced_wall = sum(
        dt for samples in runner.samples[True].values() for _, dt in samples
    )
    values = {name: counts.get(name, 0.0) for name in LAYER_EXTRAS}
    for layer in LAYERS:
        calls, self_s = layers[layer]
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.frac"] = _ratio(self_s, traced_wall)
    lookups = counts["arena.lookups"]
    values["arena.memo_hit_ratio"] = _ratio(
        lookups - counts["arena.evaluations"], lookups
    )
    values["executor.batch_fill"] = _ratio(
        counts["executor.batch_trials"], counts["executor.batch_capacity"]
    )
    values["cache.hit_ratio"] = _ratio(
        counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]
    )
    # Client-observed request times, from the untraced passes.
    for kind in ("cold_req", "restart_req", "warm_req"):
        times = runner.times(kind)
        values[f"service.{kind}_p50_ms"] = (
            1000 * statistics.median(times) if times else 0.0
        )
    warm = runner.times("warm_req")
    values["service.warm_req_p90_ms"] = (
        1000 * statistics.quantiles(warm, n=10)[-1] if len(warm) > 1 else 0.0
    )
    values["service.warm_req_per_s"] = _ratio(len(warm), sum(warm))
    values["trace.overhead_frac"] = _ratio(
        runner.wall(traced=True), runner.wall()
    ) - 1.0
    return values


def trace_problems(workload, values: dict) -> list[str]:
    """The self-check: every layer the workload must exercise saw work."""
    problems = [f"{name} is 0" for name in workload.required if not values[name]]
    return problems + workload.trace_problems()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool = False,
    setup_runs: int = SETUP_RUNS, reference: dict | None = None, **sizes,
) -> tuple[dict, dict]:
    """One benchmark run: the result object ``main`` prints, and the
    uncalibrated timings that go to the history file with it.

    ``reference`` defaults to the committed seed-0 digests at seed 0
    (and no reference at other seeds); ``sizes`` shrink the workload.
    """
    from tracer import Tracer
    from workloads import OUT, Runner, build, load_reference

    OUT.mkdir(exist_ok=True)
    if reference is None and seed == 0:
        reference = load_reference()
    runner = Runner(reference)
    setup = [] if trace else measure_setup(
        name, seed, runner.calibration, setup_runs
    )
    workload = build(name, seed, **sizes)
    tracer = Tracer() if trace else None
    run_passes(runner, workload, seconds, tracer)
    if trace:
        values = layer_metrics(tracer, runner)
        units = per_layer_units()
        problems = trace_problems(workload, values)
        if problems:
            raise SystemExit(
                f"trace self-check failed for {name}: " + "; ".join(problems)
            )
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.dump(), indent=1))
    else:
        values = end_to_end_metrics(runner, workload, setup)
        units = END_TO_END
    for message in runner.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    raw = {
        "calibration_s": runner.calibration.median_s(),
        "wall_s": runner.wall(raw=True),
        "setup_s": statistics.median(dt for _, dt in setup) if setup else None,
    }
    return result, raw


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def append_history(name: str, seed: int, seconds: float, trace: bool,
                   result: dict, raw: dict) -> None:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no", "--",
                  ".", ":!bench/history.jsonl")
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "rev": rev.strip() if rev else None,
        "dirty": bool(status) if status is not None else None,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "uncalibrated": raw,
    }
    with HISTORY.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def write_reference() -> int:
    """Regenerate bench/reference_seed0.json from one seed-0 pass of
    every workload; quick experiment reports must still equal their
    committed baselines."""
    from workloads import REFERENCE, WORKLOADS, Runner, baseline_digests, build

    baseline = baseline_digests()
    digests = {}
    for name in WORKLOADS:
        runner = Runner(baseline, strict=False)
        runner.run_pass(build(name, 0))
        if runner.failed:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        digests.update(
            (k, v) for k, v in runner.expected.items() if k not in baseline
        )
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in BENCHMARK.json order, each in a fresh process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{w['name']}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{w['name']:<18} {metric:<28} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{w['name']}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    default_seconds = (
        json.loads(spec_path.read_text())["run_seconds"]
        if spec_path.exists() else 20
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace) reports per-layer metrics",
    )
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="regenerate bench/reference_seed0.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    from workloads import WORKLOADS, build

    if args.probe is not None:
        build(args.probe, args.seed)
        print("ready", flush=True)
        return 0
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    result, raw = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    append_history(args.workload, args.seed, args.seconds, bool(args.trace),
                   result, raw)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
