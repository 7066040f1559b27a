#!/usr/bin/env python3
"""Benchmark the channel kernels and record the results.

Runs the engine micro-benchmarks (``benchmarks/test_engine_micro.py``)
under pytest-benchmark and distils the full JSON output into a compact
``BENCH_engine.json`` at the repo root: per-benchmark mean/stddev timings
plus the headline sparse-vs-dense speedup ratios at L = 2**20.  The
compact file is committed so the O(events) claim in DESIGN.md is backed
by a recorded measurement.

Usage:

    PYTHONPATH=src python scripts/bench_engine.py [extra pytest args]
    PYTHONPATH=src python scripts/bench_engine.py --batch
    PYTHONPATH=src python scripts/bench_engine.py --profile [--quick]

Extra args are forwarded to pytest, e.g. ``-k large_L`` to time only the
kernel comparison.  ``--batch`` instead times ``Simulator.run_batch``
against serial ``run`` loops on replicate-shaped workloads and merges a
``batch_vs_serial`` section into ``BENCH_engine.json``.  ``--profile``
breaks a batched E1-style replicate down by engine stage (protocol /
sampling / adversary / resolve / accounting, read from the telemetry
spans, with the residual loop overhead) and merges a ``batch_profile``
section, plus a ``one_trial_phases`` section: the per-phase stage cost
of ``oneone_serial``-shaped runs (Figure 1 and KSY, n=2) on the scalar
loop, and a ``fig2_lockstep`` section: the stage split of Figure 2
broadcasts shaped like ``broadcast_batched``'s jammed cells (n=16 and
n=64, 8 trials in one lockstep group, jammed to epoch 10), read from
the ``sim.run_batch`` spans; ``--quick`` shrinks them to a smoke run
for CI.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_engine.json"


def _machine() -> dict:
    """Where a measurement was taken: interpreter, platform, CPU count
    and the git revision of the measured tree (``git_dirty`` when it had
    uncommitted changes to tracked files).  The output file itself does
    not count, so the sections of one regeneration on a committed tree,
    each rewriting it in turn, all record a clean tree."""
    def git(*args: str) -> str | None:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git(
        "status", "--porcelain", "--untracked-files=no",
        "--", ".", f":(exclude){OUT.name}",
    )
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
        "git_rev": git("rev-parse", "--short", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def _batch_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.adversaries import EpochTargetJammer, SilentAdversary
    from repro.protocols import (
        OneToNBroadcast,
        OneToNParams,
        OneToOneBroadcast,
        OneToOneParams,
    )

    p11 = OneToOneParams.sim()
    pn = OneToNParams.sim()
    return {
        "e1_style_one_to_one": (
            lambda: OneToOneBroadcast(p11),
            lambda: EpochTargetJammer(
                p11.first_epoch + 3, q=1.0, target_listener=True
            ),
            64,  # trials
            64,  # batch size
        ),
        "e6_style_one_to_n": (
            lambda: OneToNBroadcast(16, OneToNParams.sim()),
            lambda: EpochTargetJammer(pn.first_epoch + 1, q=0.9),
            16,
            16,
        ),
        # Batched twin of test_full_run_broadcast_n16 in the pytest set.
        "n16_broadcast_silent": (
            lambda: OneToNBroadcast(16),
            lambda: SilentAdversary(),
            8,
            8,
        ),
    }


def _one_trial_workloads():
    """Scalar-loop runs shaped like the ``oneone_serial`` bench
    workload: n=2, thousands of short sparse phases, one trial each."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.adversaries import EpochTargetJammer
    from repro.protocols import KSYOneToOne, OneToOneBroadcast, OneToOneParams
    from repro.protocols.ksy import KSYParams

    fig1 = OneToOneParams.sim(epsilon=0.1)
    ksy = KSYParams.sim()
    return {
        "fig1_epoch_target": (
            lambda: OneToOneBroadcast(fig1),
            lambda: EpochTargetJammer(
                fig1.first_epoch + 3, q=1.0, target_listener=True
            ),
        ),
        "ksy_epoch_target": (
            lambda: KSYOneToOne(ksy),
            lambda: EpochTargetJammer(
                ksy.first_epoch + 3, q=1.0, target_listener=True
            ),
        ),
    }


def _fig2_lockstep_cells():
    """Figure 2 broadcast cells shaped like the jammed cells of the
    ``broadcast_batched`` bench workload: n nodes, the epoch-target
    jammer at epoch 10 (q = 0.6), trials in one lockstep group."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.adversaries import EpochTargetJammer
    from repro.protocols import OneToNBroadcast, OneToNParams

    params = OneToNParams.sim()
    return {
        f"n{n}_jam10": (
            lambda n=n: OneToNBroadcast(n, params),
            lambda: EpochTargetJammer(10, q=0.6),
        )
        for n in (16, 64)
    }


def _mc_batch_workloads():
    """Multichannel workloads; entries carry their own simulator factory
    because ``MCSimulator`` needs ``n_channels`` at construction."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.multichannel import (
        CZBroadcast,
        CZParams,
        FractionJammer,
        MCEpochTargetJammer,
        MCSimulator,
    )
    from repro.protocols import OneToOneBroadcast, OneToOneParams

    n_channels = 8
    params = CZParams.sim(n_nodes=16, n_channels=n_channels)
    fig1 = OneToOneParams.sim()

    def mk_p():
        return CZBroadcast(params)

    def mk_a():
        return FractionJammer(0.05, max_total=2000)

    def mk_sim():
        return MCSimulator(mk_p(), mk_a(), n_channels, max_slots=2_000_000)

    def mk_fig1():
        return OneToOneBroadcast(fig1)

    def mk_silent():
        return MCEpochTargetJammer(0)

    def mk_fig1_sim():
        return MCSimulator(mk_fig1(), mk_silent(), n_channels)

    return {
        # E18-shaped: Chen-Zheng broadcast vs an eps-fraction jammer at C=8.
        "e18_style_cz_fraction": (mk_p, mk_a, mk_sim, 32, 32),
        # E15-shaped (Part A): unchanged Figure 1 at C=8 against a silent
        # MCEpochTargetJammer, in the groups of 8 the multichannel bench
        # workload runs E15 with.
        "e15_style_fig1_silent": (mk_fig1, mk_silent, mk_fig1_sim, 64, 8),
    }


def bench_batch(repeats: int = 3) -> int:
    """Time run_batch against serial run loops; merge into the record.

    Since the lockstep batched-protocol layer (``next_phase_batch`` /
    ``observe_batch``) the per-trial Python floor is gone: protocol
    state advances as stacked arrays, so replicate-shaped 1-to-1 sweeps
    gain ~5x and event-heavy 1-to-n workloads ~1.5-2.5x; on the
    multichannel engine (``MCSimulator.run_batch``) the E18-style
    workload gains ~2.9x and the E15-style one, groups of 8 short
    Figure 1 runs, ~1.7x.  Each timing is the best of ``repeats`` runs to damp
    scheduler noise, and every batched result is asserted equal to its
    serial twin (the bench doubles as a byte-identity check).
    """
    from repro.engine.simulator import Simulator

    workloads = {
        name: (
            mk_p,
            mk_a,
            (lambda mk_p=mk_p, mk_a=mk_a: Simulator(mk_p(), mk_a())),
            n_trials,
            batch_size,
        )
        for name, (mk_p, mk_a, n_trials, batch_size) in
        _batch_workloads().items()
    }
    workloads.update(_mc_batch_workloads())

    section = {}
    for name, (mk_p, mk_a, mk_sim, n_trials, batch_size) in workloads.items():
        seeds = list(range(n_trials))
        mk_sim().run(0)  # warm caches / imports

        serial_s = batch_s = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            serial = [mk_sim().run(s) for s in seeds]
            serial_s = min(serial_s, time.perf_counter() - t0)

            t0 = time.perf_counter()
            batched = []
            for i in range(0, n_trials, batch_size):
                chunk = seeds[i : i + batch_size]
                batched.extend(
                    mk_sim().run_batch(
                        chunk, adversaries=[mk_a() for _ in chunk]
                    )
                )
            batch_s = min(batch_s, time.perf_counter() - t0)

            for a, b in zip(serial, batched):  # bench doubles as a check
                assert a.adversary_cost == b.adversary_cost
                assert list(a.node_costs) == list(b.node_costs)
        section[name] = {
            "n_trials": n_trials,
            "batch_size": batch_size,
            "repeats": repeats,
            "serial_s": serial_s,
            "batch_s": batch_s,
            "speedup": serial_s / batch_s,
        }
        print(
            f"  {name}: serial {serial_s:.2f}s, batch({batch_size}) "
            f"{batch_s:.2f}s -> {serial_s / batch_s:.2f}x"
        )

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["batch_vs_serial"] = section
    record["machine"] = _machine()
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


def bench_profile(quick: bool = False, write: bool | None = None) -> int:
    """Stage-breakdown of the batched E1-style replicate.

    Runs the workload once serially and once batched, each under a
    telemetry session, sums the ``stages`` split of the engine's
    ``sim.run`` / ``sim.run_batch`` spans, and reports each stage's
    share of the wall time (protocol / sampling / adversary / resolve /
    accounting) plus the residual loop overhead
    (``wall - sum(stages)``).  Then times the one-trial phases and the
    Figure 2 lockstep cells the module docstring describes.  ``quick``
    shrinks the trial counts for a CI smoke run and skips writing
    ``BENCH_engine.json``.
    """
    workloads = _batch_workloads()
    from repro.engine.simulator import Simulator
    from repro.telemetry import read_events, session

    mk_p, mk_a, n_trials, batch_size = workloads["e1_style_one_to_one"]
    if quick:
        n_trials = batch_size = 8
    if write is None:
        write = not quick
    seeds = list(range(n_trials))
    Simulator(mk_p(), mk_a()).run(0)  # warm caches / imports

    section = {"n_trials": n_trials, "batch_size": batch_size}
    for mode in ("serial", "batch"):
        with tempfile.TemporaryDirectory() as tmp, session(tmp) as sink:
            t0 = time.perf_counter()
            if mode == "serial":
                for s in seeds:
                    Simulator(mk_p(), mk_a()).run(s)
            else:
                for i in range(0, n_trials, batch_size):
                    chunk = seeds[i : i + batch_size]
                    Simulator(mk_p(), mk_a()).run_batch(
                        chunk, adversaries=[mk_a() for _ in chunk]
                    )
            wall = time.perf_counter() - t0
            prof: dict[str, float] = {}
            for event in read_events(sink.run_dir):
                for k, v in event["attrs"].get("stages", {}).items():
                    prof[k] = prof.get(k, 0.0) + v
        prof["loop_overhead"] = wall - sum(prof.values())
        section[mode] = {
            "wall_s": wall,
            "stages_s": {k: round(v, 6) for k, v in sorted(prof.items())},
            "stage_fractions": {
                k: round(v / wall, 4) for k, v in sorted(prof.items())
            },
        }
        parts = ", ".join(
            f"{k} {v / wall:.0%}" for k, v in sorted(prof.items())
        )
        print(f"  {mode}: wall {wall:.3f}s ({parts})")

    # One trial per run on the scalar loop: what each phase costs in
    # the sampler and the resolver, in microseconds.
    one_trial = {}
    for name, (mk_p, mk_a) in _one_trial_workloads().items():
        n_runs = 4 if quick else 40
        Simulator(mk_p(), mk_a()).run(0)  # warm caches / imports
        with tempfile.TemporaryDirectory() as tmp, session(tmp) as sink:
            for s in range(n_runs):
                Simulator(mk_p(), mk_a()).run(s)
            spans = [
                e["attrs"] for e in read_events(sink.run_dir)
                if e.get("name") == "sim.run"
            ]
        phases = sum(a["phases"] for a in spans)
        per_phase = {
            k: round(sum(a["stages"][k] for a in spans) / phases * 1e6, 2)
            for k in sorted(spans[0]["stages"])
        }
        one_trial[name] = {
            "runs": n_runs,
            "phases": phases,
            "events_per_phase": round(
                sum(a["events"] for a in spans) / phases, 1
            ),
            "stage_us_per_phase": per_phase,
        }
        print(
            f"  one-trial {name}: {phases} phases, sampling "
            f"{per_phase['sampling']:.1f} us/phase, resolve "
            f"{per_phase['resolve']:.1f} us/phase"
        )

    # Figure 2 on the lockstep loop: how its steps split over the
    # stages, read from the sim.run_batch spans.  Printed in seconds, so
    # the smoke run's per-stage percentage lines stay the two above.
    fig2 = {}
    for name, (mk_p, mk_a) in _fig2_lockstep_cells().items():
        seeds = list(range(2 if quick else 8))
        with tempfile.TemporaryDirectory() as tmp, session(tmp) as sink:
            Simulator(mk_p(), mk_a()).run_batch(
                seeds, adversaries=[mk_a() for _ in seeds]
            )
            spans = [
                e for e in read_events(sink.run_dir)
                if e.get("name") == "sim.run_batch"
            ]
        wall = sum(e["dur"] for e in spans)
        prof = {
            k: sum(e["attrs"]["stages"][k] for e in spans)
            for k in sorted(spans[0]["attrs"]["stages"])
        }
        prof["loop_overhead"] = wall - sum(prof.values())
        fig2[name] = {
            "trials": len(seeds),
            "phases": sum(e["attrs"]["phases"] for e in spans),
            "events": sum(e["attrs"]["events"] for e in spans),
            "wall_s": round(wall, 6),
            "stages_s": {k: round(v, 6) for k, v in sorted(prof.items())},
            "stage_fractions": {
                k: round(v / wall, 4) for k, v in sorted(prof.items())
            },
        }
        parts = ", ".join(f"{k} {v:.2f}s" for k, v in sorted(prof.items()))
        print(f"  fig2 lockstep {name}: wall {wall:.2f}s ({parts})")

    if write:
        record = json.loads(OUT.read_text()) if OUT.exists() else {}
        record["batch_profile"] = {"e1_style_one_to_one": section}
        record["one_trial_phases"] = one_trial
        record["fig2_lockstep"] = fig2
        record["machine"] = _machine()
        OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {OUT}")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if "--profile" in argv:
        return bench_profile(quick="--quick" in argv)
    if "--batch" in argv:
        return bench_batch()
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            str(ROOT / "benchmarks" / "test_engine_micro.py"),
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
            "-q",
            *sys.argv[1:],
        ]
        proc = subprocess.run(cmd, cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
        raw = json.loads(raw_path.read_text())

    benchmarks = {}
    for b in raw["benchmarks"]:
        benchmarks[b["name"]] = {
            "mean_s": b["stats"]["mean"],
            "stddev_s": b["stats"]["stddev"],
            "rounds": b["stats"]["rounds"],
        }

    # Headline numbers: sparse resolver vs dense oracle on the huge
    # sparse-traffic phases (L = 2**20, ~64 events).
    speedups = {}
    for jam in ("suffix", "epoch"):
        sparse = benchmarks.get(f"test_resolve_phase_sparse_large_L[{jam}]")
        dense = benchmarks.get(f"test_resolve_phase_dense_oracle_large_L[{jam}]")
        if sparse and dense:
            speedups[jam] = {
                "sparse_mean_s": sparse["mean_s"],
                "dense_mean_s": dense["mean_s"],
                "speedup": dense["mean_s"] / sparse["mean_s"],
            }

    OUT.write_text(
        json.dumps(
            {
                "machine": _machine(),
                "sparse_vs_dense_large_L": speedups,
                "benchmarks": benchmarks,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {OUT}")
    for jam, s in speedups.items():
        print(
            f"  L=2**20 {jam} jam: sparse {s['sparse_mean_s'] * 1e6:.1f} us, "
            f"dense {s['dense_mean_s'] * 1e6:.1f} us -> {s['speedup']:.0f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
