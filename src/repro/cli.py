"""Command-line interface.

::

    repro-bcast list                 # what experiments exist
    repro-bcast run E1               # quick mode
    repro-bcast run E1 --full        # full sweep (what EXPERIMENTS.md records)
    repro-bcast run E1 --full -j 4   # same results, four worker processes
    repro-bcast run E1 --full -B 16  # same results, 16 trials per task
    repro-bcast run all --seed 7 --jobs 0 --timeout 600
    repro-bcast run E1 --cache       # memoize cells; re-runs are warm
    repro-bcast cache stats          # census of the result cache
    repro-bcast cache gc --max-bytes 500M
    repro-bcast run E1 --telemetry   # record a structured event log
    repro-bcast telemetry summarize  # render it (spans/counters/gauges)
    python -m repro.cli run E5       # equivalent module form
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.experiments import RunConfig, list_experiments, run_experiment
from repro.experiments.registry import DEFAULT_BATCH


def _batch_size(text: str) -> int:
    """``--batch`` values: an int >= 1, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bcast",
        description=(
            "Reproduction harness for '(Near) Optimal Resource-Competitive "
            "Broadcast with Jamming' (SPAA 2014)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id (E1..E17, A1, A3-A6, or 'all')")
    run_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    run_p.add_argument(
        "--full", action="store_true",
        help="full sweep instead of the quick CI-sized one",
    )
    run_p.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for replication fan-out "
             "(1 = serial, 0 = one per core; results are bit-identical "
             "for any N)",
    )
    run_p.add_argument(
        "--batch", "-B", type=_batch_size, default=DEFAULT_BATCH,
        metavar="B",
        help="most trials per executor task: pack up to B replications, "
             "across sweep cells, into one lockstep run_batch call; with "
             "--jobs N the trials are split so all N workers get work "
             f"(default {DEFAULT_BATCH}; 1 = one run per task; results "
             "are bit-identical for any B)",
    )
    run_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock limit (a task of k trials gets k "
             "times it); an overrunning worker is killed and the task "
             "retried instead of wedging the sweep",
    )
    run_p.add_argument(
        "--save", metavar="DIR",
        help="save each report as DIR/<eid>.json for later comparison",
    )
    run_p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="serve (sweep point, replication) cells from the "
             "content-addressed result cache and write misses back; an "
             "interrupted sweep resumes from its finished cells "
             "(--no-cache disables)",
    )
    run_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache location (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    run_p.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="consult existing cache entries (--no-resume recomputes "
             "every cell but still refreshes the cache)",
    )
    run_p.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="DIR",
        help="record a structured event log (task spans, cache counters, "
             "phase timings) plus a run manifest under DIR (default: "
             "$REPRO_TELEMETRY_DIR or ./.repro-telemetry); reports are "
             "byte-identical with or without it — inspect with "
             "'repro-bcast telemetry summarize'",
    )
    run_p.add_argument(
        "--pool", action="store_true",
        help="keep one pool of long-lived worker processes across every "
             "experiment in the invocation instead of forking per task "
             "batch (needs --jobs > 1; results are bit-identical either "
             "way)",
    )

    cache_p = sub.add_parser(
        "cache",
        help="inspect or maintain the result cache "
             "(see 'run --cache')",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, text in (
        ("stats", "entry/segment/byte census of the cache"),
        ("gc", "compact the cache and bound its size"),
        ("clear", "delete every cache entry"),
    ):
        p = cache_sub.add_parser(name, help=text)
        p.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="cache location (default: $REPRO_CACHE_DIR or ./.repro-cache)",
        )
        if name == "gc":
            p.add_argument(
                "--max-bytes", metavar="N", default=None,
                help="size bound, with optional K/M/G suffix "
                     "(default 256M)",
            )

    cmp_p = sub.add_parser(
        "compare",
        help="diff two saved reports of the same experiment "
             "(regression detection)",
    )
    cmp_p.add_argument("old", help="baseline report JSON")
    cmp_p.add_argument("new", help="candidate report JSON")

    duel_p = sub.add_parser(
        "duel",
        help="sweep adversary budgets and chart cost-vs-T for the 1-to-1 "
             "protocols (ASCII, log-log)",
    )
    duel_p.add_argument("--seed", type=int, default=0)
    duel_p.add_argument(
        "--points", type=int, default=5, help="sweep points (default 5)"
    )
    duel_p.add_argument(
        "--reps", type=int, default=3, help="replications per point (default 3)"
    )
    duel_p.add_argument(
        "--adversary", default="default", metavar="FAMILY",
        help="attack family swept against all three protocols; 'default' "
             "keeps the historic pairing (epoch-target blocking vs the "
             "randomized protocols, full suffix jam vs deterministic). "
             "See 'repro-bcast arena search --help' for the searchable "
             "space behind these families.",
    )

    arena_p = sub.add_parser(
        "arena",
        help="adversarial strategy search, attack corpus, and tournaments "
             "(repro.arena)",
    )
    arena_sub = arena_p.add_subparsers(dest="arena_command", required=True)

    search_p = arena_sub.add_parser(
        "search",
        help="search the adversary genome space for the strongest attack",
    )
    search_p.add_argument("--seed", type=int, default=0)
    search_p.add_argument(
        "--protocol", default="fig1",
        help="defender preset to attack (default fig1)",
    )
    search_p.add_argument(
        "--algo", choices=("evolve", "random"), default="evolve",
        help="evolutionary (mu+lambda) or pure random search",
    )
    search_p.add_argument(
        "--generations", type=int, default=3,
        help="evolutionary generations (default 3)",
    )
    search_p.add_argument(
        "--population", type=int, default=8,
        help="genomes per generation (default 8)",
    )
    search_p.add_argument(
        "--iterations", type=int, default=24,
        help="random-search samples when --algo random (default 24)",
    )
    search_p.add_argument(
        "--reps", type=int, default=3,
        help="replications per genome evaluation (default 3)",
    )
    search_p.add_argument(
        "--full", action="store_true",
        help="full-size budget range instead of the quick CI-sized one",
    )
    search_p.add_argument(
        "--top", type=int, default=10, help="leaderboard rows shown (default 10)"
    )
    search_p.add_argument(
        "--corpus", metavar="PATH", default=None,
        help="append the best attack found to this JSONL corpus",
    )
    search_p.add_argument(
        "--save", metavar="DIR",
        help="save the leaderboard report as DIR/ARENA-SEARCH.json",
    )

    tour_p = arena_sub.add_parser(
        "tournament",
        help="duel every defender preset against a fixed strategy roster",
    )
    tour_p.add_argument("--seed", type=int, default=0)
    tour_p.add_argument(
        "--protocols", default=None, metavar="A,B,...",
        help="comma-separated defender presets (default: all)",
    )
    tour_p.add_argument(
        "--reps", type=int, default=3,
        help="replications per matrix cell (default 3)",
    )
    tour_p.add_argument(
        "--save", metavar="DIR",
        help="save the matrix report as DIR/ARENA.json",
    )

    replay_p = arena_sub.add_parser(
        "replay",
        help="re-run corpus attacks and fail loudly on any drift",
    )
    replay_p.add_argument(
        "fingerprint", nargs="?", default=None,
        help="entry to replay (unambiguous prefix ok; default: all)",
    )
    replay_p.add_argument(
        "--corpus", metavar="PATH", default=".repro-arena/corpus.jsonl",
    )

    corpus_p = arena_sub.add_parser(
        "corpus", help="list the attack corpus, strongest first"
    )
    corpus_p.add_argument(
        "--corpus", metavar="PATH", default=".repro-arena/corpus.jsonl",
    )
    corpus_p.add_argument(
        "--shrink", metavar="FP", default=None,
        help="greedily minimize this entry's genome and store the result",
    )

    for p in (search_p, tour_p, replay_p, corpus_p):
        p.add_argument(
            "--jobs", "-j", type=int, default=1, metavar="N",
            help="worker processes (results are bit-identical for any N)",
        )
        p.add_argument(
            "--batch", "-B", type=_batch_size, default=DEFAULT_BATCH,
            metavar="B",
            help=f"most trials per executor task (default {DEFAULT_BATCH}; "
                 "results are bit-identical for any B)",
        )
        p.add_argument(
            "--telemetry", nargs="?", const="", default=None, metavar="DIR",
            help="record a structured event log under DIR (default: "
                 "$REPRO_TELEMETRY_DIR or ./.repro-telemetry)",
        )

    tele_p = sub.add_parser(
        "telemetry",
        help="inspect structured run telemetry (see 'run --telemetry')",
    )
    tele_sub = tele_p.add_subparsers(dest="telemetry_command", required=True)
    tele_sum_p = tele_sub.add_parser(
        "summarize",
        help="render a human summary (spans, counters, gauges) of one "
             "run's event log",
    )
    tele_tail_p = tele_sub.add_parser(
        "tail", help="print the last raw event records of one run"
    )
    tele_tail_p.add_argument(
        "-n", "--lines", type=int, default=20, metavar="N",
        help="records to print (default 20)",
    )
    tele_tail_p.add_argument(
        "-f", "--follow", action="store_true",
        help="keep printing new records as the run appends them "
             "(exits on the run.end event or Ctrl-C; survives log "
             "rotation)",
    )
    for p in (tele_sum_p, tele_tail_p):
        p.add_argument(
            "run", nargs="?", default=None,
            help="run id or run directory (default: the latest run)",
        )
        p.add_argument(
            "--dir", dest="telemetry_dir", metavar="DIR", default=None,
            help="telemetry root (default: $REPRO_TELEMETRY_DIR or "
                 "./.repro-telemetry)",
        )

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep-job service: an HTTP server that dedupes "
             "identical requests, shares one worker pool and result "
             "cache across all clients, and streams per-job progress "
             "(repro.service)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="listen port (default 0 = pick an ephemeral port and "
             "print it)",
    )
    serve_p.add_argument(
        "--jobs", "-j", type=int, default=0, metavar="N",
        help="worker processes in the persistent pool (default 0 = one "
             "per core, 1 = serial)",
    )
    serve_p.add_argument(
        "--batch", "-B", type=_batch_size, default=DEFAULT_BATCH,
        metavar="B",
        help=f"most trials per executor task (default {DEFAULT_BATCH}; "
             "results are bit-identical for any B)",
    )
    serve_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result cache shared by every job (default: "
             "$REPRO_CACHE_DIR or ./.repro-cache)",
    )
    serve_p.add_argument(
        "--telemetry", metavar="DIR", default="",
        help="root for per-job telemetry runs, which also feed the "
             "/events progress stream (default: $REPRO_TELEMETRY_DIR "
             "or ./.repro-telemetry)",
    )
    serve_p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable per-job telemetry (the /events stream then only "
             "carries job state changes)",
    )

    submit_p = sub.add_parser(
        "submit",
        help="submit one experiment to a running sweep service and "
             "fetch the result",
    )
    submit_p.add_argument("url", help="service URL, e.g. http://127.0.0.1:8642")
    submit_p.add_argument("experiment", help="experiment id (E1..E17, A1, ...)")
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument(
        "--full", action="store_true",
        help="full sweep instead of the quick CI-sized one",
    )
    submit_p.add_argument(
        "--save", metavar="PATH", default=None,
        help="write the report bytes to PATH (byte-identical to a local "
             "'run --save' of the same config)",
    )
    submit_p.add_argument(
        "--follow", action="store_true",
        help="stream the job's progress events while it runs",
    )
    submit_p.add_argument(
        "--no-wait", action="store_true",
        help="submit and print the job id without waiting for the result",
    )
    submit_p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (default: no limit)",
    )

    status_p = sub.add_parser(
        "status",
        help="show a sweep service's health and jobs (or one job)",
    )
    status_p.add_argument("url", help="service URL")
    status_p.add_argument(
        "job_id", nargs="?", default=None,
        help="job to show (default: server counters + every job)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run one small 1-to-1 exchange at slot resolution, audit the "
             "engine by replay, and print per-slot timelines",
    )
    trace_p.add_argument("--seed", type=int, default=7)
    trace_p.add_argument(
        "--jam", type=float, default=0.75,
        help="suffix jam fraction (default 0.75)",
    )
    trace_p.add_argument(
        "--budget", type=int, default=600, help="adversary budget (default 600)"
    )
    trace_p.add_argument(
        "--phases", type=int, default=3, help="timelines to print (default 3)"
    )
    return parser


def _trace(seed: int, jam: float, budget: int, n_phases: int) -> int:
    """The `trace` subcommand: slot-microscope in the terminal."""
    from repro.adversaries import BudgetCap, SuffixJammer
    from repro.engine.simulator import Simulator
    from repro.protocols import OneToOneBroadcast, OneToOneParams
    from repro.trace import TraceRecorder, timeline, verify_trace

    recorder = TraceRecorder()
    sim = Simulator(
        OneToOneBroadcast(OneToOneParams.sim()),
        BudgetCap(SuffixJammer(jam), budget=budget),
        trace=recorder,
    )
    result = sim.run(seed)
    verified = verify_trace(recorder)
    print(
        f"success={result.success}  T={result.adversary_cost}  "
        f"costs={result.node_costs.tolist()}  phases={result.phases}  "
        f"(replay audit: {verified} phases exact)"
    )
    print("glyphs: S sent/delivered, x sent/lost, M heard m, n heard noise,")
    print("        . heard clear, space asleep, # jammed")
    print()
    for t in recorder.phases[:n_phases]:
        print(timeline(t, max_width=100))
        print()
    return 0


def _duel(seed: int, points: int, reps: int, adversary: str = "default") -> int:
    """The `duel` subcommand: Figure 1 vs KSY vs deterministic.

    The sweep itself lives in :func:`repro.arena.tournament.duel`; the
    default output is byte-identical to the historic hardcoded version.
    """
    from repro.arena.tournament import duel

    print(duel(seed, points, reps, adversary))
    return 0


def _arena(args) -> int:
    """The `arena` subcommand group: search / tournament / replay / corpus."""
    from pathlib import Path

    from repro.arena.corpus import AttackCorpus, AttackRecord, shrink
    from repro.arena.search import evolve, random_search
    from repro.arena.space import (
        default_space,
        multichannel_space,
        protocol_channels,
        protocol_factory,
    )
    from repro.experiments import RunConfig
    from repro.experiments.registry import ExperimentReport

    config = RunConfig(jobs=args.jobs, batch=args.batch)

    if args.arena_command == "search":
        # A multichannel preset (cz-c*) implies the multichannel engine
        # and the mc_* genome families; no extra flag needed.
        n_channels = protocol_channels(args.protocol)
        space = (
            multichannel_space(quick=not args.full)
            if n_channels is not None
            else default_space(quick=not args.full)
        )
        make = protocol_factory(args.protocol)
        if args.algo == "random":
            result = random_search(
                space, make, iterations=args.iterations,
                n_reps=args.reps, seed=args.seed, config=config,
                n_channels=n_channels,
            )
            found_by = "random_search"
        else:
            result = evolve(
                space, make, generations=args.generations,
                population=args.population, n_reps=args.reps,
                seed=args.seed, config=config, n_channels=n_channels,
            )
            found_by = "evolve"
        report = ExperimentReport(
            eid="ARENA-SEARCH",
            title=f"adversary search vs {args.protocol} ({found_by})",
            anchor="Theorems 1+2 (worst case over adversaries)",
            tables=[result.table(top=args.top)],
        )
        best = result.best
        report.notes.append(
            f"best: {best.genome.describe_short()} "
            f"[{best.fingerprint[:12]}] index {best.index:.3f} "
            f"T={best.mean_T:.0f} cost={best.mean_cost:.0f}"
        )
        print(report.render())
        if args.corpus:
            corpus = AttackCorpus(args.corpus)
            record = AttackRecord.from_evaluation(
                best, protocol=args.protocol, seed=args.seed,
                baseline=result.baseline, found_by=found_by,
            )
            added = corpus.add(record)
            print(
                f"corpus: {'recorded' if added else 'already has'} "
                f"{record.fingerprint[:12]} ({len(corpus)} entries)"
            )
        if args.save:
            from repro.store import save_report

            out = save_report(report, Path(args.save) / f"{report.eid}.json")
            print(f"saved {out}")
        return 0

    if args.arena_command == "tournament":
        from repro.arena.tournament import tournament

        protocols = (
            [p.strip() for p in args.protocols.split(",") if p.strip()]
            if args.protocols else None
        )
        report = tournament(
            protocols, n_reps=args.reps, seed=args.seed, config=config
        )
        print(report.render())
        if args.save:
            from repro.store import save_report

            out = save_report(report, Path(args.save) / f"{report.eid}.json")
            print(f"saved {out}")
        return 1 if not report.all_checks_pass else 0

    corpus = AttackCorpus(args.corpus)
    space = default_space()

    if args.arena_command == "replay":
        records = (
            [corpus.get(args.fingerprint)]
            if args.fingerprint else corpus.records()
        )
        if not records:
            print("corpus is empty")
            return 0
        for record in records:
            corpus.replay(record, space, config)
            print(
                f"replayed {record.fingerprint[:12]} "
                f"({record.genome.describe_short()} vs {record.protocol}): "
                f"exact"
            )
        return 0

    # corpus: list entries (optionally shrink one)
    if args.shrink:
        record = corpus.get(args.shrink)
        small = shrink(record, space, config=config)
        changed = small.fingerprint != record.fingerprint
        if changed:
            corpus.add(small)
        print(
            f"shrunk {record.genome.describe_short()} -> "
            f"{small.genome.describe_short()} "
            f"(index {record.index:.2f} -> {small.index:.2f}"
            f"{', recorded' if changed else ', no simpler form held'})"
        )
    for record in corpus.records():
        print(
            f"{record.fingerprint[:12]}  index {record.index:8.2f}  "
            f"T {record.mean_T:8.0f}  vs {record.protocol:<13}  "
            f"{record.genome.describe_short()}  [{record.found_by}]"
        )
    if not len(corpus):
        print("corpus is empty")
    return 0


def _maybe_telemetry(args, command: str, **manifest):
    """Telemetry session for a ``--telemetry`` flag, or a no-op context.

    Yields the active sink (``None`` when telemetry is off) so callers
    can report where the event log went.
    """
    import contextlib

    if getattr(args, "telemetry", None) is None:
        return contextlib.nullcontext(None)
    from repro.telemetry import session

    return session(
        args.telemetry or None, manifest={"command": command, **manifest}
    )


def _telemetry_cmd(args) -> int:
    """The `telemetry` subcommand: summarize / tail [--follow]."""
    import json

    from repro.errors import TelemetryError
    from repro.telemetry import (
        default_telemetry_dir,
        follow_events,
        resolve_run,
        summarize,
        tail,
    )

    root = (
        args.telemetry_dir if args.telemetry_dir is not None
        else default_telemetry_dir()
    )
    try:
        run_dir = resolve_run(args.run, root)
    except TelemetryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.telemetry_command == "summarize":
        print(summarize(run_dir))
        return 0
    if not args.follow:
        print(tail(run_dir, args.lines))
        return 0
    try:
        for event in follow_events(run_dir):
            print(
                json.dumps(event, sort_keys=True, separators=(",", ":")),
                flush=True,
            )
            if event.get("ev") == "event" and event.get("name") == "run.end":
                return 0
    except KeyboardInterrupt:
        return 0
    return 0


def _serve(args) -> int:
    """The `serve` subcommand: run the sweep-job service until Ctrl-C."""
    from repro.service import JobManager, serve
    from repro.telemetry import default_telemetry_dir

    telemetry_root = (
        None if args.no_telemetry
        else (args.telemetry or default_telemetry_dir())
    )
    manager = JobManager(
        jobs=args.jobs,
        batch=args.batch,
        cache_dir=args.cache_dir,
        telemetry_root=telemetry_root,
    )

    def ready(server):
        # The bound URL goes to stdout first (and flushed) so scripts
        # that launch `serve --port 0` in the background can read it.
        print(f"serving on {server.url}", flush=True)
        print(
            f"cache: {manager.store.root}  telemetry: "
            f"{telemetry_root if telemetry_root is not None else '(off)'}  "
            f"pool: {manager.pool.jobs if manager.pool else 'serial'}",
            flush=True,
        )

    try:
        serve(manager, args.host, args.port, ready=ready)
    finally:
        manager.close()
    return 0


def _submit(args) -> int:
    """The `submit` subcommand: one job against a running service."""
    import json
    from pathlib import Path

    from repro.service import ServiceClient

    with ServiceClient(args.url) as client:
        job = client.submit(
            args.experiment, seed=args.seed, quick=not args.full,
            wait=False,
        )
        job_id = job["job_id"]
        print(f"job {job_id}: {job['state']} ({job['submissions']} submission(s))")
        if args.no_wait:
            return 0
        if args.follow:
            for event in client.events(job_id):
                print(
                    json.dumps(event, sort_keys=True, separators=(",", ":")),
                    flush=True,
                )
        body = client.result(job_id, wait=True, timeout=args.timeout)
        job = client.status(job_id)
    if args.save:
        out = Path(args.save)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(body)
        print(f"saved {out} ({len(body)} bytes)")
    else:
        sys.stdout.write(body.decode("utf-8"))
        sys.stdout.write("\n")
    stats = job.get("stats") or {}
    if stats:
        print(
            f"(elapsed {job['elapsed']:.2f}s; tasks={stats.get('tasks')} "
            f"backend={stats.get('backend') or 'cache'} "
            f"cache {stats.get('cache_hits')}/{stats.get('cache_hits', 0) + stats.get('cache_misses', 0)} warm)",
            file=sys.stderr,
        )
    return 0


def _status(args) -> int:
    """The `status` subcommand: server counters and job table."""
    import json

    from repro.service import ServiceClient

    with ServiceClient(args.url) as client:
        if args.job_id:
            print(json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
            return 0
        health = client.health()
        counters = health["counters"]
        cache = counters.get("cache", {})
        print(
            f"service {args.url}: ok (v{health['version']}), "
            f"{counters['submitted']} submitted / {counters['deduped']} deduped "
            f"/ {counters['executed']} executed / {counters['failed']} failed"
        )
        print(
            f"cache: {cache.get('memory_hits', 0)} memory hits, "
            f"{cache.get('disk_hits', 0)} disk hits, "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('entries', 0)} entries in memory"
        )
        if "pool" in counters:
            pool = counters["pool"]
            print(
                f"pool: {pool['alive_workers']}/{pool['jobs']} workers alive, "
                f"{pool['spawned_total']} spawned over the server's lifetime"
            )
        for job in client.jobs():
            spec = job["spec"]
            elapsed = (
                f"{job['elapsed']:8.2f}s" if job["elapsed"] is not None
                else "       —"
            )
            print(
                f"{job['job_id']}  {job['state']:<9} {elapsed}  "
                f"{spec['experiment']:<4} seed={spec['seed']} "
                f"quick={spec['quick']}  x{job['submissions']}"
            )
    return 0


def _parse_size(text: str | None, default: int) -> int:
    """Parse a byte count with an optional K/M/G suffix ('500M')."""
    if text is None:
        return default
    text = text.strip().upper()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    digits = text[:-1] if scale != 1 else text
    return int(digits) * scale


def _cache_cmd(args) -> int:
    """The `cache` subcommand: stats / gc / clear."""
    from repro.cache import DEFAULT_GC_BYTES, CacheStore, default_cache_dir

    store = CacheStore(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    if args.cache_command == "stats":
        print(store.stats().render())
        return 0
    if args.cache_command == "gc":
        freed = store.gc(_parse_size(args.max_bytes, DEFAULT_GC_BYTES))
        print(f"freed {freed} bytes")
        print(store.stats().render())
        return 0
    freed = store.clear()
    print(f"cleared {freed} bytes")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "cache":
        return _cache_cmd(args)

    if args.command == "telemetry":
        return _telemetry_cmd(args)

    if args.command == "list":
        for exp in list_experiments():
            print(f"{exp.eid:4s} {exp.title}  [{exp.anchor}]")
        return 0

    if args.command == "duel":
        return _duel(args.seed, args.points, args.reps, args.adversary)

    if args.command == "arena":
        with _maybe_telemetry(
            args, f"arena {args.arena_command}",
            seed=getattr(args, "seed", None), jobs=args.jobs,
        ) as sink:
            code = _arena(args)
            if sink is not None:
                print(f"telemetry: {sink.run_dir}")
        return code

    if args.command in ("serve", "submit", "status"):
        from repro.errors import ServiceError

        handler = {"serve": _serve, "submit": _submit, "status": _status}
        try:
            return handler[args.command](args)
        except ServiceError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 130

    if args.command == "compare":
        from repro.store import compare_reports, load_report

        diff = compare_reports(load_report(args.old), load_report(args.new))
        print(diff.render())
        return 1 if diff.is_regression else 0

    if args.command == "trace":
        return _trace(args.seed, args.jam, args.budget, args.phases)

    ids = (
        [e.eid for e in list_experiments()]
        if args.experiment.lower() == "all"
        else [args.experiment]
    )
    pool = None
    if args.pool:
        # One pool of long-lived workers shared across every experiment
        # in this invocation (most useful with `run all`): the fork
        # cost is paid once instead of once per task batch.
        from repro.engine.executor import WorkerPool

        pool = WorkerPool(args.jobs)
    failures = 0
    try:
        with _maybe_telemetry(
            args, "run",
            experiments=ids, seed=args.seed, quick=not args.full,
            jobs=args.jobs,
            config_fingerprint=RunConfig(
                seed=args.seed, quick=not args.full
            ).fingerprint(),
        ) as sink:
            for eid in ids:
                config = RunConfig(
                    seed=args.seed,
                    quick=not args.full,
                    jobs=args.jobs,
                    batch=args.batch,
                    timeout=args.timeout,
                    cache=args.cache,
                    cache_dir=args.cache_dir,
                    resume=args.resume,
                    pool=pool,
                )
                t0 = time.perf_counter()
                report = run_experiment(eid, config)
                elapsed = time.perf_counter() - t0
                print(report.render())
                if config.stats.tasks or config.stats.cache_requests:
                    print(f"({elapsed:.1f}s; {config.stats.summary()})")
                else:
                    print(f"({elapsed:.1f}s)")
                print()
                if args.save:
                    from pathlib import Path

                    from repro.store import save_report

                    out = save_report(
                        report, Path(args.save) / f"{report.eid}.json"
                    )
                    print(f"saved {out}")
                failures += sum(not ok for ok in report.checks.values())
            if sink is not None:
                print(f"telemetry: {sink.run_dir}")
    finally:
        if pool is not None:
            pool.close()
    if failures:
        print(f"{failures} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
