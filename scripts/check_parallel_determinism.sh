#!/usr/bin/env bash
# CI gate: neither parallel execution nor the result cache may change
# the science.
#
# 1. Runs the `parallel`-marked pytest suite (executor determinism,
#    report byte-identity across jobs counts).
# 2. Runs the `cache`-marked pytest suite (fingerprints, store,
#    checkpoint/resume).
# 3. Runs the `engine`-marked pytest suite (sparse/dense resolver
#    differential oracle, half-duplex and ground-truth pins, and whole
#    E1, E15 and E18 reports byte-identical with the dense oracle
#    patched into both phase loops, E1 at batch 1, at batch 8 and with
#    -j 2, E15 and E18 at batch 8).
# 3b. Runs `repro-bcast trace --seed 7` and `trace --seed 11 --jam 0.5`
#    twice each: a traced scalar run whose every phase is replayed
#    through `resolve_phase` (the one-trial call of the sparse kernel)
#    and the dense oracle.  Each must exit 0, report a positive
#    `phases exact` count, and print byte-identical stdout both times.
# The CLI's --batch defaults to 64 (a cap on trials per task, in
# lockstep groups that span a sweep's cells).  The pair gates below
# pass --batch 1 on the runs they compare, so each pair compares the
# scalar loop (one-trial groups) with the mode under test; the
# default-batch gates in steps 4, 6 and 12 compare the default itself
# with --batch 1.
#
# 4. Runs one experiment through the real CLI serially and with -j 2,
#    and requires the two saved reports to be byte-identical; then the
#    same -j 2 run at the default batch, whose groups are split over
#    both workers, against the same serial report.
# 5. Runs E1 through the CLI twice against the same cache directory and
#    requires the warm-cache report to be byte-identical to the cold
#    one, with every cell served from the cache.  A third run at
#    --batch 8 over the same directory must match too, again with every
#    cell a hit: batch 1 and batch 8 share one cache path.
# 6. Saves E1's --batch 1 report, the reference for steps 6b and 12,
#    and requires E1 at the default batch to match it.
# 6b. Runs E1 with --batch 8 and requires its saved report to be
#    byte-identical to the serial one — the end-to-end gate for the
#    trial-batched kernel.
# 6c. Same gate on E8 (n up to 64 broadcast, includes the n=16 point):
#    the batched *protocol* layer (next_phase_batch/observe_batch in
#    Simulator's shared lockstep run_batch loop) must leave multi-node
#    broadcast reports byte-identical too.  The bench's --profile smoke
#    run, which reads the engine's stage split from its telemetry
#    spans, must print all five stages plus the loop overhead.
# 7. Runs the `arena`-marked pytest suite (genome search, corpus
#    replay, tournaments).
# 8. Runs a fixed-seed arena search through the real CLI serially and
#    with -j 2 and requires the two saved leaderboard reports — which
#    embed the best genome's fingerprint — to be byte-identical, plus
#    the default `duel` chart to be byte-identical across repeats.
# 8b. Multichannel gate: runs E18 serially, with -j 2, and with
#    --batch 8 (all three reports byte-identical — the batched one is
#    the end-to-end gate for the shared lockstep run_batch loop on the
#    multichannel medium), then a fixed-seed arena search against the cz-c4
#    multichannel preset serially and with -j 2 (byte-identical
#    leaderboards), and replays the discovered attack from the corpus
#    demanding exact agreement.  E15, whose runs all play Figure 1 on
#    MCSimulator through the runner, gets the same three-way gate
#    (serial, -j 2, --batch 8), then runs twice over one cache
#    directory: the warm report must be byte-identical to the cold
#    one, with every cell a hit.
# 9. Runs the `telemetry`-marked pytest suite (sink, readers,
#    instrumentation coverage).
# 10. Runs E1 at --batch 1 with and without --telemetry and requires
#    the two saved reports to be byte-identical (telemetry is write-only
#    observability), plus `telemetry summarize` to render the run with
#    a stages table holding a `resolve` row for sim.run.  The same pair
#    at --batch 8 gates the lockstep loop: its summary must list a
#    sim.run_batch span and a `resolve` row for it.  Same for E15,
#    whose runs are all on MCSimulator: its summary must list a sim.run
#    span, which only the shared phase loop emits.
# 11. Runs the `service`-marked pytest suite (job dedupe, HTTP
#    server/client end-to-end, a client leaving an event stream, a
#    server SIGKILLed mid-job and restarted over the same cache).
# 12. Service smoke gate: starts `repro-bcast serve` (at its default
#    batch) in the background, submits the E1 sweep from step 6
#    through the real client, and requires (a) the returned report to
#    be byte-identical to step 6's --batch 1 one, (b) a warm
#    resubmission against a fresh server over the same cache directory
#    to be served 100% from the cache with zero executed task sets.
# 13. Baseline gate: runs every registered experiment and ablation
#    (`run all` at the default batch, quick mode, seed 0) and requires
#    each saved report to be byte-identical to its committed
#    `results/baseline/<eid>.json`, with no report missing or extra.
#    It fails on the first difference, or when the CLI exits 1 because
#    a claim check failed.  The pair gates above compare two modes that
#    could drift together; this one pins the bytes themselves.
#
# Usage: scripts/check_parallel_determinism.sh [extra pytest args]

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism suite (pytest -m parallel) =="
python -m pytest -q -m parallel "$@"

echo "== cache suite (pytest -m cache) =="
python -m pytest -q -m cache "$@"

echo "== engine suite (pytest -m engine) =="
python -m pytest -q -m engine "$@"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== trace replay audit: repro-bcast trace (sparse vs dense resolver) =="
for args in "--seed 7" "--seed 11 --jam 0.5"; do
    read -ra argv <<< "$args"
    python -m repro.cli trace "${argv[@]}" > "$tmp/trace-a.out"
    python -m repro.cli trace "${argv[@]}" > "$tmp/trace-b.out"
    if ! grep -Eq "replay audit: [1-9][0-9]* phases exact" "$tmp/trace-a.out"; then
        echo "FAIL: trace $args replayed no phase exactly" >&2
        cat "$tmp/trace-a.out" >&2
        exit 1
    fi
    if ! cmp "$tmp/trace-a.out" "$tmp/trace-b.out"; then
        echo "FAIL: trace $args output differs between two runs" >&2
        exit 1
    fi
    echo "OK: trace $args: $(grep -Eo "[0-9]+ phases exact" "$tmp/trace-a.out"), stdout byte-identical"
done

echo "== CLI byte-identity: repro-bcast run E4 vs run E4 -j 2 =="
python -m repro.cli run E4 --seed 11 --batch 1 --save "$tmp/serial" > /dev/null
python -m repro.cli run E4 --seed 11 --batch 1 -j 2 --save "$tmp/parallel" \
    > /dev/null
if ! cmp "$tmp/serial/E4.json" "$tmp/parallel/E4.json"; then
    echo "FAIL: parallel report differs from serial report" >&2
    exit 1
fi
echo "OK: E4 report byte-identical with -j 2"
python -m repro.cli run E4 --seed 11 -j 2 --save "$tmp/parallel-default" \
    > "$tmp/parallel-default.out"
if ! cmp "$tmp/serial/E4.json" "$tmp/parallel-default/E4.json"; then
    echo "FAIL: -j 2 report at the default batch differs from --batch 1" >&2
    exit 1
fi
if ! grep -q "backend=process" "$tmp/parallel-default.out"; then
    echo "FAIL: -j 2 at the default batch did not split over the workers" >&2
    cat "$tmp/parallel-default.out" >&2
    exit 1
fi
echo "OK: E4 report byte-identical with -j 2 at the default batch"

echo "== CLI byte-identity: cold vs warm cache (repro-bcast run E1 --cache) =="
python -m repro.cli run E1 --seed 11 --batch 1 --cache \
    --cache-dir "$tmp/cache" --save "$tmp/cold" > /dev/null
python -m repro.cli run E1 --seed 11 --batch 1 --cache \
    --cache-dir "$tmp/cache" --save "$tmp/warm" > "$tmp/warm.out"
if ! cmp "$tmp/cold/E1.json" "$tmp/warm/E1.json"; then
    echo "FAIL: warm-cache report differs from cold report" >&2
    exit 1
fi
if ! grep -q "(100%" "$tmp/warm.out"; then
    echo "FAIL: warm run was not served entirely from the cache" >&2
    cat "$tmp/warm.out" >&2
    exit 1
fi
python -m repro.cli run E1 --seed 11 --batch 8 --cache \
    --cache-dir "$tmp/cache" --save "$tmp/warm-b8" > "$tmp/warm-b8.out"
if ! cmp "$tmp/cold/E1.json" "$tmp/warm-b8/E1.json"; then
    echo "FAIL: warm --batch 8 report differs from cold report" >&2
    exit 1
fi
if ! grep -q "(100%" "$tmp/warm-b8.out"; then
    echo "FAIL: warm --batch 8 run was not served entirely from the cache" >&2
    cat "$tmp/warm-b8.out" >&2
    exit 1
fi
echo "OK: E1 report byte-identical cold vs warm (batch 1 and 8), 100% cache hits"

echo "== CLI byte-identity: --batch 1 vs the default batch (run E1) =="
python -m repro.cli run E1 --seed 11 --batch 1 --save "$tmp/sparse" > /dev/null
python -m repro.cli run E1 --seed 11 --save "$tmp/default" > /dev/null
if ! cmp "$tmp/sparse/E1.json" "$tmp/default/E1.json"; then
    echo "FAIL: default-batch report differs from the --batch 1 report" >&2
    exit 1
fi
echo "OK: E1 report byte-identical --batch 1 vs the default batch"

echo "== CLI byte-identity: serial vs trial-batched (run E1 -B 8) =="
python -m repro.cli run E1 --seed 11 --batch 8 --save "$tmp/batched" > /dev/null
if ! cmp "$tmp/sparse/E1.json" "$tmp/batched/E1.json"; then
    echo "FAIL: batched report differs from serial report" >&2
    exit 1
fi
echo "OK: E1 report byte-identical serial vs --batch 8"

echo "== CLI byte-identity: serial vs batched protocols (run E8 -B 8) =="
python -m repro.cli run E8 --seed 11 --batch 1 --save "$tmp/e8-serial" \
    > /dev/null
python -m repro.cli run E8 --seed 11 --batch 8 --save "$tmp/e8-batched" \
    > /dev/null
if ! cmp "$tmp/e8-serial/E8.json" "$tmp/e8-batched/E8.json"; then
    echo "FAIL: batched E8 report differs from serial report" >&2
    exit 1
fi
echo "OK: E8 report byte-identical serial vs --batch 8"

echo "== bench profile smoke run (bench_engine.py --profile --quick) =="
python scripts/bench_engine.py --profile --quick > "$tmp/profile.out"
cat "$tmp/profile.out"
for stage in protocol sampling adversary resolve accounting loop_overhead; do
    if [ "$(grep -c "$stage [0-9]*%" "$tmp/profile.out")" -ne 2 ]; then
        echo "FAIL: profile smoke run is missing the $stage stage" >&2
        exit 1
    fi
done
echo "OK: profile mode reads all five stages (and loop overhead) from telemetry"

echo "== arena suite (pytest -m arena) =="
python -m pytest -q -m arena "$@"

echo "== CLI byte-identity: arena search serial vs -j 2 =="
python -m repro.cli arena search --seed 11 --generations 2 --population 6 \
    --reps 2 --batch 1 --save "$tmp/arena-serial" > /dev/null
python -m repro.cli arena search --seed 11 --generations 2 --population 6 \
    --reps 2 --batch 1 -j 2 --save "$tmp/arena-parallel" > /dev/null
if ! cmp "$tmp/arena-serial/ARENA-SEARCH.json" \
         "$tmp/arena-parallel/ARENA-SEARCH.json"; then
    echo "FAIL: parallel arena search differs from serial" >&2
    exit 1
fi
echo "OK: arena search leaderboard (and best genome) byte-identical with -j 2"

echo "== multichannel gate: E18 serial vs -j 2, arena search over MC genomes =="
python -m repro.cli run E18 --seed 11 --batch 1 --save "$tmp/e18-serial" \
    > /dev/null
python -m repro.cli run E18 --seed 11 --batch 1 -j 2 \
    --save "$tmp/e18-parallel" > /dev/null
if ! cmp "$tmp/e18-serial/E18.json" "$tmp/e18-parallel/E18.json"; then
    echo "FAIL: parallel E18 report differs from serial report" >&2
    exit 1
fi
python -m repro.cli run E18 --seed 11 --batch 8 --save "$tmp/e18-batched" \
    > /dev/null
if ! cmp "$tmp/e18-serial/E18.json" "$tmp/e18-batched/E18.json"; then
    echo "FAIL: batched E18 report differs from serial report" >&2
    exit 1
fi
echo "OK: E18 report byte-identical serial vs --batch 8"
python -m repro.cli arena search --seed 11 --protocol cz-c4 \
    --generations 1 --population 4 --reps 2 --batch 1 \
    --save "$tmp/mc-arena-serial" --corpus "$tmp/mc-corpus.jsonl" > /dev/null
python -m repro.cli arena search --seed 11 --protocol cz-c4 \
    --generations 1 --population 4 --reps 2 --batch 1 -j 2 \
    --save "$tmp/mc-arena-parallel" > /dev/null
if ! cmp "$tmp/mc-arena-serial/ARENA-SEARCH.json" \
         "$tmp/mc-arena-parallel/ARENA-SEARCH.json"; then
    echo "FAIL: parallel multichannel arena search differs from serial" >&2
    exit 1
fi
if ! python -m repro.cli arena replay --corpus "$tmp/mc-corpus.jsonl" \
        | grep -q "exact"; then
    echo "FAIL: multichannel corpus replay was not exact" >&2
    exit 1
fi
echo "OK: E18 byte-identical with -j 2; MC arena search deterministic and replayable"
python -m repro.cli run E15 --seed 11 --batch 1 --save "$tmp/e15-serial" \
    > /dev/null
python -m repro.cli run E15 --seed 11 --batch 1 -j 2 \
    --save "$tmp/e15-parallel" > /dev/null
python -m repro.cli run E15 --seed 11 --batch 8 --save "$tmp/e15-batched" \
    > /dev/null
for mode in parallel batched; do
    if ! cmp "$tmp/e15-serial/E15.json" "$tmp/e15-$mode/E15.json"; then
        echo "FAIL: $mode E15 report differs from serial report" >&2
        exit 1
    fi
done
python -m repro.cli run E15 --seed 11 --batch 1 --cache \
    --cache-dir "$tmp/e15-cache" --save "$tmp/e15-cold" > /dev/null
python -m repro.cli run E15 --seed 11 --batch 1 --cache \
    --cache-dir "$tmp/e15-cache" --save "$tmp/e15-warm" > "$tmp/e15-warm.out"
if ! cmp "$tmp/e15-serial/E15.json" "$tmp/e15-cold/E15.json" \
        || ! cmp "$tmp/e15-cold/E15.json" "$tmp/e15-warm/E15.json"; then
    echo "FAIL: cached E15 report differs from the uncached one" >&2
    exit 1
fi
if ! grep -q "(100%" "$tmp/e15-warm.out"; then
    echo "FAIL: warm E15 run was not served entirely from the cache" >&2
    cat "$tmp/e15-warm.out" >&2
    exit 1
fi
echo "OK: E15 byte-identical serial vs -j 2 vs --batch 8, and cold vs warm cache (100% hits)"

echo "== CLI byte-identity: duel default output across repeats =="
python -m repro.cli duel --points 2 --reps 2 > "$tmp/duel-a.out"
python -m repro.cli duel --points 2 --reps 2 > "$tmp/duel-b.out"
if ! cmp "$tmp/duel-a.out" "$tmp/duel-b.out"; then
    echo "FAIL: duel output is not deterministic" >&2
    exit 1
fi
echo "OK: duel chart byte-identical across repeats"

echo "== telemetry suite (pytest -m telemetry) =="
python -m pytest -q -m telemetry "$@"

echo "== CLI byte-identity: run E1 with vs without --telemetry =="
python -m repro.cli run E1 --seed 11 --batch 1 --save "$tmp/tele-off" \
    > /dev/null
python -m repro.cli run E1 --seed 11 --batch 1 --telemetry "$tmp/tele" \
    --save "$tmp/tele-on" > /dev/null
if ! cmp "$tmp/tele-off/E1.json" "$tmp/tele-on/E1.json"; then
    echo "FAIL: telemetry-on report differs from telemetry-off report" >&2
    exit 1
fi
if ! python -m repro.cli telemetry summarize --dir "$tmp/tele" \
        > "$tmp/tele-summary.out"; then
    echo "FAIL: telemetry summarize failed on the recorded run" >&2
    exit 1
fi
if ! grep -q "executor.task" "$tmp/tele-summary.out"; then
    echo "FAIL: telemetry summary is missing executor spans" >&2
    cat "$tmp/tele-summary.out" >&2
    exit 1
fi
if ! grep -Eq "^ *sim\.run +resolve " "$tmp/tele-summary.out"; then
    echo "FAIL: telemetry summary has no stages row for sim.run resolve" >&2
    cat "$tmp/tele-summary.out" >&2
    exit 1
fi
echo "OK: E1 report byte-identical with --telemetry; summarize renders spans and stages"

echo "== CLI byte-identity: run E1 --batch 8 with vs without --telemetry =="
python -m repro.cli run E1 --seed 11 --batch 8 --save "$tmp/tele-b8-off" \
    > /dev/null
python -m repro.cli run E1 --seed 11 --batch 8 --telemetry "$tmp/tele-b8" \
    --save "$tmp/tele-b8-on" > /dev/null
if ! cmp "$tmp/tele-b8-off/E1.json" "$tmp/tele-b8-on/E1.json"; then
    echo "FAIL: telemetry-on --batch 8 report differs from telemetry-off" >&2
    exit 1
fi
if ! python -m repro.cli telemetry summarize --dir "$tmp/tele-b8" \
        > "$tmp/tele-b8-summary.out"; then
    echo "FAIL: telemetry summarize failed on the --batch 8 run" >&2
    exit 1
fi
if ! grep -q "sim\.run_batch" "$tmp/tele-b8-summary.out"; then
    echo "FAIL: --batch 8 telemetry summary lists no sim.run_batch span" >&2
    cat "$tmp/tele-b8-summary.out" >&2
    exit 1
fi
if ! grep -Eq "^ *sim\.run_batch +resolve " "$tmp/tele-b8-summary.out"; then
    echo "FAIL: --batch 8 telemetry summary has no stages row for sim.run_batch resolve" >&2
    cat "$tmp/tele-b8-summary.out" >&2
    exit 1
fi
echo "OK: E1 --batch 8 report byte-identical with --telemetry; sim.run_batch spans and stages"

echo "== CLI byte-identity: run E15 (multichannel) with vs without --telemetry =="
python -m repro.cli run E15 --seed 11 --batch 1 --save "$tmp/e15-tele-off" \
    > /dev/null
python -m repro.cli run E15 --seed 11 --batch 1 --telemetry "$tmp/e15-tele" \
    --save "$tmp/e15-tele-on" > /dev/null
if ! cmp "$tmp/e15-tele-off/E15.json" "$tmp/e15-tele-on/E15.json"; then
    echo "FAIL: telemetry-on E15 report differs from telemetry-off report" >&2
    exit 1
fi
if ! python -m repro.cli telemetry summarize --dir "$tmp/e15-tele" \
        > "$tmp/e15-tele-summary.out"; then
    echo "FAIL: telemetry summarize failed on the recorded E15 run" >&2
    exit 1
fi
if ! grep -qw "sim\.run" "$tmp/e15-tele-summary.out"; then
    echo "FAIL: E15 telemetry summary lists no sim.run span from MCSimulator" >&2
    cat "$tmp/e15-tele-summary.out" >&2
    exit 1
fi
echo "OK: E15 report byte-identical with --telemetry; MC engine emits sim.run spans"

echo "== service suite (pytest -m service) =="
python -m pytest -q -m service "$@"

echo "== service smoke: serve + submit vs CLI report, then warm resubmit =="
start_server() {
    # $1: log file.  Starts a server on an ephemeral port against the
    # shared service cache dir; sets $url and $server_pid (no command
    # substitution — a subshell would strand the pid).
    python -m repro.cli serve --port 0 --jobs 1 \
        --cache-dir "$tmp/service-cache" --telemetry "$tmp/service-tel" \
        > "$1" 2>&1 &
    server_pid=$!
    url=""
    for _ in $(seq 1 100); do
        url=$(grep -om1 'http://[0-9.:]*' "$1" 2>/dev/null || true)
        [ -n "$url" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "FAIL: service did not start" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "FAIL: service never printed its URL" >&2
        cat "$1" >&2
        exit 1
    fi
}

start_server "$tmp/serve-cold.log"
python -m repro.cli submit "$url" E1 --seed 11 \
    --save "$tmp/service-E1.json" > /dev/null 2> "$tmp/submit-cold.err"
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
if ! cmp "$tmp/sparse/E1.json" "$tmp/service-E1.json"; then
    echo "FAIL: service-returned report differs from the CLI-saved one" >&2
    exit 1
fi
echo "OK: service report (default batch) byte-identical to CLI run --batch 1 --save"

# A fresh server over the same cache directory: the job must execute
# zero cells (every lookup warm) and still return identical bytes.
start_server "$tmp/serve-warm.log"
python -m repro.cli submit "$url" E1 --seed 11 \
    --save "$tmp/service-E1-warm.json" > /dev/null 2> "$tmp/submit-warm.err"
python -m repro.cli status "$url" > "$tmp/service-status.out"
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
if ! cmp "$tmp/sparse/E1.json" "$tmp/service-E1-warm.json"; then
    echo "FAIL: warm service report differs from the CLI-saved one" >&2
    exit 1
fi
if ! grep -q "cache 20/20 warm" "$tmp/submit-warm.err"; then
    echo "FAIL: warm resubmission was not served 100% from the cache" >&2
    cat "$tmp/submit-warm.err" >&2
    exit 1
fi
if ! grep -q " 0 misses" "$tmp/service-status.out"; then
    echo "FAIL: warm server reported cache misses" >&2
    cat "$tmp/service-status.out" >&2
    exit 1
fi
echo "OK: warm service resubmit byte-identical, 100% cache hits, 0 misses"

echo "== baseline gate: run all (default batch) vs results/baseline =="
if ! python -m repro.cli run all --save "$tmp/all" > "$tmp/all.out"; then
    echo "FAIL: run all exited non-zero (a claim check failed)" >&2
    grep -i "fail" "$tmp/all.out" >&2 || true
    exit 1
fi
for report in "$tmp"/all/*.json; do
    eid=$(basename "$report")
    if ! cmp "$report" "results/baseline/$eid"; then
        echo "FAIL: $eid differs from results/baseline/$eid" >&2
        exit 1
    fi
done
n_saved=$(find "$tmp/all" -name '*.json' | wc -l)
n_baseline=$(find results/baseline -name '*.json' | wc -l)
if [ "$n_saved" -ne "$n_baseline" ]; then
    echo "FAIL: run all saved $n_saved reports, results/baseline has $n_baseline" >&2
    exit 1
fi
echo "OK: all $n_saved reports byte-identical to results/baseline at the default batch"
