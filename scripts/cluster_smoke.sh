#!/usr/bin/env bash
# End-to-end smoke test of the cluster fabric (DESIGN.md §17).
#
# Scenario: coordinator + 2 workers on ephemeral localhost ports; a
# 48-cell sweep; one worker SIGKILLed mid-sweep; then the coordinator
# restarted as a new process on the same address and journal. Asserts
# that
#
#   * the sweep still completes with zero failed cells,
#   * the coordinator observed the node failure and re-dispatched work,
#   * the merged sweep report is byte-identical to the same cells run
#     single-node through `esteem-sim --json`,
#   * a re-submitted cell is answered from the coordinator's run cache
#     (serve/jobs_cached in its /metrics),
#   * `esteem-top --once` against the coordinator lists the members,
#   * per-worker journals merge without done/failed conflicts,
#   * a restarted coordinator re-learns w1 from its heartbeat, recovers
#     the sweep from its journal, and streams the same report bytes; its
#     run cache starts empty, so the recovered cells go to their ring
#     owner and hit that worker's run cache,
#   * the surviving worker deregisters gracefully on shutdown.
#
# Usage: scripts/cluster_smoke.sh [bin-dir]
#   bin-dir   directory holding the release binaries
#             (default: target/release)
# Work files land in $CLUSTER_SMOKE_DIR (default: ./cluster-smoke).

set -euo pipefail

BIN=${1:-target/release}
DIR=${CLUSTER_SMOKE_DIR:-cluster-smoke}
INSTR=200000
CELLS=48 # seeds 1..24 x techniques {baseline, esteem}

for exe in esteem-coord esteem-serve esteem-client esteem-sim esteem-top; do
    if [ ! -x "$BIN/$exe" ]; then
        echo "missing $BIN/$exe (build with: cargo build --release --bins)" >&2
        exit 1
    fi
done

rm -rf "$DIR"
mkdir -p "$DIR"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# Polls "$@" (a command) until it succeeds or ~20 s elapse.
wait_for() {
    local what=$1
    shift
    for _ in $(seq 1 100); do
        if "$@" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "timed out waiting for $what" >&2
    return 1
}

# Extracts the ephemeral address from a daemon's stdout log.
addr_of() {
    sed -n 's/^listening on //p' "$1"
}

echo "== start coordinator + 2 workers (ephemeral ports)"
"$BIN/esteem-coord" --addr 127.0.0.1:0 --heartbeat-timeout-ms 1000 \
    --journal "$DIR/coord.jsonl" >"$DIR/coord.out" &
PIDS+=($!)
COORD_PID=$!
wait_for "coordinator banner" grep -q "listening on " "$DIR/coord.out"
COORD=$(addr_of "$DIR/coord.out")

"$BIN/esteem-serve" --addr 127.0.0.1:0 --workers 2 --node-id w1 \
    --coordinator "$COORD" --heartbeat-ms 200 \
    --journal "$DIR/w1.jsonl" >"$DIR/w1.out" &
PIDS+=($!)
"$BIN/esteem-serve" --addr 127.0.0.1:0 --workers 2 --node-id w2 \
    --coordinator "$COORD" --heartbeat-ms 200 \
    --journal "$DIR/w2.jsonl" >"$DIR/w2.out" &
PIDS+=($!)
W2_PID=$!
wait_for "worker banners" grep -q "listening on " "$DIR/w1.out"
wait_for "worker banners" grep -q "listening on " "$DIR/w2.out"
W1=$(addr_of "$DIR/w1.out")

members() { "$BIN/esteem-client" "$COORD" get /v1/cluster; }
wait_for "w1 to register" sh -c "'$BIN/esteem-client' '$COORD' get /v1/cluster | grep -q '\"w1\"'"
wait_for "w2 to register" sh -c "'$BIN/esteem-client' '$COORD' get /v1/cluster | grep -q '\"w2\"'"
echo "coordinator $COORD, workers registered:"
members

echo "== submit a $CELLS-cell sweep"
"$BIN/esteem-client" "$COORD" sweep gamess --instructions "$INSTR" \
    --grid "seed=$(seq -s, 1 24)" --grid technique=baseline,esteem |
    tee "$DIR/sweep.out"
SWEEP=$(sed -n 's/^sweep \([0-9]*\).*/\1/p' "$DIR/sweep.out")
test -n "$SWEEP"

# Prints <name> (e.g. serve/jobs_completed) from the coordinator's
# /metrics as an integer (gauges render as "3.0"; drop the fraction).
metric() {
    "$BIN/esteem-client" "$COORD" metrics |
        awk -v k="$1" '$1 == k { sub(/\..*$/, "", $2); print $2 }'
}

# Polls until <name> >= <want> (~30 s).
wait_metric_ge() {
    local name=$1 want=$2 v=
    for _ in $(seq 1 150); do
        v=$(metric "$name")
        if [ -n "$v" ] && [ "$v" -ge "$want" ]; then return 0; fi
        sleep 0.2
    done
    echo "timed out waiting for $name >= $want (last: ${v:-none})" >&2
    return 1
}

echo "== SIGKILL w2 once a few cells have finished"
wait_metric_ge serve/jobs_completed 3
kill -9 "$W2_PID"
echo "killed w2 (pid $W2_PID) at jobs_completed=$(metric serve/jobs_completed)"

echo "== sweep must still complete; stream the merged report"
"$BIN/esteem-client" "$COORD" sweep-report "$SWEEP" --wait \
    >"$DIR/via_cluster.json"

FAILURES=$(metric cluster/node_failures)
REDISPATCHED=$(metric cluster/jobs_redispatched)
echo "node_failures=$FAILURES jobs_redispatched=$REDISPATCHED"
[ "$FAILURES" -ge 1 ] || {
    echo "coordinator never declared w2 dead" >&2
    exit 1
}
[ "$REDISPATCHED" -ge 1 ] || {
    echo "no jobs were re-dispatched off the dead worker" >&2
    exit 1
}
[ "$(metric serve/jobs_failed)" -eq 0 ] || {
    echo "sweep had failed cells" >&2
    exit 1
}

echo "== report must be byte-identical to single-node esteem-sim runs"
: >"$DIR/via_cli.json"
for seed in $(seq 1 24); do
    for tech in baseline esteem; do
        "$BIN/esteem-sim" --technique "$tech" --instructions "$INSTR" \
            --seed "$seed" --json gamess >>"$DIR/via_cli.json"
    done
done
diff "$DIR/via_cluster.json" "$DIR/via_cli.json"
echo "byte-identical across $CELLS cells"

echo "== a re-submitted cell is answered from the coordinator's run cache"
for _ in 1 2; do
    "$BIN/esteem-client" "$COORD" submit --instructions "$INSTR" \
        --technique esteem --seed 1 gamess | tee "$DIR/resubmit.out"
    JOB=$(sed -n 's/^job \([0-9]*\).*/\1/p' "$DIR/resubmit.out")
    "$BIN/esteem-client" "$COORD" fetch "$JOB" >/dev/null
done
CACHED=$(metric serve/jobs_cached)
echo "serve/jobs_cached=$CACHED"
[ "$CACHED" -ge 1 ] || {
    echo "re-submitted cell missed the coordinator run cache" >&2
    exit 1
}

echo "== esteem-top against the coordinator lists its members"
"$BIN/esteem-top" "$COORD" --once | tee "$DIR/top.out"
grep -q '^  w1 ' "$DIR/top.out" || {
    echo "esteem-top does not list w1" >&2
    exit 1
}

echo "== per-worker journals merge without conflicts"
"$BIN/esteem-coord" merge w1="$DIR/w1.jsonl" w2="$DIR/w2.jsonl" \
    >"$DIR/merged-journal.json"
grep -q '"conflicts": \[\]' "$DIR/merged-journal.json"

echo "== restart the coordinator: same address, same journal, new process"
"$BIN/esteem-client" "$COORD" shutdown
wait_for "coordinator exit" sh -c "! kill -0 $COORD_PID 2>/dev/null"
"$BIN/esteem-coord" --addr "$COORD" --heartbeat-timeout-ms 1000 \
    --journal "$DIR/coord.jsonl" >"$DIR/coord2.out" &
PIDS+=($!)
COORD_PID=$!
wait_for "restarted coordinator banner" grep -q "listening on " "$DIR/coord2.out"
wait_for "w1 to re-register" sh -c "'$BIN/esteem-client' '$COORD' get /v1/cluster | grep -q '\"w1\"'"
"$BIN/esteem-client" "$COORD" sweep-report "$SWEEP" --wait \
    >"$DIR/via_restarted.json"
diff "$DIR/via_restarted.json" "$DIR/via_cli.json"
echo "restarted coordinator: byte-identical across $CELLS cells"
ON_WORKER=$(metric cluster/jobs_cached_on_worker)
echo "cluster/jobs_cached_on_worker=$ON_WORKER"
[ "$ON_WORKER" -ge 1 ] || {
    echo "recovered cells missed their owner's run cache" >&2
    exit 1
}

echo "== graceful drain: w1 deregisters, coordinator exits"
"$BIN/esteem-client" "$W1" shutdown
wait_metric_ge cluster/deregistrations 1
"$BIN/esteem-client" "$COORD" shutdown
wait_for "coordinator exit" sh -c "! kill -0 $COORD_PID 2>/dev/null"

echo "cluster smoke: OK"
