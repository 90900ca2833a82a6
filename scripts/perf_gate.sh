#!/usr/bin/env bash
# Perf-regression gate: the repository benchmark (perfbench/, see
# BENCHMARK.json) against its committed results.
#
# Runs every perfbench workload at seeds 1, 2 and 3 for 5 s each. Every
# run must report "correct": true. For each workload, the median
# sim_minstr_per_s and the median jobs_per_s must reach PERF_GATE_FRACTION
# of the median of the committed results/perfbench/<workload>-seed<N>-trace0.json
# files. Those are perfbench's own result files, so each verdict prints
# the committed host and interquartile range next to the fresh host.
#
# One cost perfbench does not time is gated here too: the median
# histogram_record_ns of three esteem-microbench runs (the per-event cost
# of every latency-metrics tap) may rise to the committed
# BENCH_hotpath.json value divided by the same fraction.
#
# Every perfbench run must also finish within 60 s of its window.
#
# The committed numbers are machine-dependent, so this is a smoke check:
# it catches "someone made a workload 2x slower", not 3% drift. Slower
# machines lower the bar with PERF_GATE_FRACTION (CI sets 0.5).
#
# Usage: scripts/perf_gate.sh           gate the tree
#        scripts/perf_gate.sh record    make the same runs and rewrite
#                                       results/perfbench/ and BENCH_hotpath.json
#   PERF_GATE_FRACTION  minimum allowed fresh/committed ratio (default 0.85)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-gate}"
case "$mode" in
  gate | record) ;;
  *)
    echo "usage: scripts/perf_gate.sh [record]" >&2
    exit 2
    ;;
esac
fraction="${PERF_GATE_FRACTION:-0.85}"
workloads=(sim-thrash serve-hit serve-fresh)
seeds=(1 2 3)
baseline=results/perfbench

fresh="$(mktemp -d /tmp/perf_gate.XXXXXX)"
trap 'rm -rf "$fresh"' EXIT

cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo build --offline --release -p esteem-harness --bin esteem-microbench

# perfbench writes each run's result file, with its host and bounds, to
# .perfbench/results/ under the working directory. A run whose wall time
# exceeds its window by more than max_overrun_s failed to stop (a daemon
# that sits out its drain timeout on every shutdown, say): fail at once,
# in either mode.
seconds=5
max_overrun_s=60
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    echo "perf gate: $w seed $s"
    started=$SECONDS
    perfbench/target/release/esteem-perfbench --workload "$w" --seed "$s" \
      --seconds "$seconds" >/dev/null
    wall=$((SECONDS - started))
    if ((wall > seconds + max_overrun_s)); then
      echo "perf gate: FAIL $w seed $s took ${wall} s of wall time for a ${seconds} s window" >&2
      exit 1
    fi
    cp ".perfbench/results/$w-seed$s-trace0.json" "$fresh/"
  done
done
for s in "${seeds[@]}"; do
  ./target/release/esteem-microbench >"$fresh/hotpath-$s.json"
done

python3 - "$mode" "$fresh" "$baseline" "$fraction" "${workloads[*]}" "${seeds[*]}" <<'EOF'
import json
import os
import shutil
import statistics
import sys

mode, fresh_dir, baseline_dir = sys.argv[1], sys.argv[2], sys.argv[3]
fraction = float(sys.argv[4])
workloads, seeds = sys.argv[5].split(), sys.argv[6].split()
METRICS = ("sim_minstr_per_s", "jobs_per_s")

# The microbench run with the median histogram_record_ns.
runs = [json.load(open(f"{fresh_dir}/hotpath-{seed}.json")) for seed in seeds]
hotpath = sorted(runs, key=lambda r: r["histogram_record_ns"])[len(runs) // 2]

if mode == "record":
    os.makedirs(baseline_dir, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            name = f"{workload}-seed{seed}-trace0.json"
            shutil.copy(f"{fresh_dir}/{name}", f"{baseline_dir}/{name}")
    with open("BENCH_hotpath.json", "w") as out:
        out.write(json.dumps(hotpath, indent=2) + "\n")
    print(f"perf gate: recorded {baseline_dir}/ and BENCH_hotpath.json")
    sys.exit(0)


def load(directory, workload):
    return [
        json.load(open(f"{directory}/{workload}-seed{seed}-trace0.json"))
        for seed in seeds
    ]


def host(docs):
    hosts = {
        "{nproc} x {cpu_model}, {rustc}, commit {git_commit}".format(**d["host"])
        for d in docs
    }
    return "; ".join(sorted(hosts))


def value(doc, metric):
    return doc["result"]["metrics"][metric]["value"]


failed = False
for workload in workloads:
    fresh, committed = load(fresh_dir, workload), load(baseline_dir, workload)
    print(f"perf gate: {workload}")
    print(f"  committed host: {host(committed)}")
    print(f"  fresh host:     {host(fresh)}")
    for doc in fresh:
        if not doc["result"]["correct"]:
            failed = True
            print(f"  FAIL: seed {doc['seed']} is not correct: {doc['result']}")
    for metric in METRICS:
        old = [value(d, metric) for d in committed]
        q1, median_old, q3 = statistics.quantiles(old, n=4, method="inclusive")
        median_new = statistics.median(value(d, metric) for d in fresh)
        floor = median_old * fraction
        ok = median_new >= floor
        failed |= not ok
        print(
            f"  {'ok  ' if ok else 'FAIL'} {metric}: fresh median {median_new:.2f}, "
            f"committed median {median_old:.2f} (IQR {q3 - q1:.2f}), "
            f"floor {floor:.2f} (fraction {fraction})"
        )

# Histogram record cost: lower is better, so the ceiling is the committed
# value divided by the same fraction.
old = json.load(open("BENCH_hotpath.json"))["histogram_record_ns"]
new = hotpath["histogram_record_ns"]
ceiling = old / fraction
ok = new <= ceiling
failed |= not ok
print(
    f"perf gate: {'ok  ' if ok else 'FAIL'} histogram_record_ns: fresh median {new:.2f}, "
    f"committed {old:.2f}, ceiling {ceiling:.2f}"
)

if failed:
    print("perf gate: FAIL (run `scripts/perf_gate.sh record` if the change is intended)")
    sys.exit(1)
print("perf gate: OK")
EOF
