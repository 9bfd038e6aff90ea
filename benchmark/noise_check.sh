#!/usr/bin/env bash
# Two sets of N end-to-end runs per workload, every run with another seed,
# workloads alternating inside a set so that each workload's runs span the
# whole window of the set. Prints, per (workload, metric): both medians,
# their relative difference, each set's spread (inter-quartile distance as a
# share of the median, the driver's statistic) and the bound from
# BENCHMARK.json. The committed NOISE.md is this script's output.
#
#   benchmark/noise_check.sh [N] > benchmark/NOISE.md      (N >= 5, default 10)
#
# Run from the repository root. Takes about 2 * N * 100 s.
set -euo pipefail

n="${1:-10}"
if ! [[ "$n" =~ ^[0-9]+$ ]] || [ "$n" -lt 5 ]; then
    echo "usage: $0 [N>=5]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$target/release/sptx-benchmark"

out="benchmark/out/noise-$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for set in A B; do
    for i in $(seq 1 "$n"); do
        seed=$i
        [ "$set" = B ] && seed=$((n + i))
        for w in $workloads; do
            echo "set $set run $i/$n $w seed $seed" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$set.$w.$i.json"
        done
    done
done

python3 - "$out" "$n" <<'EOF'
import glob, json, statistics, sys

out, n = sys.argv[1], int(sys.argv[2])
manifest = json.load(open("BENCHMARK.json"))
metrics = manifest["end_to_end"]

def load(set_name, workload):
    values = {m["name"]: [] for m in metrics}
    for path in sorted(glob.glob(f"{out}/{set_name}.{workload}.*.json")):
        result = json.load(open(path))
        if not result["correct"] or result["failed"]:
            sys.exit(f"{path}: run not correct: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print("# Run-to-run noise of the benchmark")
print()
print(f"Output of `benchmark/noise_check.sh {n}`: two sets (A, then B) of {n} runs per")
print(f"workload at `--seconds {manifest['run_seconds']}`, seeds 1..{n} in A and {n + 1}..{2 * n} in B,")
print("workloads alternating inside each set. `diff` is B's median against A's,")
print("signed so that positive is worse; `spread` is the distance between the first")
print("and third quartile (`statistics.quantiles(values, n=4)`) as a share of the")
print("median. A pair is `ok` when |diff| is within half its bound and both spreads")
print("are within a third of it (`setup_s`: its spread is reported, not judged).")
print()
print("| workload | metric | median A | median B | diff | spread A | spread B | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
bad = 0
for w in manifest["workloads"]:
    a, b = load("A", w["name"]), load("B", w["name"])
    for m in metrics:
        va, vb = a[m["name"]], b[m["name"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        diff = (mb - ma) / ma
        if m["better"] == "higher":
            diff = -diff
        sa, sb = spread(va), spread(vb)
        ok = abs(diff) <= m["bound"] / 2
        if m["name"] != "setup_s":
            ok = ok and max(sa, sb) <= m["bound"] / 3
        bad += not ok
        print(
            f"| {w['name']} | {m['name']} | {ma:.6g} | {mb:.6g} | {diff:+.2%} "
            f"| {sa:.2%} | {sb:.2%} | {m['bound']:.0%} | {'ok' if ok else 'NOISY'} |"
        )
print()
print(f"{bad} of {len(manifest['workloads']) * len(metrics)} pairs noisy.")
EOF
