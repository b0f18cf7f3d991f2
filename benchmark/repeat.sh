#!/usr/bin/env bash
# Runs the whole benchmark <sets> times on one build — set i uses seed
# <first-seed> + i, as the driver varies the seed between its runs — and
# prints, per workload and end-to-end metric, the median, the quartiles
# and the spread (interquartile range as a share of the median). Fails if
# a run is incorrect or a spread exceeds the metric's bound in
# BENCHMARK.json (setup_s is exempt from the spread check, as it is in
# the driver). The bounds in BENCHMARK.json were set from this script's
# output; see README.md.
#
# usage: benchmark/repeat.sh <sets> [first-seed]      (sets >= 2)
set -euo pipefail

sets=${1:?usage: benchmark/repeat.sh <sets> [first-seed]}
first_seed=${2:-1}
if [ "$sets" -lt 2 ]; then
    echo "quartiles need at least 2 sets" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exe=$CARGO_TARGET_DIR/release/benchmark

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

mkdir -p benchmark/out
results=benchmark/out/repeat-$$.tsv
trap 'rm -f "$results"' EXIT
: >"$results"

for ((i = 0; i < sets; i++)); do
    seed=$((first_seed + i))
    for w in $workloads; do
        echo "set $((i + 1))/$sets: $w, seed $seed" >&2
        # The harness exits non-zero on a wrong answer; pipefail and -e
        # stop the script there.
        line=$("$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
        printf '%s\t%s\n' "$w" "$line" >>"$results"
    done
done

python3 - "$results" <<'PY'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
runs = {}
for row in open(sys.argv[1]):
    workload, line = row.rstrip("\n").split("\t", 1)
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: incorrect run: {line}")
    for name, m in result["metrics"].items():
        runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])

over = []
for workload, metrics in runs.items():
    print(f"== {workload}")
    for name, values in metrics.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        flag = ""
        if name != "setup_s" and spread > bounds[name]:
            flag = "  <-- over its bound"
            over.append(f"{workload}/{name}")
        print(f"  {name:<18} median {median:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
              f"  spread {spread:7.2%}  bound {bounds[name]:.0%}{flag}")
if over:
    sys.exit("spread over bound: " + ", ".join(over))
PY
