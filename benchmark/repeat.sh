#!/bin/bash
# Repeatability check: runs the full untraced set twice with one seed and
# prints, per workload and end-to-end metric, the relative difference
# between the two runs beside the metric's bound from ../BENCHMARK.json.
# Exits non-zero if any difference is larger than its bound.
#
#   benchmark/repeat.sh [seed]
#
# The two result documents are left in benchmark/results/.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-20220930}"
mkdir -p "$here/results"
for run in 1 2; do
    bash "$here/run.sh" --seed "$seed" --trace 0 | tee /dev/stderr | tail -n 1 \
        > "$here/results/repeat-$run.json"
done
python3 - "$here/../BENCHMARK.json" "$here/results/repeat-1.json" "$here/results/repeat-2.json" <<'PY'
import json, sys

declared, first, second = (json.load(open(path)) for path in sys.argv[1:4])
breaches = 0
print(f"{'workload':16} {'metric':22} {'run 1':>14} {'run 2':>14} {'difference':>11} {'bound':>6}")
for workload in declared["workloads"]:
    name = workload["name"]
    for metric in declared["end_to_end"]:
        a = first["workloads"][name]["metrics"][metric["name"]]["value"]
        b = second["workloads"][name]["metrics"][metric["name"]]["value"]
        difference = abs(b - a) / abs(a)
        breach = difference > metric["bound"]
        breaches += breach
        print(f"{name:16} {metric['name']:22} {a:14.6g} {b:14.6g} {difference:11.4f} "
              f"{metric['bound']:6.2f}{'  BREACH' if breach else ''}")
    for run, doc in (("1", first), ("2", second)):
        result = doc["workloads"][name]
        if not result["correct"] or result["failed"]:
            print(f"{name}: run {run} had {result['failed']} failed operations")
            breaches += 1
sys.exit(1 if breaches else 0)
PY
