#!/bin/sh
# Correctness smoke for the whole-scenario benchmark (perfbench/): one
# short run of each workload, failing unless the run's result line (the
# last line it prints) reports "correct": true.  That covers every
# workload's oracles: witness verdicts and certificate re-verification,
# dynamics convergence to a Nash profile, and the census artifact being
# byte-equal to test/golden/CENSUS_unit7_sum.jsonl.  Timings are not
# gated here.
set -eu
cd "$(dirname "$0")/.."

for w in certify-witnesses dynamics-unit-sum census-unit7-sum; do
  echo "-- perfbench $w"
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
    --trace 0 | tail -n 1)
  printf '%s\n' "$last" | python3 -c '
import json, sys
sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)
' || {
    echo "perfbench-smoke: $w is not correct: $last"
    exit 1
  }
done
echo "perfbench-smoke: all workloads correct"
