#!/bin/sh
# Tier-1-adjacent gate: build, full test suite, then a seconds-long
# bench smoke whose BENCH_smoke.json must stay machine-parseable —
# report-format regressions fail here, not in a nightly perf run —
# and is diffed against the last local baseline (make bench-baseline)
# so hot-path regressions are at least shouted about.  The diff is
# warn-only by default (one-off machine load inflates ns/run); set
# BBNG_BENCH_STRICT=1 to make a past-threshold regression fail the
# gate, and BBNG_BENCH_DIFF_THRESHOLD=<pct> to tune the noise
# threshold.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== audit artifacts (golden set) =="
# every checked-in certificate must independently re-verify, and every
# checked-in flight recording must replay divergence-free — the
# serialization formats and replay semantics are load-bearing
# (after an intentional change, `make artifacts` lists the regenerated
# files that differ; promote them by copying into test/golden/)
found_golden=0
for f in test/golden/CERT_*.json; do
  [ -e "$f" ] || continue
  found_golden=1
  dune exec bin/bbng_cli.exe -- verify "$f"
done
for f in test/golden/DYN_*.jsonl; do
  [ -e "$f" ] || continue
  found_golden=1
  dune exec bin/bbng_cli.exe -- replay "$f"
done
if [ "$found_golden" = 0 ]; then
  echo "check: no golden artifacts found (make artifacts, then copy from artifacts/)"
  exit 1
fi
# `report` and `top` read a recording through one fold; their output on
# each committed recording is pinned byte for byte next to it (captured
# from the repository root, where the digest line and the frame header
# name the same relative path)
for f in test/golden/DYN_*.jsonl test/golden/REPORT_*.jsonl; do
  [ -e "$f" ] || continue
  b=${f%.jsonl}
  dune exec bin/bbng_cli.exe -- report "$f" | cmp - "$b.report.txt" || {
    echo "check: report output for $f differs from $b.report.txt"
    exit 1
  }
  dune exec bin/bbng_cli.exe -- top "$f" --once --no-clear | cmp - "$b.top.txt" || {
    echo "check: top output for $f differs from $b.top.txt"
    exit 1
  }
done
# a budget-3 player scanned in full: player 0 of a 10-vertex path plus
# three arcs decides all C(10,3) = 120 candidates on the rows engine,
# each priced by the b >= 3 combine or bound-decided (most of them under
# MAX, none under SUM), and `scanned` counts both; `verify` re-prices
# the rows evidence through the generic evaluator
mkdir -p _build
for v in max sum; do
  dune exec bin/bbng_cli.exe -- certify -c "$v" "2,5,8;2;3;4;5;6;7;8;9;10;" \
    --cert "_build/B3_$v.json" > /dev/null
  grep -q '"player":0,"tier":"exact","engine":"rows","scanned":120,' "_build/B3_$v.json" || {
    echo "check: budget-3 player not scanned in full under $v"
    exit 1
  }
  dune exec bin/bbng_cli.exe -- verify "_build/B3_$v.json"
done
# [pin STATS NAME COUNT ...]: each counter NAME must read exactly COUNT
# in the --stats summary STATS, and a COUNT of 0 means it is absent
pin() {
  stats=$1
  shift
  while [ $# -gt 0 ]; do
    if [ "$2" = 0 ]; then
      ! grep -Eq "^ *$1 " "$stats"
    else
      grep -Eq "^ *$1 +$2\$" "$stats"
    fi || {
      echo "check: $stats: counter $1 differs from $2"
      exit 1
    }
    shift 2
  done
}
# the bound decides b = 2 candidates without pricing them, and they
# still count as scanned: certifying the depth-4 Thm 3.4 tree (n=31,
# SUM) must hand over, bound-decide and read rows for exactly as many
# candidates as pricing each through Deviation_eval.cost_within would
# (so a scan that mis-tallies a tail fails here) and price as many
# evaluations; its SUM singletons come off one batch block per internal
# player (15), and it builds only the rows that each player's one
# survivor, its current strategy, reads: the base row and its two
# targets' (45), so a fallback to building every target's row fails
# here too; show each internal player's scan complete at C(30,2) = 435,
# and re-verify
BT4=$(dune exec bin/bbng_cli.exe -- construct binary --depth 4 -c sum | sed -n 's/^profile: *//p')
dune exec bin/bbng_cli.exe -- certify -c sum "$BT4" --stats --cert _build/BT4_sum.json \
  2> _build/BT4_sum.stats > /dev/null
pin _build/BT4_sum.stats br.candidates 6541 br.bound_pruned 6510 \
  deveval.incremental_evals 527 deveval.row_hits 30 deveval.rows_built 45 \
  deveval.blocks_built 15
grep -q '"tier":"exact","engine":"rows","scanned":435,' _build/BT4_sum.json || {
  echo "check: no depth-4 tree player scanned all 435 candidates"
  exit 1
}
dune exec bin/bbng_cli.exe -- verify _build/BT4_sum.json
# budget-1 players scanned in full by the bit-parallel batch: the k=22
# tripod (n=67, MAX) gives each leg player 66 candidates, two words'
# worth; its evidence keeps the "bfs" engine name, and `verify`
# re-prices it through the rows engine.  Its counters are pinned: the
# three budget-2 players' witness tests read rows, the leg players'
# blocks run over the profile's shared U(G)
T22=$(dune exec bin/bbng_cli.exe -- construct tripod -k 22 -c max | sed -n 's/^profile: *//p')
dune exec bin/bbng_cli.exe -- certify -c max "$T22" --stats --cert _build/T22_max.json \
  2> _build/T22_max.stats > /dev/null
pin _build/T22_max.stats br.candidates 10399 br.bound_pruned 6372 \
  deveval.incremental_evals 4094 deveval.row_hits 6501 deveval.rows_built 201 \
  deveval.blocks_built 120
grep -q '"player":11,"tier":"exact","engine":"bfs","scanned":66,' _build/T22_max.json || {
  echo "check: tripod leg player not scanned in full by the b=1 batch"
  exit 1
}
dune exec bin/bbng_cli.exe -- verify _build/T22_max.json
# an all-unit-budget equilibrium past one word: the triangle 0→1→2→0
# with 21 leaves on each corner (n=66, MAX), where every leaf's 65
# candidates take two batch blocks and the corners are floor-pruned
SUN66=$(awk 'BEGIN { s = "1;2;0"; for (l = 3; l < 66; l++) s = s ";" (l % 3); print s }')
dune exec bin/bbng_cli.exe -- certify -c max "$SUN66" --stats \
  2> _build/SUN66_max.stats > _build/SUN66_max.out
grep -q '^verdict: *equilibrium' _build/SUN66_max.out || {
  echo "check: the balanced unit sun (n=66) is not certified an equilibrium under MAX"
  exit 1
}
pin _build/SUN66_max.stats br.candidates 4095 br.bound_pruned 0 \
  deveval.incremental_evals 4161 deveval.row_hits 0 deveval.rows_built 0 \
  deveval.blocks_built 126
# the golden refuted profile: player 1 refutes and player 2 is never
# audited, which the certificate certifiers count as an early exit
for mode in exact swap; do
  flag=""
  [ "$mode" = swap ] && flag="--swap"
  dune exec bin/bbng_cli.exe -- certify -c max "1,2;0;0" $flag --stats 2>&1 >/dev/null \
    | grep -Eq '^ *equilibrium\.early_exits +1$' || {
    echo "check: refuted $mode certificate did not count an early exit"
    exit 1
  }
done

echo "== CSR engine vs legacy oracle on golden census graphs =="
# the direction-optimizing BFS/iFUB-diameter engine must agree with the
# retained top-down walker on every equilibrium graph named by the
# committed census artifacts — a kernel regression fails here even if
# it slips past the unit suite's random graphs
found_census=0
for f in test/golden/CENSUS_*.jsonl; do
  [ -e "$f" ] || continue
  found_census=1
  dune exec bench/main.exe -- --csr-oracle "$f"
done
if [ "$found_census" = 0 ]; then
  echo "check: no golden census artifacts for the CSR oracle"
  exit 1
fi

echo "== fault-matrix smoke =="
# out-of-process crash-safety: SIGKILL/raise/deadline injections must
# leave only artifacts that verify or replay cleanly, and malformed
# inputs must exit with their taxonomy codes (see bin/fault_smoke.sh)
sh bin/fault_smoke.sh

echo "== perfbench correctness smoke =="
# the whole-scenario benchmark's oracles, one short run per workload:
# witness certificates re-verify, dynamics converge to a Nash profile,
# and the n=7 census artifact is byte-equal to its golden file
sh bin/perfbench_smoke.sh

echo "== live telemetry: heartbeats, OpenMetrics snapshot, top =="
# a dynamics run with a fast ticker must leave a heartbeat-bearing
# report, a parseable OpenMetrics snapshot, and a recording the live
# viewer renders — format regressions in the telemetry layer fail here
mkdir -p _build
BBNG_HEARTBEAT_MS=1 dune exec bin/bbng_cli.exe -- dynamics -b 2,2,2,2,2,2,2,2 \
  --seed 3 --report _build/TELEMETRY.jsonl --metrics-out _build/TELEMETRY.prom \
  > /dev/null
dune exec bench/main.exe -- --validate-metrics _build/TELEMETRY.prom
grep -q progress.heartbeat _build/TELEMETRY.jsonl || {
  echo "check: no progress.heartbeat in the telemetry report"
  exit 1
}
dune exec bin/bbng_cli.exe -- top _build/TELEMETRY.jsonl --once --no-clear \
  > /dev/null

echo "== profiling: live --profile and offline flame agree =="
# a recorded dynamics run must profile identically live (--profile) and
# offline (flame on the report), both carrying the known hot call path,
# and the allocation flavor must ride along
mkdir -p _build
dune exec bin/bbng_cli.exe -- dynamics -b 2,2,2,2,2,2,2,2 --seed 3 \
  --report _build/PROF.jsonl --profile _build/PROF.folded > /dev/null
grep -q "^dynamics.run;dynamics.select_move " _build/PROF.folded || {
  echo "check: live profile lost the dynamics call path"
  exit 1
}
[ -s _build/PROF.alloc.folded ] || {
  echo "check: no allocation-flavor folded stacks"
  exit 1
}
dune exec bin/bbng_cli.exe -- flame _build/PROF.jsonl -o _build/PROF.offline.folded
cmp -s _build/PROF.folded _build/PROF.offline.folded || {
  echo "check: offline flame disagrees with the live profile"
  exit 1
}
# the summary's per-name spans row is a rollup of the same store the
# span events were emitted from: it must count every recorded close
dune exec bin/bbng_cli.exe -- report --summarize _build/PROF.jsonl \
  > _build/PROF.summary
row=$(awk '/^spans \(/ { s = 1; next }
  s && $1 == "dynamics.select_move" { print $2; exit }' _build/PROF.summary)
events=$(grep '"event":"span"' _build/PROF.jsonl \
  | grep -c '"name":"dynamics.select_move"')
[ -n "$row" ] && [ "$row" = "$events" ] || {
  echo "check: summary counts ${row:-no} dynamics.select_move spans, the report has $events"
  exit 1
}

echo "== bench trend self-test (synthetic history) =="
# the gate itself is gated: a steady synthetic history must pass and an
# injected 2.5x slowdown must exit non-zero
mkdir -p _build
: > _build/TREND_selftest.jsonl
for ns in 1000 1010 990 1005; do
  printf '%s\n' "{\"ts\":\"t\",\"report\":\"selftest\",\"results\":[{\"name\":\"bbng/x\",\"ns_per_run\":$ns,\"minor_words_per_run\":500,\"major_words_per_run\":0,\"r_square_time\":0.99}],\"counters_digest\":\"d\"}" \
    >> _build/TREND_selftest.jsonl
done
dune exec bench/main.exe -- --trend _build/TREND_selftest.jsonl > /dev/null || {
  echo "check: trend flagged a steady synthetic history"
  exit 1
}
printf '%s\n' "{\"ts\":\"t\",\"report\":\"selftest\",\"results\":[{\"name\":\"bbng/x\",\"ns_per_run\":2500,\"minor_words_per_run\":500,\"major_words_per_run\":0,\"r_square_time\":0.99}],\"counters_digest\":\"d\"}" \
  >> _build/TREND_selftest.jsonl
if dune exec bench/main.exe -- --trend _build/TREND_selftest.jsonl > /dev/null; then
  echo "check: trend missed an injected 2.5x slowdown"
  exit 1
fi

echo "== bench smoke =="
# snapshot the pre-run baseline before --smoke overwrites it; on a
# fresh clone (no local run yet) fall back to the committed reference
# under bench/baselines/ so the diff always compares something real
baseline=""
if [ -f BENCH_smoke.json ]; then
  mkdir -p _build
  cp BENCH_smoke.json _build/BENCH_smoke.baseline.json
  baseline=_build/BENCH_smoke.baseline.json
elif [ -f bench/baselines/BENCH_smoke.json ]; then
  baseline=bench/baselines/BENCH_smoke.json
fi
dune exec bench/main.exe -- --smoke

echo "== validate BENCH_smoke.json =="
dune exec bench/main.exe -- --validate BENCH_smoke.json

if [ -n "$baseline" ]; then
  echo "== bench diff vs baseline =="
  if dune exec bench/main.exe -- --diff "$baseline" BENCH_smoke.json; then
    :
  elif [ "${BBNG_BENCH_STRICT:-0}" = "1" ]; then
    echo "check: bench regression (BBNG_BENCH_STRICT=1)"
    exit 1
  else
    echo "check: bench diff WARNING only (set BBNG_BENCH_STRICT=1 to fail on regressions)"
  fi
fi

echo "== bench trend vs recorded history =="
# the smoke run above appended to BENCH_history.jsonl; gate the latest
# run against the robust median/MAD of the recorded trajectory.  The
# gate is depth-aware (bench/trend.ml): a regression hard-fails once a
# benchmark has >=5 recorded points, and is a warning below that — so
# this stage fails the check outright instead of the old warn-only
# wrapper (BBNG_BENCH_STRICT=1 escalates shallow-history warnings too).
dune exec bench/main.exe -- --trend

echo "== run ledger: index, list, diff, injected regression =="
# two consecutive bench smoke runs on the unchanged tree must index
# into the same ledger and diff green; a synthetic 2.5x metric
# regression must make `runs diff` exit non-zero.  The smokes run in a
# scratch dir so their reports/history don't touch the repo's record.
cli=_build/default/bin/bbng_cli.exe
bench=_build/default/bench/main.exe
ledir=_build/ledger_stage
rm -rf "$ledir"
mkdir -p "$ledir"
root=$(pwd)
( cd "$ledir" && BBNG_LEDGER=CHECK_ledger.jsonl "$root/$bench" --smoke > /dev/null )
( cd "$ledir" && BBNG_LEDGER=CHECK_ledger.jsonl "$root/$bench" --smoke > /dev/null )
[ "$("$cli" runs list --ledger "$ledir/CHECK_ledger.jsonl" --porcelain | wc -l)" = 2 ] || {
  echo "check: expected 2 indexed bench runs in the ledger"
  exit 1
}
# back-to-back same-machine smoke runs: a loose 100% threshold rides
# out the tiny-quota noise while still catching a real blowup
"$cli" runs diff --ledger "$ledir/CHECK_ledger.jsonl" --threshold 100 @-2 @-1 || {
  echo "check: runs diff flagged two identical-tree bench runs"
  exit 1
}
printf '%s\n' '{"schema":1,"run_id":"synthetic-a","ts":"2026-01-01T00:00:00Z","tool":"bench","subcommand":"bench:smoke","argv":[],"outcome":"ok","exit_code":0,"metrics":{"bench.bbng/x.ns_per_run":1000},"counters":{},"artifacts":[]}' > "$ledir/SYNTH_ledger.jsonl"
printf '%s\n' '{"schema":1,"run_id":"synthetic-b","ts":"2026-01-01T00:01:00Z","tool":"bench","subcommand":"bench:smoke","argv":[],"outcome":"ok","exit_code":0,"metrics":{"bench.bbng/x.ns_per_run":2500},"counters":{},"artifacts":[]}' >> "$ledir/SYNTH_ledger.jsonl"
if "$cli" runs diff --ledger "$ledir/SYNTH_ledger.jsonl" synthetic-a synthetic-b > /dev/null; then
  echo "check: runs diff missed an injected 2.5x metric regression"
  exit 1
fi

echo "== census: kill+resume commits byte-identical artifacts =="
# the checkpointed census's core invariant, end to end: a SIGKILLed
# sharded run, resumed, must commit the exact bytes of an uninterrupted
# one; and the committed golden census must still validate read-only
cendir=_build/census_stage
rm -rf "$cendir"
mkdir -p "$cendir/fresh" "$cendir/killed"
root=$(pwd)
( cd "$cendir/fresh" && "$root/$cli" census -b 1,1,1,1,1 --shard-size 64 \
    --out CEN.jsonl --metrics-out CEN.prom --report CEN.report.jsonl \
    > sharded.out )
# the in-memory census (one range through the same shard scanner) must
# print exactly what the sharded, checkpointed run prints
( cd "$cendir/fresh" && "$root/$cli" census -b 1,1,1,1,1 > memory.out )
cmp -s "$cendir/fresh/sharded.out" "$cendir/fresh/memory.out" || {
  echo "check: in-memory census output differs from the sharded run's"
  diff "$cendir/fresh/sharded.out" "$cendir/fresh/memory.out" || true
  exit 1
}
# shards of 7 over groups of C(4,2) = 6 profiles (the last player's
# strategies): every shard edge cuts a group, and the grouped verdict
# walk must still print what the in-memory census prints
mkdir -p "$cendir/cut"
for cost in sum max; do
  ( cd "$cendir/cut" && "$root/$cli" census -b 2,2,2,2,2 -c "$cost" \
      --shard-size 7 --out "CUT_$cost.jsonl" > "sharded_$cost.out" )
  ( cd "$cendir/cut" && "$root/$cli" census -b 2,2,2,2,2 -c "$cost" \
      > "memory_$cost.out" )
  cmp -s "$cendir/cut/sharded_$cost.out" "$cendir/cut/memory_$cost.out" || {
    echo "check: $cost census sharded across groups differs from the in-memory one"
    diff "$cendir/cut/sharded_$cost.out" "$cendir/cut/memory_$cost.out" || true
    exit 1
  }
done
# the recording has one span per shard (1024 profiles / 64) and none per
# audited player: verdict certifications record no per-player span
shard_spans=$(grep '"event":"span"' "$cendir/fresh/CEN.report.jsonl" \
  | grep -c '"name":"census.shard"')
player_spans=$(grep '"event":"span"' "$cendir/fresh/CEN.report.jsonl" \
  | grep -c '"name":"equilibrium.certify_player"' || true)
[ "$shard_spans" = 16 ] && [ "$player_spans" = 0 ] || {
  echo "check: census recording has $shard_spans census.shard spans (want 16) and $player_spans equilibrium.certify_player spans (want 0)"
  exit 1
}
# the census's own progress counters reach the OpenMetrics snapshot,
# one family each
"$bench" --validate-metrics "$cendir/fresh/CEN.prom"
[ "$(grep -c '^bbng_census_profiles_scanned_total ' "$cendir/fresh/CEN.prom")" = 1 ] || {
  echo "check: expected exactly one bbng_census_profiles_scanned_total sample"
  exit 1
}
rc=0
( cd "$cendir/killed" && "$root/$cli" census -b 1,1,1,1,1 --shard-size 64 \
    --out CEN.jsonl --fault census.checkpoint@kill@3 ) > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || {
  echo "check: census kill expected exit 137, got $rc"
  exit 1
}
( cd "$cendir/killed" && "$root/$cli" census --resume CEN.jsonl > /dev/null )
cmp -s "$cendir/fresh/CEN.jsonl" "$cendir/killed/CEN.jsonl" || {
  echo "check: kill+resume census artifact differs from the fresh run"
  exit 1
}
for f in test/golden/CENSUS_*.jsonl; do
  [ -e "$f" ] || continue
  "$cli" census --resume "$f" > /dev/null || {
    echo "check: golden census $f no longer validates"
    exit 1
  }
done

echo "check: all green"
