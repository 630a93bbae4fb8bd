#!/bin/sh
# Fault-matrix smoke: out-of-process checks of the crash-safety and
# exit-code contracts that test/test_fault.ml cannot exercise in
# process (SIGKILL runs no cleanup; exit codes are process-level).
#
# Contract under test (see README "Resilience & limits"):
#   - killing a run mid-artifact-write leaves the previous artifact
#     byte-identical and still verifying;
#   - killing a run mid-flight-recording leaves the previous report
#     untouched and a .partial prefix that replays and resumes cleanly;
#   - an injected raise maps to exit 5 (fault), a deadline to a
#     degraded-but-verifying certificate, malformed input to exit 2;
#   - killing a run between heartbeats leaves a parseable OpenMetrics
#     snapshot and a .partial whose last heartbeat is at most one tick
#     old, still replayable and renderable by `bbng_cli top`;
#   - killing a run mid-profile-export leaves no torn .folded at all,
#     and the report .partial still reconstructs folded stacks offline;
#   - killing a run mid-ledger-append leaves at most one torn trailing
#     line that every reader skips, and `runs rebuild` re-derives the
#     lost row from the run's own recording.
set -eu
cd "$(dirname "$0")/.."

dune build bin/bbng_cli.exe bench/main.exe
CLI="$(pwd)/_build/default/bin/bbng_cli.exe"
BENCH="$(pwd)/_build/default/bench/main.exe"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM
cd "$tmp"

fail() {
  echo "fault-smoke: FAIL: $*" >&2
  exit 1
}

# an 8-player MAX equilibrium whose certification needs the real scan
PROFILE="1,7;;3,7;;5,7;;;"
DYNB=2,2,2,2,2,2,2,2,2,2,2,2

echo "== 1. kill mid-certificate-write: previous artifact survives =="
"$CLI" certify "$PROFILE" -c max --cert CERT.json > /dev/null
cp CERT.json CERT.before.json
rc=0
"$CLI" certify "$PROFILE" -c max --cert CERT.json \
  --fault artifact.mid_write@kill > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
cmp -s CERT.before.json CERT.json || fail "previous certificate was torn"
"$CLI" verify CERT.json > /dev/null || fail "previous certificate no longer verifies"

echo "== 2. kill mid-flight-recording: partial prefix replays and resumes =="
"$CLI" dynamics -b "$DYNB" --seed 3 --report RUN.jsonl > /dev/null
cp RUN.jsonl RUN.before.jsonl
rc=0
"$CLI" dynamics -b "$DYNB" --seed 3 --report RUN.jsonl \
  --fault sink.dynamics.step@kill@5 > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
cmp -s RUN.before.jsonl RUN.jsonl || fail "previous report was torn"
[ -s RUN.jsonl.partial ] || fail "no .partial prefix left behind"
"$CLI" replay RUN.jsonl.partial > /dev/null || fail "partial prefix does not replay"
"$CLI" dynamics --resume RUN.jsonl.partial > /dev/null \
  || fail "partial prefix does not resume"

echo "== 3. injected raise maps to the fault exit code =="
rc=0
"$CLI" dynamics -b "$DYNB" --seed 3 --report RUN2.jsonl \
  --fault span.dynamics.select_move@raise@3 > /dev/null 2>&1 || rc=$?
[ "$rc" = 5 ] || fail "expected fault exit 5, got $rc"
# the interrupted recording is still a replayable prefix
[ -s RUN2.jsonl.partial ] || fail "raise left no .partial prefix"
"$CLI" replay RUN2.jsonl.partial > /dev/null || fail "raise-interrupted prefix does not replay"

echo "== 4. deadline degrades the certificate, and it still verifies =="
"$CLI" certify "$PROFILE" -c max --deadline-ms 0.001 --cert DEG.json > out.txt
grep -q degraded out.txt || fail "deadline did not degrade the verdict"
grep -q '"degraded":true' DEG.json || fail "degraded provenance missing from artifact"
"$CLI" verify DEG.json > /dev/null || fail "degraded certificate rejected by verify"

echo "== 5. input taxonomy: malformed inputs exit 2, never a backtrace =="
echo 'this is not json' > bad.json
rc=0
"$CLI" verify bad.json > /dev/null 2> err.txt || rc=$?
[ "$rc" = 2 ] || fail "malformed certificate: expected exit 2, got $rc"
grep -q "Raised at" err.txt && fail "malformed certificate leaked a backtrace"
echo 'not an edge list' > bad.graph
rc=0
"$CLI" kcenter --graph bad.graph -k 2 > /dev/null 2> err.txt || rc=$?
[ "$rc" = 2 ] || fail "malformed graph file: expected exit 2, got $rc"
grep -q "bad.graph" err.txt || fail "graph error does not name the input file"

echo "== 6. env-armed fault specs are validated up front =="
rc=0
BBNG_FAULT="nonsense spec" "$CLI" construct tripod -k 1 > /dev/null 2>&1 || rc=$?
[ "$rc" = 124 ] || fail "bad BBNG_FAULT: expected exit 124, got $rc"

echo "== 7. SIGKILL a bench experiment mid-write: every artifact verifies or replays =="
"$BENCH" artifacts > /dev/null
rc=0
BBNG_FAULT="artifact.mid_write@kill@2" "$BENCH" artifacts > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "bench kill: expected exit 137, got $rc"
for f in artifacts/CERT_*.json; do
  [ -e "$f" ] || fail "bench kill wiped the certificates"
  "$CLI" verify "$f" > /dev/null || fail "$f no longer verifies after bench kill"
done
for f in artifacts/DYN_*.jsonl; do
  [ -e "$f" ] || continue
  "$CLI" replay "$f" > /dev/null || fail "$f no longer replays after bench kill"
done
for f in artifacts/DYN_*.jsonl.partial; do
  [ -e "$f" ] || continue
  "$CLI" replay "$f" > /dev/null || fail "$f is not a replayable prefix"
done

echo "== 8. SIGKILL mid-row-build: rows-engine certify leaves the previous artifact intact =="
# players 0, 2 and 4 have budget 2, so their scans price through the
# distance-row engine and reach the deveval.row_build probe
"$CLI" certify "$PROFILE" -c max --cert ROWS.json > /dev/null
cp ROWS.json ROWS.before.json
rc=0
"$CLI" certify "$PROFILE" -c max --cert ROWS.json \
  --fault deveval.row_build@kill@3 > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
cmp -s ROWS.before.json ROWS.json || fail "previous rows certificate was torn"
"$CLI" verify ROWS.json > /dev/null || fail "previous rows certificate no longer verifies"
# and a fresh run re-certifies byte-identically (same argv, so the
# provenance block matches too: run it from a sibling directory)
mkdir rows2 && (cd rows2 && "$CLI" certify "$PROFILE" -c max --cert ROWS.json > /dev/null)
cmp -s ROWS.json rows2/ROWS.json || fail "rows certify is not deterministic after the kill"

echo "== 9. SIGKILL between heartbeats: fresh .prom survives, .partial carries the beats =="
# BBNG_HEARTBEAT_MS=0 beats at every step, so the 4th progress.tick
# probe fires after three complete heartbeats reached the report and
# three snapshots reached the .prom (plus the arm-time snapshot)
rc=0
BBNG_HEARTBEAT_MS=0 "$CLI" dynamics -b "$DYNB" --seed 3 --report HB.jsonl \
  --metrics-out HB.prom --fault progress.tick@kill@4 > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
"$BENCH" --validate-metrics HB.prom > /dev/null \
  || fail "killed run left an invalid OpenMetrics snapshot"
[ -s HB.jsonl.partial ] || fail "heartbeat kill left no .partial prefix"
grep -q progress.heartbeat HB.jsonl.partial \
  || fail "no heartbeat reached the .partial before the kill"
"$CLI" replay HB.jsonl.partial > /dev/null \
  || fail "heartbeat-laced prefix does not replay"
"$CLI" top HB.jsonl.partial --once --no-clear | grep -q "heartbeat: dynamics" \
  || fail "top cannot render the killed run's last heartbeat"

echo "== 10. SIGKILL mid-profile-export: no torn .folded, the .partial still flames =="
# control: a profiled, recorded run leaves both folded flavors and a
# recording that reconstructs the same stacks offline
"$CLI" dynamics -b "$DYNB" --seed 3 --report PR.jsonl --profile PR.folded > /dev/null
[ -s PR.folded ] || fail "control run left no folded stacks"
[ -s PR.alloc.folded ] || fail "control run left no allocation folded stacks"
"$CLI" flame PR.jsonl > /dev/null || fail "control recording does not flame"
# killed at the export probe: the folded files must be absent entirely
# (Atomic_io never exposes a partial write), and the report must remain
# as a .partial prefix that still flames
rc=0
"$CLI" dynamics -b "$DYNB" --seed 3 --report PR2.jsonl --profile PR2.folded \
  --fault profile.export@kill > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
[ -e PR2.folded ] && fail "kill mid-export left a torn PR2.folded"
[ -e PR2.alloc.folded ] && fail "kill mid-export left a torn PR2.alloc.folded"
[ -s PR2.jsonl.partial ] || fail "export kill left no .partial report"
"$CLI" flame PR2.jsonl.partial > /dev/null \
  || fail "killed run's .partial does not flame"
# a half-written trailing line (what a SIGKILL mid-emit produces) is
# skipped like `top` does, never fatal
printf '{"event":"span","name":"torn","du' >> PR2.jsonl.partial
"$CLI" flame PR2.jsonl.partial > /dev/null \
  || fail "torn .partial line wedged flame"

echo "== 11. SIGKILL mid-ledger-append: torn line skipped, rebuild recovers every run =="
# two recorded runs index into a dedicated ledger; the second is killed
# exactly as its row is appended, leaving a torn trailing line.  The
# readers must skip it (an old binary tailing a newer ledger must never
# raise either), and `runs rebuild` must re-derive the lost row from
# the run's committed recording.
mkdir ledger11
BBNG_LEDGER=ledger11/LED.jsonl "$CLI" dynamics -b "$DYNB" --seed 3 \
  --report ledger11/LED1.jsonl > /dev/null
rc=0
BBNG_LEDGER=ledger11/LED.jsonl "$CLI" dynamics -b "$DYNB" --seed 4 \
  --report ledger11/LED2.jsonl --fault artifact.mid_append@kill \
  > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
[ "$(wc -l < ledger11/LED.jsonl)" = 1 ] \
  || fail "torn append should leave exactly one complete row"
[ -s ledger11/LED2.jsonl ] || fail "the killed run's report did not commit"
"$CLI" runs list --ledger ledger11/LED.jsonl --porcelain > rows.txt 2> skip.txt \
  || fail "runs list choked on the torn ledger"
[ "$(wc -l < rows.txt)" = 1 ] || fail "torn ledger should yield exactly 1 parseable row"
grep -q "skipped 1 torn" skip.txt || fail "the torn line was not reported as skipped"
"$CLI" runs rebuild --ledger ledger11/LED.jsonl ledger11 > /dev/null \
  || fail "runs rebuild failed on the torn ledger"
"$CLI" runs list --ledger ledger11/LED.jsonl --porcelain > rows.txt 2> skip.txt
[ "$(wc -l < rows.txt)" = 2 ] || fail "rebuild did not recover both runs"
[ -s skip.txt ] && fail "rebuilt ledger still has unparseable lines"
"$CLI" runs show --ledger ledger11/LED.jsonl @-2 > /dev/null \
  || fail "runs show lost the surviving row after rebuild"
"$CLI" runs show --ledger ledger11/LED.jsonl @-1 > /dev/null \
  || fail "runs show cannot render the recovered row"

echo "== 12. SIGKILL mid-census-checkpoint: resume commits the identical artifact =="
# reference: an uninterrupted sharded census
mkdir census12
(cd census12 && "$CLI" census -b 1,1,1,1,1 --shard-size 50 --out CEN.jsonl > /dev/null)
# victim A: killed just before the 4th shard row is appended — at most
# the in-flight shards are lost, the checkpoint keeps whole rows only
mkdir census12a
rc=0
(cd census12a && "$CLI" census -b 1,1,1,1,1 --shard-size 50 --out CEN.jsonl \
  --fault census.checkpoint@kill@4) > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
[ -e census12a/CEN.jsonl ] && fail "killed census committed a final artifact"
[ -s census12a/CEN.jsonl.partial ] || fail "killed census left no checkpoint"
(cd census12a && "$CLI" census --resume CEN.jsonl.partial > /dev/null) \
  || fail "census checkpoint does not resume"
cmp -s census12/CEN.jsonl census12a/CEN.jsonl \
  || fail "kill+resume census is not byte-identical to the uninterrupted run"
# victim B: killed inside the O_APPEND write itself — the torn trailing
# line must be skipped (and counted) on resume, with the same bytes out
mkdir census12b
rc=0
(cd census12b && "$CLI" census -b 1,1,1,1,1 --shard-size 50 --out CEN.jsonl \
  --fault artifact.mid_append@kill@3) > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
[ -s census12b/CEN.jsonl.partial ] || fail "mid-append kill left no checkpoint"
(cd census12b && "$CLI" census --resume CEN.jsonl > out.txt) \
  || fail "torn census checkpoint does not resume"
grep -q "skipped 1 torn" census12b/out.txt \
  || fail "the torn checkpoint line was not reported as skipped"
cmp -s census12/CEN.jsonl census12b/CEN.jsonl \
  || fail "torn-line resume is not byte-identical to the uninterrupted run"
# a killed worker's claim goes stale, and a second worker drains the
# rest of the checkpoint to the same bytes
mkdir census12c
rc=0
(cd census12c && "$CLI" census -b 1,1,1,1,1 --shard-size 50 --worker --out CEN.jsonl \
  --fault census.checkpoint@kill@2) > /dev/null 2>&1 || rc=$?
[ "$rc" = 137 ] || fail "expected SIGKILL exit 137, got $rc"
grep -q '"row":"claim"' census12c/CEN.jsonl.partial \
  || fail "killed worker left no claim rows"
(cd census12c && "$CLI" census --worker --out CEN.jsonl > /dev/null) \
  || fail "second worker could not drain the checkpoint"
cmp -s census12/CEN.jsonl census12c/CEN.jsonl \
  || fail "worker recovery is not byte-identical to the uninterrupted run"

echo "fault-smoke: all green"
