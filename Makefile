.PHONY: build test bench smoke fault-smoke perfbench-smoke check fmt bench-baseline artifacts top-demo flame-demo runs-demo census-demo

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

smoke:
	dune exec bench/main.exe -- --smoke
	dune exec bench/main.exe -- --validate BENCH_smoke.json

# crash-safety matrix: SIGKILL / raise / deadline / malformed-input
# injections against the CLI, asserting artifact and exit-code contracts
fault-smoke:
	sh bin/fault_smoke.sh

# one short run of each whole-scenario benchmark workload; fails unless
# every run's oracles pass ("correct": true on its result line)
perfbench-smoke:
	sh bin/perfbench_smoke.sh

# build + tests + bench smoke + report-format validation + bench diff
check:
	sh bin/check.sh

# regenerate the BENCH_micro.json / BENCH_smoke.json baselines and
# promote them to bench/baselines/ (tracked), so bin/check.sh's
# --diff always has a real reference even on a fresh clone; the
# in-tree copies are refreshed too and win when present, since ns/run
# is machine-specific and a local baseline diffs cleaner
bench-baseline:
	dune exec bench/main.exe -- perf
	dune exec bench/main.exe -- --smoke
	dune exec bench/main.exe -- --validate BENCH_micro.json
	dune exec bench/main.exe -- --validate BENCH_smoke.json
	mkdir -p bench/baselines
	cp BENCH_micro.json BENCH_smoke.json bench/baselines/
	@echo "baselines refreshed: next 'make check' diffs against them"

# regenerate the golden audit artifacts (equilibrium certificates +
# dynamics flight recordings) into artifacts/ and compare each with its
# committed copy in test/golden/, where bin/check.sh independently
# re-verifies every one with `bbng_cli verify` / `bbng_cli replay`.
# The bench run compares each recording event by event, leaving out
# what differs from run to run (ts_us, argv, progress heartbeats), and
# says where it first departs from its golden copy; the target then
# lists the certificates that differ byte for byte.  It overwrites
# nothing: the committed certificates predate the evidence's
# engine/candidates fields and the committed recordings the
# dynamics.diagnosis events, so a blind copy would rewrite the whole
# golden set.  Promote a file deliberately, by hand
# (cp artifacts/FILE test/golden/), once its diff is understood.
GOLDEN_CERTS = CERT_sun8_max.json CERT_sun8_swap.json \
  CERT_tripod2_max.json CERT_refuted_path3_max.json
artifacts:
	dune exec bench/main.exe -- artifacts
	@differ=""; \
	for f in $(GOLDEN_CERTS); do \
	  cmp -s artifacts/$$f test/golden/$$f || differ="$$differ $$f"; \
	done; \
	if [ -n "$$differ" ]; then \
	  echo "certificates differing from test/golden/ (not promoted):$$differ"; \
	else \
	  echo "golden certificates reproduced byte for byte"; \
	fi

# record a short dynamics run with a fast heartbeat ticker, then render
# the recording with the live viewer — a ten-second look at what
# `bbng_cli top` shows against a run in flight
top-demo:
	BBNG_HEARTBEAT_MS=5 dune exec bin/bbng_cli.exe -- dynamics \
	  -b 2,2,2,2,2,2,2,2,2,2 --seed 7 \
	  --report _build/TOPDEMO.jsonl --metrics-out _build/TOPDEMO.prom \
	  > /dev/null
	dune exec bin/bbng_cli.exe -- top _build/TOPDEMO.jsonl --once --no-clear
	@echo "(metrics snapshot: _build/TOPDEMO.prom)"

# record a dynamics run with call-path profiling on, reconstruct the
# same folded stacks offline from the recording, and sanity-grep the
# known hot path in both — the files are ready for flamegraph.pl or
# speedscope (see README "Profiling a run")
flame-demo:
	dune exec bin/bbng_cli.exe -- dynamics \
	  -b 2,2,2,2,2,2,2,2,2,2 --seed 7 \
	  --report _build/FLAMEDEMO.jsonl --profile _build/FLAMEDEMO.folded \
	  > /dev/null
	dune exec bin/bbng_cli.exe -- flame _build/FLAMEDEMO.jsonl \
	  -o _build/FLAMEDEMO.offline.folded
	grep -q "^dynamics.run;dynamics.select_move " _build/FLAMEDEMO.folded
	grep -q "^dynamics.run;dynamics.select_move " _build/FLAMEDEMO.offline.folded
	@echo "folded stacks: _build/FLAMEDEMO.folded (wall ns)," \
	  "_build/FLAMEDEMO.alloc.folded (minor words)," \
	  "_build/FLAMEDEMO.offline.folded (offline, from the recording)"
	@echo "render: flamegraph.pl _build/FLAMEDEMO.folded > flame.svg"

# index two recorded dynamics runs (same seed, so the diff is green)
# into a throwaway ledger, then walk the `runs` query family: list the
# index, diff the pair metric by metric, inspect the latest row — a
# ten-second look at cross-run observability (README "Querying past
# runs")
runs-demo:
	BBNG_LEDGER=_build/RUNSDEMO_ledger.jsonl dune exec bin/bbng_cli.exe -- \
	  dynamics -b 2,2,2,2,2,2,2,2,2,2 --seed 7 \
	  --report _build/RUNSDEMO_a.jsonl > /dev/null
	BBNG_LEDGER=_build/RUNSDEMO_ledger.jsonl dune exec bin/bbng_cli.exe -- \
	  dynamics -b 2,2,2,2,2,2,2,2,2,2 --seed 7 \
	  --report _build/RUNSDEMO_b.jsonl > /dev/null
	dune exec bin/bbng_cli.exe -- runs list --ledger _build/RUNSDEMO_ledger.jsonl
	dune exec bin/bbng_cli.exe -- runs diff --ledger _build/RUNSDEMO_ledger.jsonl @-2 @-1
	dune exec bin/bbng_cli.exe -- runs show --ledger _build/RUNSDEMO_ledger.jsonl @-1

# run a sharded census, SIGKILL it mid-checkpoint, resume it, and show
# the resumed artifact is byte-identical to an uninterrupted run — a
# ten-second look at the crash-recoverable census (README "Running a
# long census")
census-demo: build
	rm -rf _build/CENSUSDEMO && mkdir -p _build/CENSUSDEMO/fresh _build/CENSUSDEMO/killed
	cd _build/CENSUSDEMO/fresh && ../../default/bin/bbng_cli.exe census \
	  -b 1,1,1,1,1,1 --shard-size 400 --out CEN.jsonl
	-cd _build/CENSUSDEMO/killed && ../../default/bin/bbng_cli.exe census \
	  -b 1,1,1,1,1,1 --shard-size 400 --out CEN.jsonl \
	  --fault census.checkpoint@kill@3 2> /dev/null
	@echo "-- killed mid-checkpoint; shards committed so far:"
	@wc -l < _build/CENSUSDEMO/killed/CEN.jsonl.partial
	cd _build/CENSUSDEMO/killed && ../../default/bin/bbng_cli.exe census \
	  --resume CEN.jsonl
	cmp _build/CENSUSDEMO/fresh/CEN.jsonl _build/CENSUSDEMO/killed/CEN.jsonl
	@echo "-- kill+resume artifact is byte-identical to the fresh run"

# no-op unless ocamlformat is configured; kept dune-native so CI can
# opt in with a .ocamlformat file
fmt:
	-dune build @fmt --auto-promote
