# Tier-1 verification in one command: `make check`.

.PHONY: all build test check ci bench bench-sched bench-check loc clean

all: build

build:
	dune build

test:
	dune runtest

# Everything the CI gate requires, in order.  `test` includes the
# parallel determinism suite (test_par: qcheck run_par = run equality,
# racer winner agreement, pool internals).
check: build test

# Mirror of .github/workflows/ci.yml: build, test, goal smoke (every
# goal's `check` holds and its universal demo achieves), trace smoke +
# analytics, parallel smoke, chaos smoke, live-stats smoke, golden
# drift, bench gate, serving-benchmark smoke (with the long_horizon
# 32 MB and open_ring 100 MB peak-heap guards, the long_horizon 25-word,
# storm 120-word and open_ring 80-word allocation guards).  Run before
# pushing.
ci: check
	dune exec bin/main.exe -- run e17 --jobs 2
	for g in printing maze control password delegation transfer prediction counting; do \
	  out=$$(dune exec bin/main.exe -- check $$g) || exit 1; echo "$$out"; \
	  echo "$$out" | grep -q HOLDS || exit 1; \
	  if echo "$$out" | grep -q VIOLATED; then exit 1; fi; \
	  dune exec bin/main.exe -- demo $$g --user universal | grep 'achieved=true' || exit 1; \
	done
	GOALCOM_E19_TRIALS=10 dune exec bin/main.exe -- run e19 --jobs 2
	dune exec bin/main.exe -- serve --sessions 24 --mix net --jobs 2
	dune exec bin/main.exe -- serve --sessions 2000 --jobs 1 --arrivals poisson:2.5 --class-weights "printing=3,maze-corridor=1" | grep '^digest' > /tmp/sched-1.digest
	dune exec bin/main.exe -- serve --sessions 2000 --jobs 2 --arrivals poisson:2.5 --class-weights "printing=3,maze-corridor=1" | grep '^digest' > /tmp/sched-2.digest
	cmp /tmp/sched-1.digest /tmp/sched-2.digest
	dune exec bin/main.exe -- chaos run --sessions 120 --jobs 2 --repeat 2 --check
	GOALCOM_E18_SESSIONS=60 dune exec bin/main.exe -- run e18 --jobs 2
	dune exec bin/main.exe -- warm record --sessions 18 --out /tmp/warm.jsonl
	dune exec bin/main.exe -- warm show /tmp/warm.jsonl
	dune exec bin/main.exe -- serve --sessions 36 --jobs 2 --warm /tmp/warm.jsonl
	dune exec bin/main.exe -- serve --sessions 60 --stats -
	dune exec bin/main.exe -- top --once --sessions 40
	dune exec bin/main.exe -- run e1 --trace /tmp/e1.jsonl
	test -s /tmp/e1.jsonl
	head -1 /tmp/e1.jsonl | grep -q '^{"ev":"'
	dune exec bin/main.exe -- trace stats /tmp/e1.jsonl
	dune exec bin/main.exe -- trace attribution /tmp/e1.jsonl
	dune exec bin/main.exe -- demo printing --user universal --trace | grep -q 'overhead ledger'
	dune exec bin/main.exe -- trace diff /tmp/e1.jsonl /tmp/e1.jsonl
	dune exec bin/main.exe -- chaos run --sessions 120 --jobs 2 --trace /tmp/chaos-a.jsonl
	dune exec bin/main.exe -- chaos run --sessions 120 --jobs 2 --ring 1000000 --trace /tmp/chaos-b.jsonl
	cmp /tmp/chaos-a.jsonl /tmp/chaos-b.jsonl
	dune exec bin/main.exe -- trace-golden test/golden
	git diff --exit-code test/golden
	BENCH_CHECK_ROUNDS=5 BENCH_CHECK_BUDGET=0.01 dune exec --profile release bench/main.exe -- --check
	for w in storm open_ring long_horizon; do \
	  line=$$(python3 servebench/run.py --workload $$w --seed 0 --seconds 1 | tail -1); \
	  echo "$$line" | grep -q '"correct": true' || exit 1; \
	  if [ $$w = long_horizon ]; then \
	    echo "$$line" | python3 -c 'import json, sys; mb = json.load(sys.stdin)["metrics"]["peak_heap_mb"]["value"]; print(f"long_horizon peak_heap_mb {mb:.2f} (limit 32)"); sys.exit(mb > 32)' || exit 1; \
	    echo "$$line" | python3 -c 'import json, sys; w = json.load(sys.stdin)["metrics"]["alloc_words_per_round"]["value"]; print(f"long_horizon alloc_words_per_round {w:.1f} (limit 25)"); sys.exit(w > 25)' || exit 1; \
	  fi; \
	  if [ $$w = storm ]; then \
	    echo "$$line" | python3 -c 'import json, sys; w = json.load(sys.stdin)["metrics"]["alloc_words_per_round"]["value"]; print(f"storm alloc_words_per_round {w:.1f} (limit 120)"); sys.exit(w > 120)' || exit 1; \
	  fi; \
	  if [ $$w = open_ring ]; then \
	    echo "$$line" | python3 -c 'import json, sys; mb = json.load(sys.stdin)["metrics"]["peak_heap_mb"]["value"]; print(f"open_ring peak_heap_mb {mb:.2f} (limit 100)"); sys.exit(mb > 100)' || exit 1; \
	    echo "$$line" | python3 -c 'import json, sys; w = json.load(sys.stdin)["metrics"]["alloc_words_per_round"]["value"]; print(f"open_ring alloc_words_per_round {w:.1f} (limit 80)"); sys.exit(w > 80)' || exit 1; \
	  fi; \
	done

# Regenerates every experiment table, runs the bechamel kernels, and
# rewrites every BENCH_*.json: the fault-layer timings and each gated
# part's baseline that `bench-check` gates against.
#
# All bench targets build with --profile release: the dev profile
# compiles with -opaque, which disables cross-module inlining and
# roughly doubles the per-event tracing cost being measured.  The
# committed BENCH_*.json baselines are release-profile numbers; the
# gate re-measures in the same profile.
bench:
	dune exec --profile release bench/main.exe

# Rewrites one part's BENCH_<part>.json: `make bench-trace`, bench-par,
# bench-sense, bench-session, bench-compile or bench-net.  An unknown
# part exits 2 and lists the valid ones.  BENCH_SESSION_SESSIONS
# scales the session population (default 10000) — only commit a
# default-scale file, since the gate re-runs at the same scale and
# pins the counts exactly.
bench-%: ; BENCH_ONLY=$* dune exec --profile release bench/main.exe

# Scheduling smoke: the fair-share engine under Poisson arrivals with
# weighted admission classes must report bit-identical outcome digests
# at jobs 1, 2 and 4 — domain-sharded quanta are an implementation
# detail, never an observable — then the bench gate re-checks the
# storm speedup ceiling and the allocation-per-round figure against
# the committed BENCH_session.json.
bench-sched:
	set -e; \
	for j in 1 2 4; do \
	  dune exec --profile release bin/main.exe -- serve --sessions 2000 \
	    --jobs $$j --arrivals poisson:2.5 \
	    --class-weights "printing=3,maze-corridor=1" \
	    | grep '^digest' > /tmp/sched-$$j.digest; \
	done; \
	cmp /tmp/sched-1.digest /tmp/sched-2.digest; \
	cmp /tmp/sched-1.digest /tmp/sched-4.digest; \
	echo "bench-sched: jobs 1/2/4 $$(cat /tmp/sched-1.digest) identical"
	BENCH_CHECK_ROUNDS=5 BENCH_CHECK_BUDGET=0.01 dune exec --profile release bench/main.exe -- --check

# The perf-regression gate: quick re-measure of every part, compare
# against its committed BENCH_<part>.json, write BENCH_check.json,
# exit 1 on any regression.
bench-check:
	dune exec --profile release bench/main.exe -- --check

# Non-test code size: .ml + .mli lines under lib, bin and bench, and
# their sum (the number ROADMAP tracks).
loc:
	@total=0; for d in lib bin bench; do \
	  n=$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
	  printf '%-5s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-5s %6d\n' total $$total

clean:
	dune clean
