# Tier-1 verification in one command: `make check`.

.PHONY: all build test check ci bench bench-par bench-sense bench-session bench-sched bench-compile bench-trace bench-net bench-check clean

all: build

build:
	dune build

test:
	dune runtest

# Everything the CI gate requires, in order.  `test` includes the
# parallel determinism suite (test_par: qcheck run_par = run equality,
# racer winner agreement, pool internals).
check: build test

# Mirror of .github/workflows/ci.yml: build, test, trace smoke +
# analytics, parallel smoke, chaos smoke, live-stats smoke, golden
# drift, bench gate, serving-benchmark smoke (with the long_horizon and
# open_ring peak-heap guards and the storm allocation guard).  Run
# before pushing.
ci: check
	dune exec bin/main.exe -- run e17 --jobs 2
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
	dune exec bin/main.exe -- trace diff /tmp/e1.jsonl /tmp/e1.jsonl
	dune exec bin/main.exe -- trace-golden test/golden
	git diff --exit-code test/golden
	BENCH_CHECK_ROUNDS=5 BENCH_CHECK_BUDGET=0.01 dune exec --profile release bench/main.exe -- --check
	for w in storm open_ring long_horizon; do \
	  line=$$(python3 servebench/run.py --workload $$w --seed 0 --seconds 1 | tail -1); \
	  echo "$$line" | grep -q '"correct": true' || exit 1; \
	  if [ $$w = long_horizon ]; then \
	    echo "$$line" | python3 -c 'import json, sys; mb = json.load(sys.stdin)["metrics"]["peak_heap_mb"]["value"]; print(f"long_horizon peak_heap_mb {mb:.2f} (limit 32)"); sys.exit(mb > 32)' || exit 1; \
	  fi; \
	  if [ $$w = storm ]; then \
	    echo "$$line" | python3 -c 'import json, sys; w = json.load(sys.stdin)["metrics"]["alloc_words_per_round"]["value"]; print(f"storm alloc_words_per_round {w:.1f} (limit 120)"); sys.exit(w > 120)' || exit 1; \
	  fi; \
	  if [ $$w = open_ring ]; then \
	    echo "$$line" | python3 -c 'import json, sys; mb = json.load(sys.stdin)["metrics"]["peak_heap_mb"]["value"]; print(f"open_ring peak_heap_mb {mb:.2f} (limit 200)"); sys.exit(mb > 200)' || exit 1; \
	  fi; \
	done

# Regenerates every experiment table, runs the bechamel kernels, and
# rewrites the BENCH_*.json baselines (fault-layer timings, tracing
# overhead, parallel scaling) that `bench-check` gates against.
#
# All bench targets build with --profile release: the dev profile
# compiles with -opaque, which disables cross-module inlining and
# roughly doubles the per-event tracing cost being measured.  The
# committed BENCH_*.json baselines are release-profile numbers; the
# gate re-measures in the same profile.
bench:
	dune exec --profile release bench/main.exe

# Rewrites just BENCH_par.json: the E17 workloads at jobs 1/2/4, with
# the determinism digests re-checked.
bench-par:
	BENCH_ONLY=par dune exec --profile release bench/main.exe

# Rewrites just BENCH_sense.json: the incremental judge/sensing kernels
# at horizons 1k/4k/16k, including the legacy-prefix quadratic baseline
# the >= 10x speedup gate compares against.
bench-sense:
	BENCH_ONLY=sense dune exec --profile release bench/main.exe

# Rewrites just BENCH_session.json: the supervised session engine over
# the storm and overload conditions at jobs 1/4, with the cross-jobs
# determinism digests re-checked.  BENCH_SESSION_SESSIONS scales the
# population (default 10000) — only commit a default-scale file, since
# the gate re-runs at the same scale and pins the counts exactly.
bench-session:
	BENCH_ONLY=session dune exec --profile release bench/main.exe

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

# Rewrites just BENCH_compile.json: a 512-slot Levin prefix walked
# over the machine-user class behind Enum.cached ("compiled") vs with
# a fresh decode per slot ("uncompiled"), with the decode LRU hit
# rate — the >= 3x speedup and <= 10% miss gates compare against it.
bench-compile:
	BENCH_ONLY=compile dune exec --profile release bench/main.exe

# Rewrites just BENCH_trace.json: the tracing-overhead table on the
# compact control kernel (no sink / null / metrics / binary ring /
# jsonl), whose ring and null rows the gate pins against hard
# absolute thresholds.
bench-trace:
	BENCH_ONLY=trace dune exec --profile release bench/main.exe

# Rewrites just BENCH_net.json: the network goal family — topology
# delivery rounds, ARQ forwarding failure counts under fault stacks,
# and the shared-medium contention populations at 2/4/8 users with
# the cross-jobs determinism digests re-checked.  Every count is
# deterministic and gated at zero tolerance; only wall clocks are
# loose.
bench-net:
	BENCH_ONLY=net dune exec --profile release bench/main.exe

# The perf-regression gate: quick re-measure, compare against the
# committed BENCH_trace.json + BENCH_par.json + BENCH_sense.json +
# BENCH_session.json + BENCH_compile.json + BENCH_net.json, write
# BENCH_check.json, exit 1 on any regression.
bench-check:
	dune exec --profile release bench/main.exe -- --check

clean:
	dune clean
