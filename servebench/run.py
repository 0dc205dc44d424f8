#!/usr/bin/env python3
"""The goalcom serving benchmark: one command, run from the repository root.

    python3 servebench/run.py --workload storm --seed 1 --seconds 25 --trace 0

Builds servebench/main.exe in dune's release profile, then measures the
workload for --seconds seconds, one Engine.run per process (see main.ml).

  --trace 0   plain runs, each after a set-up-only process (setup_s is
              the median of their medians); prints every end-to-end
              metric.
  --trace 1   plain runs, layer runs and layer runs of the workload's par
              variant, in turn; prints every per-layer metric (the layer
              split comes from the jobs-1 layer runs; tick times, GC
              figures and the overhead baseline from the plain runs;
              pool.* and layer.unattributed_pct from the par variant).

The par variant (storm_par, ...) is the workload at jobs = host domains:
the only runs through lib/par's sharded quantum.

The correctness gate: every run's outcome digest and counts must agree
with each other and with servebench/expected.json when the seed is
recorded there, so layer runs reproduce the plain digest and storm_par
reproduces storm's; every Done session's recorded goal state must be
accepted by its referee.  A failed check, or a measurement process that
exits non-zero or times out, counts the run as failed, prints
"correct": false and exits 1.  Exit 2, without a result, is kept for
set-up failures: not a goalcom tree, a failed build, an unknown
workload.  The last line of stdout is the result object; the line
before it holds the provenance (host domains, OCaml version, dune
profile, seed, commit).

    python3 servebench/run.py --record 0-24

re-records expected.json for those seeds (one plain run per workload
and seed).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
RUN_TIMEOUT_S = 150
WORKLOADS = ["storm", "open_ring", "long_horizon"]
# Taken from the layer runs of the par variant (workload + "_par", at
# jobs = host domains: same population, so the same digest).  Too noisy
# on a shared host to gate end-to-end figures on, the par variants are
# measured by their layer runs only.  At jobs 1 the pool is absent and
# the unattributed remainder is 0 by construction.
PAR_RUN = ["pool.width", "pool.busy_pct", "layer.unattributed_pct"]
GATED = ["digest", "completed", "shed", "restarts", "trips", "total_rounds"]

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "goals_per_s": "1/s",
    "rounds_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rounds_to_goal_p50": "rounds",
    "rounds_to_goal_p99": "rounds",
    "done_pct": "%",
    "alloc_words_per_round": "words",
    "peak_heap_mb": "MB",
    "setup_s": "s",
}

LAYER_RUN = {
    "universal.calls": "count",
    "universal.self_ms": "ms",
    "universal.ns_per_call": "ns",
    "universal.slots_per_goal": "slots",
    "sensing.calls": "count",
    "sensing.self_ms": "ms",
    "sensing.negative_pct": "%",
    "servers.calls": "count",
    "servers.self_ms": "ms",
    "world.calls": "count",
    "world.self_ms": "ms",
    "referee.calls": "count",
    "referee.self_ms": "ms",
    "referee.calls_per_round": "calls/round",
    "engine.ticks": "ticks",
    "engine.self_ms": "ms",
    "engine.replay_ms": "ms",
    "admission.wait_p50_ticks": "ticks",
    "admission.wait_p99_ticks": "ticks",
    "admission.shed": "count",
    "supervise.restarts": "count",
    "supervise.kills": "count",
    "supervise.trips": "count",
    "supervise.decisions": "count",
    "ring.events": "count",
    "ring.sink_ms": "ms",
    "ring.evicted": "count",
}
# Taken from the plain runs of a --trace 1 invocation, undisturbed by
# the wrappers' own time and allocation.
PLAIN_RUN = {
    "engine.tick_p50_ms": "ms",
    "engine.tick_p99_ms": "ms",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "gc.promoted_words_per_round": "words",
}
PER_LAYER_UNITS = dict(LAYER_RUN, **PLAIN_RUN, **{
    "pool.width": "domains",
    "pool.busy_pct": "%",
    "layer.overhead_pct": "%",
    "layer.unattributed_pct": "%",
})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("servebench: " + msg)
    sys.exit(2)


def check_tree():
    for path in ("dune-project", "lib/session/engine.ml", "servebench/dune"):
        if not os.path.isfile(path):
            fail_setup(
                "run from the root of a goalcom source tree (%s is missing)" % path
            )


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail_setup("dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = [dune, "build", "--root", ".", "--profile", "release",
           "--build-dir", build_dir, "servebench/main.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail_setup("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "default", "servebench", "main.exe")


def measure(exe, workload, *args):
    """One measurement process's figures, or None if it failed."""
    cmd = [exe, "--workload", workload] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr or "")
        log("servebench: RUN FAILED: timed out after %ds: %s"
            % (RUN_TIMEOUT_S, " ".join(cmd)))
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        log("servebench: RUN FAILED: exit %d: %s" % (proc.returncode, " ".join(cmd)))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    # Not a git checkout: identify the tree by its sources instead.
    h = hashlib.sha256()
    for top in ("lib", "bin", "servebench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py", ".json")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def gate(runs, workload, seed):
    """The correctness gate; returns (failed runs, messages)."""
    problems = []
    failed = 0
    if not runs:
        return failed, problems
    recorded = load_expected().get(workload, {}).get(str(seed))
    reference = recorded or {k: runs[0][k] for k in GATED}
    for r in runs:
        wrong = [k for k in GATED if r[k] != reference[k]]
        if r["bad_states"]:
            wrong.append("bad_states=%d" % r["bad_states"])
        if r["completed"] + r["shed"] + r["gave_up"] + r["deadlines"] + r["unfinished"] != r["sessions"]:
            wrong.append("outcome counts do not sum to sessions")
        if wrong:
            failed += 1
            problems.append("%s %s run (seed %d): mismatch in %s"
                            % (r["workload"], r["mode"], seed, ", ".join(wrong)))
    if recorded is None:
        log("servebench: seed %d not recorded for %s; gating on agreement between runs"
            % (seed, workload))
    return failed, problems


def first(runs, key):
    return next((r[key] for r in runs if r is not None), None)


def median(runs, key):
    """The median over the runs that completed; None if none did."""
    values = [float(r[key]) for r in runs if r is not None]
    return statistics.median(values) if values else None


def run_benchmark(args):
    check_tree()
    if args.workload not in WORKLOADS:
        fail_setup("unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    exe = build()
    setups, plain, layered, par = [], [], [], []
    started = time.monotonic()
    while True:
        # set-ups are sampled through the whole window, like the runs,
        # so a slow spell of the host weighs on both alike
        if not args.trace:
            setups.append(measure(exe, args.workload, "--setup-only"))
        plain.append(measure(exe, args.workload, "--seed", args.seed))
        if args.trace:
            layered.append(measure(exe, args.workload, "--seed", args.seed, "--layers"))
            par.append(measure(exe, args.workload + "_par", "--seed", args.seed, "--layers"))
        # a failed process is not retried: its failure is the finding
        if None in setups + plain + layered + par or time.monotonic() - started >= args.seconds:
            break
    runs = setups + plain + layered + par
    crashed = sum(r is None for r in runs)
    failed, problems = gate([r for r in plain + layered + par if r is not None],
                            args.workload, args.seed)
    failed += crashed
    for p in problems:
        log("servebench: GATE FAILED: " + p)

    if args.trace:
        values = {k: median(layered, k) for k in LAYER_RUN}
        values.update({k: median(plain, k) for k in PLAIN_RUN})
        values.update({k: median(par, k) for k in PAR_RUN})
        walls = (median(layered, "wall_s"), median(plain, "wall_s"))
        values["layer.overhead_pct"] = (
            None if None in walls else 100.0 * (walls[0] / walls[1] - 1.0))
        units = PER_LAYER_UNITS
    else:
        values = {k: median(plain, k) for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = median(setups, "setup_s")
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "host_domains": first(runs, "host_domains"),
        "ocaml": first(runs, "ocaml"),
        "profile": first(runs, "profile"),
        "commit": commit(),
        "jobs": first(plain, "jobs"),
        "sessions": first(plain, "sessions"),
        "plain_runs": len(plain),
        "layer_runs": len(layered),
        "par_layer_runs": len(par),
        "par_jobs": first(par, "jobs"),
        "setup_processes": len(setups),
        "setup_reps": sum(r["setup_reps"] for r in setups if r is not None),
        "plain_wall_s": [r and r["wall_s"] for r in plain],
        "digest": first(plain, "digest"),
    }
    print(json.dumps({"provenance": provenance}))
    attempted = len(runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(spec):
    check_tree()
    exe = build()
    expected = load_expected()
    for workload in WORKLOADS:
        for seed in parse_seeds(spec):
            r = measure(exe, workload, "--seed", seed)
            if r is None:
                fail_setup("%s seed %d: the run failed" % (workload, seed))
            if r["bad_states"]:
                fail_setup("%s seed %d: %d Done states rejected by their referee"
                           % (workload, seed, r["bad_states"]))
            expected.setdefault(workload, {})[str(seed)] = {k: r[k] for k in GATED}
            log("recorded %s seed %d: %s" % (workload, seed, r["digest"]))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="re-record expected.json for these seeds (e.g. 0-24)")
    args = ap.parse_args()
    if args.record:
        return record(args.record)
    if args.workload is None:
        ap.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
