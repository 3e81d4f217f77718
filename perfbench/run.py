#!/usr/bin/env python3
"""memclust benchmark: builds the worker (perfbench/bench.ml) from source,
runs one workload for about --seconds, checks its outputs and prints one
JSON result line. Run it from the root of a memclust checkout:

    python3 perfbench/run.py --workload simulate_mp --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("simulate_mp", "reproduce_up")

# Each silently changes results or the thread count; the benchmark runs
# only with all of them unset.
PINNED_ENV = (
    "MEMCLUST_SIM_MODE",
    "MEMCLUST_FAULTS",
    "MEMCLUST_CHAOS_PASSES",
    "MEMCLUST_FAIL_PASS",
    "MEMCLUST_WATCHDOG_CYCLES",
    "MEMCLUST_TIME_BUDGET_S",
    "MEMCLUST_DOMAINS",
)

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKER = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
SETUPS = 3  # simulate_mp clusterings timed per run (~9 s each)
UP_SETUPS = 25  # reproduce_up process starts timed per run (~10 ms each)
PROCESS_TIMEOUT_S = 170

# The values iteration() marks deterministic must repeat across
# iterations, runs and seeds. Allocation is compared to within
# ALLOC_SLACK_BYTES: the runtime's counters move by up to ~20 KiB between
# identical iterations, and the harness clusters on two domains in no
# fixed order, which changes the length of the scalar names unroll-and-jam
# stamps.
ALLOC_SLACK_BYTES = 262144


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def result_line(attempted, failed, metrics):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def build():
    if not os.path.isfile(os.path.join("perfbench", "run.py")) or not os.path.isdir("lib"):
        log("run me from the root of a memclust checkout")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return proc.returncode == 0 and os.path.isfile(WORKER)


def run_worker(args):
    """Run the worker to completion in its own process group; return its
    result object, or None if it failed."""
    cmd = [WORKER] + args
    log(" ".join(cmd))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("worker timed out")
        return None
    if proc.returncode != 0:
        log(f"worker exited with {proc.returncode}")
        return None
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def source_digest():
    """A digest of the sources the worker is built from (the checkout the
    benchmark runs in is not necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def ledger_check(workload, det):
    """Compare this run's deterministic values with the first run's in this
    checkout (recording them if this is the first). Returns the keys that
    differ."""
    path = os.path.join(OUT_DIR, f"ledger-{workload}.json")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(det, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path) as f:
        first = json.load(f)
    bad = []
    for k in sorted(set(first) | set(det)):
        a, b = first.get(k), det.get(k)
        if k == "alloc_bytes" and a is not None and b is not None:
            if abs(a - b) > ALLOC_SLACK_BYTES:
                bad.append(k)
        elif a != b:
            bad.append(k)
    return bad


def speedup_geomean(points):
    """Geomean over the base/clustered pairs of base cycles / clustered
    cycles, in key order."""
    cycles = {p["key"]: p["cycles"] for p in points}
    logs = [math.log(c / cycles[k + "/clustered"]) for k, c in sorted(cycles.items())
            if k + "/clustered" in cycles]
    return math.exp(sum(logs) / len(logs))


def iteration(wall_s, alloc_bytes, points, peak_rss_mb, cache_entries):
    """One iteration's values, and the ones that must repeat exactly."""
    it = {
        "wall_s": wall_s,
        "alloc_bytes": alloc_bytes,
        "instructions": sum(p["instructions"] for p in points),
        "speedup_geomean": speedup_geomean(points),
        "peak_rss_mb": peak_rss_mb,
    }
    det = {
        "alloc_bytes": alloc_bytes,
        "speedup_geomean": it["speedup_geomean"],
        "lower.instrs": sum(p["lower_instrs"] for p in points),
    }
    det.update((f"sim.cycles.{p['key']}", p["cycles"]) for p in points)
    det.update((f"cache.{k}", n) for k, n in cache_entries.items())
    return it, det


def run_simulate_mp(ns, extra):
    """Set-up process, then iterations of one fresh process per point (in a
    seed-permuted order) for --seconds. Returns (workers, iterations)."""
    programs = os.path.join(OUT_DIR, "mp-programs.bin")
    setups = 1 if ns.inject else SETUPS
    setup = run_worker(["simulate_mp", "--setups", str(setups), "--programs", programs] + extra)
    if setup is None:
        return None, []
    workers, iterations = [setup], []
    rng = random.Random(ns.seed)
    t0 = time.monotonic()
    while not iterations or time.monotonic() - t0 < ns.seconds:
        order = list(setup["points"])
        rng.shuffle(order)
        procs = [run_worker(["simulate_mp", "--programs", programs, "--point", k] + extra) for k in order]
        if any(p is None for p in procs):
            return None, []
        workers += procs
        its = [p["iterations"][0] for p in procs]
        iterations.append(iteration(
            sum(i["wall_s"] for i in its), sum(i["alloc_bytes"] for i in its),
            [pt for i in its for pt in i["points"]], max(p["peak_rss_mb"] for p in procs), {}))
    return workers, iterations


def run_reproduce_up(ns, extra, spans):
    """Fresh processes: UP_SETUPS timed set-ups, then one per iteration for
    --seconds, then (traced runs) the traced one. Returns (workers,
    iterations, setup_s)."""
    setup_s = []
    for _ in range(UP_SETUPS):
        t0 = time.monotonic()
        code = subprocess.run([WORKER, "reproduce_up", "--setup-only"], stdout=subprocess.DEVNULL,
                              timeout=PROCESS_TIMEOUT_S).returncode
        if code != 0:
            return None, [], []
        setup_s.append(time.monotonic() - t0)
    workers, iterations = [], []
    t0 = time.monotonic()
    while not iterations or (time.monotonic() - t0 < ns.seconds and not ns.trace):
        w = run_worker(["reproduce_up"] + extra)
        if w is None:
            return None, [], []
        workers.append(w)
        i = w["iterations"][0]
        iterations.append(iteration(i["wall_s"], i["alloc_bytes"], i["points"], w["peak_rss_mb"],
                                    w["cache_entries"]))
    if ns.trace:
        w = run_worker(["reproduce_up", "--trace", "1", "--spans", spans] + extra)
        if w is None:
            return None, [], []
        w["layers"]["trace.overhead_s"] = w["iterations"][0]["wall_s"] - iterations[0][0]["wall_s"]
        workers.append(w)
    return workers, iterations, setup_s


def measure(ns):
    """One benchmark run. Returns (attempted, failed, metrics, record)."""
    extra = ["--seed", str(ns.seed)]
    if ns.inject:
        extra += ["--inject", ns.inject]
    spans = os.path.join(OUT_DIR, f"spans-{ns.workload}-seed{ns.seed}.json")
    setup_s = []
    if ns.workload == "reproduce_up":
        workers, iterations, setup_s = run_reproduce_up(ns, extra, spans)
    elif ns.trace:
        w = run_worker(["simulate_mp", "--trace", "1", "--spans", spans] + extra)
        workers = w and [w]
        iterations = w and [iteration(i["wall_s"], i["alloc_bytes"], i["points"], w["peak_rss_mb"], {})
                            for i in w["iterations"]]
    else:
        workers, iterations = run_simulate_mp(ns, extra)
    if not workers:
        return 1, 1, {}, {"failures": ["worker failed"], "workers": []}
    setup_s += [s for w in workers for s in w["setup_s"]]

    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    # every untraced iteration's deterministic values against the first
    # run's in this checkout (self-test runs leave the ledger alone)
    for _, det in iterations:
        if not ns.inject:
            attempted += 1
            bad = ledger_check(ns.workload, det)
            if bad:
                failures.append("differs from the first run in this checkout: " + ", ".join(bad))

    # units, and the metrics each kind of run must report, come from
    # BENCHMARK.json
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if ns.trace else "end_to_end"]
    its = [it for it, _ in iterations]
    if ns.trace:
        values = dict(workers[-1]["layers"])
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(it["wall_s"] for it in its),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in its),
            "alloc_mb": statistics.median(it["alloc_bytes"] for it in its) / 2**20,
            "sim_mips": statistics.median(it["instructions"] / it["wall_s"] / 1e6 for it in its),
            "speedup_geomean": its[0]["speedup_geomean"],
        }
    missing = [m["name"] for m in spec if m["name"] not in values and m["name"] != "check_pass_rate"]
    attempted += 1
    if missing:
        failures.append("metrics not produced: " + ", ".join(missing))
    failed = len(failures)
    values["check_pass_rate"] = 1.0 - failed / attempted
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec if m["name"] in values}
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "failures": failures,
        "setup_s": setup_s,
        "iterations": its,
        "workers": workers,
        "other_values": {k: v for k, v in values.items() if k not in metrics},
        "spans_file": spans if ns.trace else None,
    }
    return attempted, failed, metrics, record


def self_test():
    """Each deliberately wrong output must be caught."""
    cases = [("simulate_mp", "store"), ("simulate_mp", "instrs"), ("reproduce_up", "table")]
    ok = True
    for workload, inject in cases:
        ns = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=0, inject=inject)
        attempted, failed, metrics, record = measure(ns)
        caught = failed > 0 and metrics.get("check_pass_rate", (1.0,))[0] < 1.0
        log(f"self-test {workload} --inject {inject}: {failed}/{attempted} checks failed -> {'caught' if caught else 'MISSED'}")
        ok = ok and caught
    print(json.dumps({"self_test": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("store", "instrs", "table"), help="corrupt one checked output (checker self-test)")
    ap.add_argument("--self-test", action="store_true", help="check that every injected fault is caught")
    ns = ap.parse_args()
    if not ns.self_test and ns.workload is None:
        ap.error("--workload is required")

    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        log("refusing to run with " + ", ".join(pinned) + " set")
        print(result_line(1, 1, {}))
        return 1
    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if ns.self_test:
        return self_test()

    attempted, failed, metrics, record = measure(ns)
    workers = record["workers"]
    provenance = {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "ocaml": workers[0]["provenance"]["ocaml"] if workers else None,
        "sim_mode": sorted({w["provenance"]["sim_mode"] for w in workers}),
        "pool_domains": max((w["provenance"]["pool_domains"] for w in workers), default=None),
        "nproc": os.cpu_count(),
    }
    record.update(provenance=provenance, attempted=attempted, failed=failed,
                  metrics={k: v for k, (v, _) in metrics.items()})
    out = os.path.join(OUT_DIR, f"result-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    for msg in record["failures"]:
        log("check failed: " + msg)
    print("provenance " + json.dumps(provenance))
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
