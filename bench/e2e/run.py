#!/usr/bin/env python3
"""Build and run bench_e2e, the repository's end-to-end benchmark.

One run (the form BENCHMARK.json's "command" uses), from the repo root:

    python3 bench/e2e/run.py --workload study-650 --seed 1 --seconds 10 --trace 0

builds bench/e2e (Release, into .bench_build/e2e) when needed, runs the
workload in its own process and prints the binary's report; the last line of
stdout is the result JSON. --trace 1 runs the traced pass instead: per-layer
metrics, plus a Chrome trace under .bench_build/e2e/traces/ that must load.

A whole set, every workload in its own process, plus one traced pass each:

    python3 bench/e2e/run.py --all --seeds 1,2,3 --out results-a.json

Comparing two sets against the bounds in BENCHMARK.json:

    python3 bench/e2e/run.py --compare results-a.json results-b.json

--all and --compare exit 1 when a run was incorrect, when a verdict digest
differs between sets or between the traced and untraced passes, or (for
--compare) when a metric moved outside its bound.
"""

import argparse
import fcntl
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
RUN_TIMEOUT_S = 170

DIGEST_RE = re.compile(
    r"^study member (\d+) .* verdict digest ([0-9a-f]{16})$")
TRACED_DIGEST_RE = re.compile(
    r"^verdict digest traced ([0-9a-f]{16}) untraced ([0-9a-f]{16})$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build bench_e2e; build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                # Leave no half-configured tree behind for the next run.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        make = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", "4", "--target",
             "bench_e2e"],
            stdout=sys.stderr, stderr=sys.stderr)
        return make.returncode == 0


def run_one(workload, seed, seconds, trace):
    """Run one workload process. Returns (result dict, stdout lines) or
    None when the binary failed to produce a result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = None
    if trace:
        trace_path = BUILD / "traces" / f"{workload}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: bench_e2e exited {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: bench_e2e printed no result line")
        return None
    if trace_path is not None:
        check_trace(trace_path, result)
    return result, lines[:-1]


def check_trace(path, result):
    """The trace must load; the study tree's self times (request 1) should
    sum to within 5% of the untraced study's wall time."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        log(f"run.py: trace {path} does not load: {e}")
        result["correct"] = False
        result["failed"] += 1
        return
    self_s = 1e-6 * sum(e["args"]["self_us"] for e in events
                        if e["args"]["request"] == 1)
    study_s = result["metrics"]["experiment.study_s"]["value"]
    share = self_s / study_s if study_s > 0 else float("inf")
    log(f"run.py: trace {path.name}: {len(events)} spans, study self times "
        f"sum to {share:.3f} of the untraced study")
    if abs(share - 1.0) > 0.05:
        log("run.py: WARNING: self-time sum is more than 5% off study time")


def digests_of(lines):
    """Verdict digests a run printed: {corpus member: digest} from study
    runs, and the (traced, untraced) pair from traced passes."""
    members, traced = {}, None
    for line in lines:
        m = DIGEST_RE.match(line)
        if m:
            members[m.group(1)] = m.group(2)
        m = TRACED_DIGEST_RE.match(line)
        if m:
            traced = [m.group(1), m.group(2)]
    return members, traced


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    """{(workload, metric): [values]} over the untraced runs."""
    table = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(m["value"])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':18} {'metric':22} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(table.items()):
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name, {}).get("bound", float("nan"))
        print(f"{workload:18} {name:22} {len(values):3d} {q1:12.6g} "
              f"{q2:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f}")
    return table


def run_all(args):
    spec = load_benchmark()
    if not build():
        return 1
    seeds = [int(s) for s in args.seeds.split(",")]
    runs, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        passes = [(seed, False) for seed in seeds] + [(seeds[0], True)]
        for seed, trace in passes:
            start = time.monotonic()
            out = run_one(workload, seed, args.seconds, trace)
            wall = time.monotonic() - start
            if out is None:
                ok = False
                continue
            result, lines = out
            member_digests, traced = digests_of(lines)
            log(f"run.py: {workload} seed {seed} trace {int(trace)}: "
                f"correct={result['correct']} {wall:.1f} s")
            if not result["correct"]:
                ok = False
            if traced is not None and traced[0] != traced[1]:
                log(f"run.py: {workload}: traced digest {traced[0]} != "
                    f"untraced {traced[1]}")
                ok = False
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": result["metrics"],
                         "digests": member_digests, "traced_digests": traced})
    summarize(runs, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "runs": runs}, f, indent=1)
        log(f"run.py: wrote {args.out}")
    return 0 if ok else 1


def compare(path_a, path_b):
    spec = load_benchmark()
    with open(path_a) as f:
        a = json.load(f)["runs"]
    with open(path_b) as f:
        b = json.load(f)["runs"]
    ok = True

    # The same (workload, seed, corpus member) must give the same verdict in
    # every run of either set.
    seen = {}
    for run in a + b:
        for member, digest in run["digests"].items():
            key = (run["workload"], run["seed"], member)
            if seen.setdefault(key, digest) != digest:
                print(f"DIGEST {run['workload']} seed {run['seed']} member "
                      f"{member}: {seen[key]} != {digest}")
                ok = False
        traced = run.get("traced_digests")
        if traced and traced[0] != traced[1]:
            print(f"DIGEST {run['workload']}: traced {traced[0]} != "
                  f"untraced {traced[1]}")
            ok = False

    print("set A")
    table_a = summarize(a, spec)
    print("set B")
    table_b = summarize(b, spec)
    print(f"{'workload':18} {'metric':22} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower_is_better = metric["better"] == "lower"
        for workload in sorted({w for w, _ in table_a}):
            va, vb = table_a.get((workload, name)), table_b.get((workload, name))
            if not va or not vb:
                print(f"{workload:18} {name:22} missing in one set")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else float("inf")
            worse = change > bound if lower_is_better else -change > bound
            print(f"{workload:18} {name:22} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.3f} {bound:6.2f}{'  FLAG' if worse else ''}")
            ok = ok and not worse
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated workload seeds for --all")
    parser.add_argument("--out", help="results JSON for --all")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required for a single run")
    if not build():
        return 1
    out = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
    if out is None:
        return 1
    result, lines = out
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
