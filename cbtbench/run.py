#!/usr/bin/env python3
"""Runs one benchmark workload of the CBT simulator and prints its metrics.

    python3 cbtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the driver from source
into .bench_build/cbtbench. Each iteration is a fresh driver process on the
same seed; iterations repeat until --seconds of host time have passed (at
least MIN_ITERATIONS), and every reported time is the median over them, so
set-up is measured several times per run too.

--trace 0 reports the end-to-end metrics of untraced iterations. --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones; spans go to .bench_build/spans/. Metric names
and units come from BENCHMARK.json.

Every iteration's output digest must equal the others' and, where
cbtbench/digests.json has one for this workload and seed, the committed
digest. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when correct, 1 when a check
failed, 2 when the driver cannot be built or run.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cbtbench")
DRIVER = os.path.join(BUILD, "cbtbench_driver")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("churn-256", "dataplane-256", "chaos-256")

MIN_ITERATIONS = 3
# No iteration starts after this much host time, so a run ends well
# inside three minutes even when the machine is slow.
LAST_START_S = 120
DRIVER_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message):
    log("cbtbench: " + message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "cbtbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_driver(workload, seed, traced, tiny):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if traced:
        os.makedirs(SPANS, exist_ok=True)
        name = "%s-%d%s.tsv" % (workload, seed, "-tiny" if tiny else "")
        cmd += ["--traced", "--spans", os.path.join(SPANS, name)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("driver failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    log("  %s%s wall %.3f s  setup %.3f s  work/s %.1f  digest %s%s" % (
        workload, " traced" if traced else "", result["wall_s"],
        result["setup_s"], result["work_per_s"], result["digest"],
        "" if result["ok"] else "  FAILED: " + "; ".join(result["errors"])))
    return result


def iterate(seconds, step):
    """Calls step() until `seconds` have passed and MIN_ITERATIONS ran."""
    start = time.monotonic()
    count = 0
    while True:
        step()
        count += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / count
        if count >= MIN_ITERATIONS and next_end > seconds:
            return
        if next_end > LAST_START_S:
            return


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    # A terminated runner raises SystemExit, which makes subprocess.run
    # kill and reap the driver or build it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                        help="committed digests to check against")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()

    plain, traced = [], []

    def step():
        plain.append(run_driver(args.workload, args.seed, False, args.tiny))
        if args.trace:
            traced.append(run_driver(args.workload, args.seed, True, args.tiny))

    iterate(args.seconds, step)
    everything = plain + traced

    problems = []
    for r in everything:
        problems += r["errors"]
    digests = sorted({r["digest"] for r in everything})
    if len(digests) != 1:
        problems.append("digest differs between iterations: " + " ".join(digests))
    key = ("tiny-%d" if args.tiny else "%d") % args.seed
    want = load_json(args.digests).get(args.workload, {}).get(key)
    mismatch = want is not None and digests != [want]
    if mismatch:
        problems.append("digest %s does not match the committed %s"
                        % (" ".join(digests), want))
    attempted = sum(r["attempted"] for r in plain)
    failed = attempted if mismatch else sum(r["failed"] for r in plain)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    values = {}
    if args.trace:
        overhead = median(traced, "wall_s") / median(plain, "wall_s") - 1
        for m in spec["per_layer"]:
            if m["name"] == "obs.trace_overhead":
                values[m["name"]] = overhead
            elif all(m["name"] in r["layers"] for r in traced):
                values[m["name"]] = statistics.median(
                    r["layers"][m["name"]] for r in traced)
            else:
                problems.append("driver did not report " + m["name"])
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median(plain, "wall_s"),
            "setup_s": median(plain, "setup_s"),
            "work_per_s": median(plain, "work_per_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "ok_ratio": 1 - failed / attempted if attempted else 0,
        }
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print("%-28s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for p in problems:
        log("cbtbench: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
