#!/usr/bin/env python3
"""Self-test of the benchmark on tiny versions of its three workloads.

    python3 cbtbench/selftest.py

Run from the repository root; takes well under a minute after the driver
is built. Checks that:
  1. every metric prints with its name and unit, as BENCHMARK.json lists
     them, in both --trace 0 and --trace 1 runs, and targets.json names
     the end-to-end target of every per-layer metric;
  2. spans nest, the self times of the run's span tree sum to its root,
     and the root covers the traced wall time the driver reports (within
     1 ms);
  3. two invocations (and a traced one) produce equal digests, equal to
     the committed tiny digests;
  4. run.py exits non-zero and reports correct=false on a forced digest
     mismatch, and the dataplane check counts an injected missing and an
     injected duplicate reception as two failures;
  5. run.py exits non-zero without printing a result in a directory that
     holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
DRIVER = os.path.join(ROOT, ".bench_build", "cbtbench", "cbtbench_driver")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("churn-256", "dataplane-256", "chaos-256")

failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, trace, digests=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if digests:
        cmd += ["--digests", digests]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


def last_json(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def driver(workload, traced=False, spans=None, extra=()):
    cmd = [DRIVER, "--workload", workload, "--seed", "1", "--tiny", *extra]
    if traced:
        cmd += ["--traced", "--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for w in WORKLOADS:
            proc = run_bench(w, trace)
            result = last_json(proc.stdout)
            ok = proc.returncode == 0 and result is not None and result["correct"]
            missing = []
            for m in spec[kind]:
                got = (result or {}).get("metrics", {}).get(m["name"])
                printed = any(line.split()[:1] == [m["name"]] and
                              line.split()[-1] == m["unit"]
                              for line in proc.stdout.splitlines())
                if not got or got["unit"] != m["unit"] or not printed:
                    missing.append(m["name"])
            extra = set((result or {}).get("metrics", {})) - {
                m["name"] for m in spec[kind]}
            check(ok and not missing and not extra,
                  "%s --trace %d prints every %s metric with its unit%s" % (
                      w, trace, kind,
                      "" if not (missing or extra) else
                      " (missing %s, extra %s)" % (missing, sorted(extra))))


def check_targets(spec):
    targets = json.load(open(os.path.join(HERE, "targets.json")))
    names = {m["name"] for m in spec["per_layer"]}
    check(set(targets) == names,
          "targets.json names the target of every per-layer metric")


def check_spans():
    for w in WORKLOADS:
        path = os.path.join(SCRATCH, w + ".tsv")
        result = driver(w, traced=True, spans=path)
        spans = []
        with open(path) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                sid, parent, name, start, end = line.split("\t")
                spans.append((int(sid), int(parent), name, int(start), int(end)))
        nested = True
        child_ns = [0] * len(spans)
        last_child_end = {}
        for index, (sid, parent, name, start, end) in enumerate(spans):
            nested &= sid == index and start <= end
            if parent >= 0:
                p = spans[parent]
                nested &= parent < sid and p[3] <= start and end <= p[4]
                # Siblings run one after another.
                nested &= last_child_end.get(parent, p[3]) <= start
                last_child_end[parent] = end
                child_ns[parent] += end - start
        roots = [s for s in spans if s[1] < 0]
        run_root = [s for s in roots if s[2] == "bench.run"]
        in_run = {}
        self_sum = 0
        for sid, parent, name, start, end in spans:
            in_run[sid] = name == "bench.run" if parent < 0 else in_run[parent]
            if in_run[sid]:
                self_sum += (end - start) - child_ns[sid]
        root_ns = run_root[0][4] - run_root[0][3] if len(run_root) == 1 else -1
        # The wall time the traced run reports (first call to last check),
        # which the driver measures apart from the spans.
        wall_ms = result["wall_s"] * 1e3
        check(nested and len(run_root) == 1,
              "%s spans nest (%d spans)" % (w, len(spans)))
        check(self_sum == root_ns and abs(root_ns / 1e6 - wall_ms) < 1.0 and
              abs(result["layers"]["traced.wall_ms"] - wall_ms) < 1e-6,
              "%s layer self times sum to the traced wall (%.6f ms vs %.6f ms)"
              % (w, self_sum / 1e6, wall_ms))


def check_digests():
    committed = json.load(open(os.path.join(HERE, "digests.json")))
    for w in WORKLOADS:
        a = driver(w)["digest"]
        b = driver(w)["digest"]
        t = driver(w, traced=True, spans=os.path.join(SCRATCH, w + ".tsv"))["digest"]
        want = committed.get(w, {}).get("tiny-1")
        check(a == b == t == want,
              "%s digests equal across invocations and tracing (%s %s %s, "
              "committed %s)" % (w, a, b, t, want))


def check_reception_tally():
    clean = driver("dataplane-256")
    faulty = driver("dataplane-256", extra=["--inject-reception-faults"])
    # One reception goes missing and another arrives twice: both fail,
    # although the number of receptions is unchanged.
    check(clean["failed"] == 0 and faulty["failed"] == 2 and
          faulty["attempted"] == clean["attempted"],
          "dataplane-256 counts a missing and a duplicate reception as 2 "
          "failures (got %d of %d)" % (faulty["failed"], faulty["attempted"]))


def check_forced_mismatch():
    bad = os.path.join(SCRATCH, "wrong_digests.json")
    with open(bad, "w") as f:
        json.dump({w: {"tiny-1": "0123456789abcdef"} for w in WORKLOADS}, f)
    for w in WORKLOADS:
        proc = run_bench(w, 0, digests=bad)
        result = last_json(proc.stdout)
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] == result["attempted"],
              "%s exits non-zero on a forced digest mismatch" % w)


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "cbtbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("churn-256", 0, cwd=bare,
                     script=os.path.join(bare, "cbtbench", "run.py"))
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "run.py fails without a result when the sources are absent")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    check_targets(spec)
    check_metrics(spec)  # also builds the driver
    check_spans()
    check_digests()
    check_reception_tally()
    check_forced_mismatch()
    check_bare_directory()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
