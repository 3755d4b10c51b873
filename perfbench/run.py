#!/usr/bin/env python3
"""Run one workload of the HardBound simulator benchmark.

    python3 perfbench/run.py --workload olden-base --seed 1 --seconds 10 --trace 0

Builds perfbench/hbbench.exe with dune in the checkout that holds this
file, runs one workload on it, checks the result line against the metric
lists in BENCHMARK.json and prints it as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced run.  The full record of each run (the
stamp: nproc, OCaml version, commit, seed, encoding assignment; per-item
detail) lands in perfbench/out/, and traced runs leave their span trees
there too.  If the build, the run or the check fails, the script exits
non-zero without printing a result.

Workloads (the comment beside each definition in the OCaml sources says
which layer it isolates):
  olden-base  nine Olden programs, Nochecks: dispatch loop + data cache
  olden-hb    the same under full HardBound: checks, metadata, tag cache
  corpus      436 violation-corpus pairs: compiler, Machine.create, traps
  serve       closed-loop client of an in-process daemon: serve + fault
              (runs by hand; too noisy to be one of BENCHMARK.json's)
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["olden-base", "olden-hb", "corpus", "serve"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found (install the OCaml toolchain)")


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout
    so no worker outlives the run."""
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return p.returncode, out


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark is built from, so a record
    names its code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["lib", "perfbench", "dune-project", "BENCH_hardbound.json"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            for f in fs
            if not os.path.relpath(d, ROOT).startswith(
                ("perfbench/out", "perfbench/work")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(res))
    if not isinstance(res["correct"], bool):
        fail("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            fail("%s is not a count" % k)
    if res["attempted"] < 1:
        fail("nothing attempted")
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            fail("metric %s has value %r" % (name, v))
        if m.get("unit") != want[name]:
            fail("metric %s has unit %r, not %r" % (name, m.get("unit"),
                                                    want[name]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    code, out = run_group(
        dune() + ["build", "--root", ".", "--cache=disabled", "-j", "2",
                  "--display", "quiet", "./perfbench/hbbench.exe"],
        BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail("build failed")

    code, out = run_group(
        [os.path.join("_build", "default", "perfbench", "hbbench.exe"),
         "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--commit", commit(), "--source-digest", source_digest(),
         "--nproc", str(len(os.sched_getaffinity(0)))],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        fail("hbbench exited with %d" % code)
    lines = out.strip().splitlines()
    if not lines:
        fail("hbbench printed nothing")
    check_result(lines[-1], a.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
