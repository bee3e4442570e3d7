#!/usr/bin/env python3
"""Builds and runs the DASH stack benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload udp_bulk|udp_rpc|sim_lan \
        --seed N --seconds S --trace 0|1 [--tiny]

The benchmark binary is built from source on the first run (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench). Its notes go
to standard output as lines starting with '#'; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. This script checks
that the line names exactly the metrics of BENCHMARK.json (end-to-end with
--trace 0, per-layer with --trace 1) with their units, and exits non-zero
without a result line if the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("udp_bulk", "udp_rpc", "sim_lan")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds (incrementally after the first run); returns
    the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "dashbench")
    if not os.path.isfile(binary):
        fail("build produced no dashbench binary")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (missing, extra, units))
    if result["attempted"] < 1:
        fail("no operation attempted")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if a.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode == 3:
        fail("workload %s skipped: %s" % (a.workload, run.stdout.strip()), 3)
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail("dashbench exited with code %d" % run.returncode)
    check_result(lines[-1], a.trace == "1")
    print(lines[-1])


if __name__ == "__main__":
    main()
