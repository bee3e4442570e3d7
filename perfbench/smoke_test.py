#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. Asserts that each run passes its correctness checks and prints
every metric BENCHMARK.json names, with its unit, as a finite number.

Run from the repository root:  python3 perfbench/smoke_test.py
A workload whose loopback sockets are unavailable is reported as skipped.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SKIPPED = 3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            label = "%s trace=%s" % (workload, trace)
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=600)
            if run.returncode == SKIPPED:
                print("SKIP %s: loopback sockets unavailable" % label)
                continue
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures.append("%s: exit %d\n%s" % (label, run.returncode, run.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            want = spec["per_layer" if trace == "1" else "end_to_end"]
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append("checks failed: %s" % [l for l in lines if "FAIL" in l])
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            for m in want:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("missing " + m["name"])
                elif got["unit"] != m["unit"]:
                    problems.append("%s unit %s, want %s" % (m["name"], got["unit"], m["unit"]))
                elif not math.isfinite(got["value"]):
                    problems.append("%s is not finite" % m["name"])
            for m in spec["end_to_end"] if trace == "0" else ():
                if result["metrics"][m["name"]]["value"] <= 0:
                    problems.append("%s is not positive" % m["name"])
            if problems:
                failures.append("%s: %s" % (label, "; ".join(problems)))
            else:
                print("ok   %s: %d metrics, %d operations" % (label, len(want), result["attempted"]))
    if failures:
        print("\n".join("FAIL " + f for f in failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
