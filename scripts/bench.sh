#!/bin/sh
# Measures the working tree against a parent commit with perfbench and
# appends the result to the committed perf trajectory, bench/trajectory.jsonl.
# Run from anywhere inside the repository:
#
#   scripts/bench.sh <parent-ref> <pr> [pairs] [first-seed]
#
#   parent-ref  the commit to compare against (e.g. HEAD~1)
#   pr          the label each row carries (e.g. the change's PR number)
#   pairs       alternating pairs per workload (default 10)
#   first-seed  seed of pair 1; pair k runs seed first-seed + k - 1 (default 1)
#
# The parent is extracted with `git archive` into a directory under $TMPDIR
# (removed on exit), so a run leaves nothing in the repository's .git. Each
# side builds perfbench into its own CARGO_TARGET_DIR in that directory.
# For every workload of BENCHMARK.json, pair k runs `perfbench/run.py
# --trace 0` for the benchmark's run_seconds on both sides with one seed:
# the parent first on odd pairs, the change first on even ones. The script
# prints each end-to-end metric's median and quartiles per side, the pairs
# the change won (ties count for neither), whether the change meets the
# gain rule (wins >= 9/10 of the pairs and a median move larger than the
# parent's interquartile range) or is worse than the metric's bound, and
# failed/attempted operations; then it appends one row per workload.
set -e
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/bench.sh <parent-ref> <pr> [pairs] [first-seed]" >&2
  exit 2
fi
ROOT=$(git rev-parse --show-toplevel)
PARENT=$(git -C "$ROOT" rev-parse --verify "$1^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/dash-bench.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
trap 'exit 130' INT TERM
mkdir "$WORK/parent"
git -C "$ROOT" archive "$PARENT" | tar -x -C "$WORK/parent"

python3 - "$ROOT" "$WORK" "$PARENT" "$2" "${3:-10}" "${4:-1}" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

root, work, parent_sha, label = sys.argv[1:5]
pairs, first_seed = int(sys.argv[5]), int(sys.argv[6])
if pairs < 1 or first_seed < 0:
    sys.exit("bench.sh: pairs must be >= 1 and first-seed >= 0")
with open(os.path.join(root, "BENCHMARK.json")) as f:
    spec = json.load(f)
seconds = spec["run_seconds"]
sides = {"parent": os.path.join(work, "parent"), "change": root}


def run(side, workload, seed):
    """One perfbench run; returns its result object, or None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, side + "-target"))
    cmd = [sys.executable, os.path.join(sides[side], "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=sides[side], env=env, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write("%s %s seed %d failed (exit %d):\n%s\n"
                         % (side, workload, seed, p.returncode, p.stderr[-2000:]))
        return None
    return json.loads(lines[-1])


def quartiles(values):
    """{"q1", "median", "q3"} to four significant digits."""
    q = values * 3 if len(values) == 1 else \
        statistics.quantiles(values, n=4, method="inclusive")
    return {k: float("%.4g" % v) for k, v in zip(("q1", "median", "q3"), q)}


rows = []
for w in spec["workloads"]:
    name = w["name"]
    seeds = list(range(first_seed, first_seed + pairs))
    results = {"parent": [], "change": []}
    for k, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if k % 2 == 1 else ("change", "parent")
        for side in order:
            results[side].append(run(side, name, seed))
        print("# %s pair %d/%d (seed %d) done" % (name, k, pairs, seed), flush=True)

    row = {"pr": label, "parent": parent_sha, "workload": name,
           "seconds": seconds, "seeds": seeds, "metrics": {}}
    for side in ("parent", "change"):
        ok = [r for r in results[side] if r is not None]
        row[side] = {"runs": len(results[side]), "runs_failed": len(results[side]) - len(ok),
                     "attempted": sum(r["attempted"] for r in ok),
                     "failed": sum(r["failed"] for r in ok),
                     "incorrect": sum(1 for r in ok if not r["correct"])}
    print("\n%s: %d pairs, seeds %d-%d, %g-s runs" % (name, pairs, seeds[0], seeds[-1], seconds))
    print("  %-14s %-32s %-32s %s" % ("metric", "parent median (q1-q3)",
                                      "change median (q1-q3)", "change wins"))
    for m in spec["end_to_end"]:
        metric, lower = m["name"], m["better"] == "lower"
        both = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                for p, c in zip(results["parent"], results["change"])
                if p is not None and c is not None
                and metric in p["metrics"] and metric in c["metrics"]]
        if not both:
            continue
        pq = quartiles([p for p, _ in both])
        cq = quartiles([c for _, c in both])
        wins = sum(1 for p, c in both if (c < p if lower else c > p))
        worse = (cq["median"] - pq["median"]) * (1 if lower else -1)
        gain = wins * 10 >= 9 * len(both) and -worse > pq["q3"] - pq["q1"]
        regressed = worse > m["bound"] * abs(pq["median"])
        row["metrics"][metric] = {"unit": m["unit"], "parent": pq, "change": cq,
                                  "wins": wins, "pairs": len(both),
                                  "gain": gain, "beyond_bound": regressed}
        print("  %-14s %-32s %-32s %d/%d%s%s" % (
            metric, "%g (%g-%g) %s" % (pq["median"], pq["q1"], pq["q3"], m["unit"]),
            "%g (%g-%g) %s" % (cq["median"], cq["q1"], cq["q3"], m["unit"]),
            wins, len(both), "  GAIN" if gain else "",
            "  WORSE THAN BOUND" if regressed else ""))
    for side in ("parent", "change"):
        s = row[side]
        print("  %-6s failed/attempted %d/%d, runs failed %d/%d, incorrect %d"
              % (side, s["failed"], s["attempted"], s["runs_failed"], s["runs"], s["incorrect"]))
    rows.append(row)

with open(os.path.join(root, "bench", "trajectory.jsonl"), "a") as f:
    for row in rows:
        f.write(json.dumps(row, sort_keys=True) + "\n")
print("\nappended %d rows to bench/trajectory.jsonl" % len(rows))
EOF
