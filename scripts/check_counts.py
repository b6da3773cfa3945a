#!/usr/bin/env python3
"""Checks perfbench's deterministic work counts against committed ones.

Usage, from the repository root:

  python3 scripts/check_counts.py [--write] [--seconds S]
      [--baseline bench/baselines/perfbench_counts.json]

For seeds 1-3 of fig3_recursive and adhoc_optimize it runs the benchmark
unchanged (perfbench/run.py, which builds it first), once untraced and once
traced, and reads the counts that depend only on the seed:

  untraced: plan_cost_units
  traced:   exec.predicate_evals, exec.fix_iterations, storage.page_fetches,
            storage.page_misses, optimizer.plans_explored

The traced counts are averages over a fixed number of counted queries and
plan_cost_units is the plans' estimated cost, so none of them depends on the
host, the run's length or its speed. A change to the executor, the cost
model or the optimizer that moves any of them (a reordered or an extra page
charge, one more semi-naive iteration, a different plan) fails the check.
serve_rw is left out: its counts depend on how its readers and its writer
interleave.

A change that means to move a count rewrites the file with --write in the
same commit and says why. Exit status 0 when every count equals the
committed one, 1 with a list of the differences.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench_counts.json")
WORKLOADS = ("fig3_recursive", "adhoc_optimize")
SEEDS = (1, 2, 3)
COUNTS = {0: ("plan_cost_units",),
          1: ("exec.predicate_evals", "exec.fix_iterations",
              "storage.page_fetches", "storage.page_misses",
              "optimizer.plans_explored")}
# plan_cost_units is a sum of floating-point estimates; allow for the last
# bits a different compiler or libm may move. Every other count is an exact
# ratio of integers.
COST_RTOL = 1e-9


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("check_counts: %s failed" % " ".join(cmd))
    return json.loads(out.stdout.strip().splitlines()[-1])


def collect(seconds, problems):
    counts = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            got = {}
            for trace in (0, 1):
                result = run(workload, seed, seconds, trace)
                where = "%s seed %d trace=%d" % (workload, seed, trace)
                if not result["correct"] or result["failed"]:
                    problems.append("%s: correct=%s failed=%d" %
                                    (where, result["correct"],
                                     result["failed"]))
                for name in COUNTS[trace]:
                    if name not in result["metrics"]:
                        problems.append("%s: no metric %s" % (where, name))
                        continue
                    got[name] = result["metrics"][name]["value"]
            counts.setdefault(workload, {})[str(seed)] = got
    return counts


def same(name, got, want):
    if name == "plan_cost_units":
        return abs(got - want) <= COST_RTOL * max(abs(got), abs(want))
    return got == want


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", default=BASELINE)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the baseline from this checkout")
    args = parser.parse_args()

    problems = []
    counts = collect(args.seconds, problems)
    if args.write:
        if problems:
            print("\n".join(problems))
            return 1
        with open(args.baseline, "w") as f:
            json.dump(counts, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.baseline)
        return 0

    with open(args.baseline) as f:
        want = json.load(f)
    for workload in WORKLOADS:
        for seed in SEEDS:
            key = str(seed)
            base = want.get(workload, {}).get(key)
            if base is None:
                problems.append("%s seed %s: not in %s" %
                                (workload, key, args.baseline))
                continue
            got = counts[workload][key]
            for name in sorted(set(base) | set(got)):
                if name not in base or name not in got:
                    problems.append("%s seed %s: %s only on one side" %
                                    (workload, key, name))
                elif not same(name, got[name], base[name]):
                    problems.append("%s seed %s: %s = %r, baseline %r" %
                                    (workload, key, name, got[name],
                                     base[name]))
    if problems:
        print("check_counts: %d difference(s)" % len(problems))
        print("\n".join(problems))
        return 1
    print("check_counts: %d counts equal the baseline" %
          sum(len(v) for w in counts.values() for v in w.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
