#!/usr/bin/env python3
"""Checks the benchmark itself, from the repository root:

  python3 perfbench/check.py [--seconds S] [--seed N]

1. builds and runs perfbench_test (percentile rule, generators, self time);
2. validates every traced run's Chrome trace with scripts/check_trace.py and
   scripts/trace_schema.json (used read-only), requiring the layer spans;
3. runs fig3_recursive and adhoc_optimize twice with one seed, traced and
   untraced, and requires the deterministic counts to repeat exactly:
   plan_cost_units, exec.predicate_evals, storage.page_fetches and
   optimizer.plans_explored;
4. requires correct answers and zero failures in every run, and exactly the
   metric names BENCHMARK.json lists (end_to_end untraced, per_layer
   traced).

Exit status 0 when everything holds; 1 with a list of what did not.
"""

import argparse
import json
import os
import subprocess
import sys

import run as bench

HERE = bench.HERE
ROOT = bench.ROOT
BUILD = bench.BUILD
SESSION_SPANS = ["Session::Prepare", "PreparedQuery::Run(explain_only)",
                 "Executor::ExecuteInto"]
SPANS = {
    "fig3_recursive": SESSION_SPANS,
    "adhoc_optimize": SESSION_SPANS,
    "serve_rw": SESSION_SPANS + ["Client::Query", "Client::Mutate+Commit",
                                 "Session::Mutate"],
}
DETERMINISTIC = {0: ["plan_cost_units"],
                 1: ["exec.predicate_evals", "storage.page_fetches",
                     "optimizer.plans_explored"]}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("perfbench: %s failed" % " ".join(cmd))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected_names = {0: {m["name"] for m in spec["end_to_end"]},
                      1: {m["name"] for m in spec["per_layer"]}}

    bench.build()
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_test"],
                   check=True, stdout=subprocess.DEVNULL)
    if subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode:
        problems.append("perfbench_test failed")

    for workload in ("fig3_recursive", "adhoc_optimize", "serve_rw"):
        repeats = 1 if workload == "serve_rw" else 2
        for trace in (0, 1):
            results = [run(workload, args.seed, args.seconds, trace)
                       for _ in range(repeats)]
            for r in results:
                if set(r["metrics"]) != expected_names[trace]:
                    problems.append("%s trace=%d: metric names differ from "
                                    "BENCHMARK.json: %s" % (
                                        workload, trace, sorted(
                                            set(r["metrics"]) ^
                                            expected_names[trace])))
                if not r["correct"] or r["failed"] != 0:
                    problems.append("%s trace=%d: correct=%s failed=%d"
                                    % (workload, trace, r["correct"],
                                       r["failed"]))
            if trace:
                path = os.path.join(BUILD, "traces", "%s-seed%d.json"
                                    % (workload, args.seed))
                cmd = [sys.executable,
                       os.path.join(ROOT, "scripts", "check_trace.py"), path]
                for span in SPANS[workload]:
                    cmd += ["--require-span", span]
                if subprocess.run(cmd).returncode != 0:
                    problems.append("%s: trace check failed" % workload)
            if repeats < 2:
                continue
            for name in DETERMINISTIC[trace]:
                values = [r["metrics"][name]["value"] for r in results]
                print("%s %s: %s" % (workload, name, values))
                if len(set(values)) != 1:
                    problems.append("%s %s differs between runs: %s"
                                    % (workload, name, values))

    for p in problems:
        print("FAIL:", p)
    print("perfbench check: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
