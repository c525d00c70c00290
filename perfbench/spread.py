#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cold [--seeds 10] [--first-seed 1]
        [--trace 0] [--out results.json]

Runs from the repository root, one run at a time, with the command and
run length from BENCHMARK.json. For every metric it prints the median of
the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound. A spread at or above a third of the bound means the
benchmark is not steady enough to resolve a change of that size.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result, wall = run_once(bench["command"], args.workload, seed,
                                bench["run_seconds"], args.trace)
        runs.append({"seed": seed, "wall_s": wall, "result": result})
        brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {wall:.1f} s, {result['attempted']} attempted, "
              f"{result['failed']} failed, {brief}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, "
          f"{sum(r['wall_s'] for r in runs):.0f} s in total")
    steady = True
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            mark = f"  bound {bound}: {'ok' if ok else 'NOT STEADY'}"
        print(f"  {name:<26} median {med:<14.6g} spread {spread:7.2%}{mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
