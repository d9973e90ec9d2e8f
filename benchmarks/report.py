"""Run workloads over several seeds and print each metric's median and spread.

    python3 benchmarks/report.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                 [--trace 0|1]

Each run is a fresh `python3 benchmarks/run.py` process, one at a time, with
the run length from BENCHMARK.json. For every metric the table shows the
median of the runs and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. For the
end-to-end metrics it also shows the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run_once(spec, workload, seed, args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.seeds)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed}/{attempted} commands failed")
        for name, first in results[0]["metrics"].items():
            med, rel = spread([r["metrics"][name]["value"] for r in results])
            bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:28s} {med:>14.6g} {first['unit']:8s} spread {rel:7.2%}{bound}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
