"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--out FILE]

It runs every workload of BENCHMARK.json for its run_seconds with seeds
1 to 10.  For every workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound; a spread of a third of the bound or more is marked WIDE.  Runs go
seed by seed, each seed running every workload, so slow drift of the
machine falls on all of them alike.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return result


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread < bound / 3, "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: {metric: [] for metric in bounds} for name in names}
    for seed in SEEDS:
        for name in names:
            metrics = one_run(name, seed, seconds)["metrics"]
            for metric in bounds:
                values[name][metric].append(metrics[metric]["value"])
            print(f"seed {seed} {name}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in metrics.items()), flush=True)
    report = {
        name: {metric: summarize(v, bounds[metric]) for metric, v in per_metric.items()}
        for name, per_metric in values.items()
    }
    report["settings"] = {"seeds": list(SEEDS), "seconds": seconds}
    for name in names:
        for metric, s in report[name].items():
            print(f"{name:<14}{metric:<24}median {s['median']:<12.5g}"
                  f"spread {s['spread']:<8.4f}bound {s['bound']:<6}"
                  f"{'ok' if s['steady'] else 'WIDE'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
