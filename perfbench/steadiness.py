"""Steadiness report: repeated benchmark runs, workloads interleaved.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steadiness.py --workloads verify --seeds 4 4 --trace 1

Runs ``run.py`` once per (seed, workload), cycling through the workloads
for each seed in turn, so that a drift in machine speed spreads over every
workload instead of being read as a difference between them.

With ``--trace 0`` it prints, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile range over the median)
beside the metric's bound from ``BENCHMARK.json``; a spread above a third
of the bound is marked.  With ``--trace 1`` it lists the count metrics
that differ between runs of the same seed, which must be none, and each
workload's median share of traced self time per layer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = (".calls", ".terms", ".steps", ".classes", ".distinct", ".failed")


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} commands gave wrong output")
    return result


def spread_report(results: Dict[str, List[dict]]) -> bool:
    steady = True
    print(f"{'workload':10} {'metric':14} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if spread > metric["bound"] / 3:
                mark = "  above bound/3"
                steady = False
            print(f"{workload:10} {name:14} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.2%} {metric['bound']:6.2f}{mark}")
    return steady


def count_report(results: Dict[str, List[dict]], seeds: List[int]) -> bool:
    repeatable = True
    for workload, runs in results.items():
        by_seed: Dict[int, List[dict]] = {}
        for seed, r in zip(seeds, runs):
            by_seed.setdefault(seed, []).append(r["metrics"])
        for seed, metrics in by_seed.items():
            for name in metrics[0]:
                if name.endswith(COUNTS):
                    values = {m[name]["value"] for m in metrics}
                    if len(values) > 1:
                        repeatable = False
                        print(f"{workload} seed {seed}: {name} varies: {sorted(values)}")
        layers = {name: statistics.median(r["metrics"][name]["value"] for r in runs)
                  for name in runs[0]["metrics"] if name.startswith("layer.")}
        total = sum(layers.values())
        shares = ", ".join(f"{name.split('.')[1]} {value / total:.1%}"
                           for name, value in sorted(layers.items(), key=lambda kv: -kv[1])
                           if value / total >= 0.001)
        print(f"{workload}: {len(runs)} traced runs; traced self time {total:.3f} s: {shares}")
    return repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds")

    results: Dict[str, List[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            results[workload].append(one_run(workload, seed, args.trace))
            print(f"done {workload} seed {seed}", file=sys.stderr, flush=True)
    ok = (count_report(results, args.seeds) if args.trace
          else spread_report(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
