#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs, spreads against the bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --runs 5 --workloads scan-600k

Run *i* of each workload uses seed ``first-seed + i``, and the workloads take
turns in a rotating order, so slow drift of the machine falls on all of them
alike.  For every end-to-end metric the command prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread above a third of its bound is flagged.  Spreads of
``setup_s`` are shown but not held to its bound.  At the end it prints, per
metric, the bound that would hold the largest spread seen to a third: the
bounds of BENCHMARK.json are set from it and re-checked with it.

Each workload is then run once more with the first seed: its counts after
every round (reads, evaluated reads, cache hits, coalesced reads, traffic
units) must equal those of the first run, round for round, as far as
the shorter run went; any difference is flagged.  The exit code is 1 when
any run failed, any spread exceeds its bound or any count differs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    counts = next(json.loads(line[len("counts "):]) for line in lines if line.startswith("counts "))
    result["counts"] = counts
    return result


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    results: Dict[str, List[Dict[str, object]]] = {name: [] for name in args.workloads}
    for index in range(args.runs):
        shift = index % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            result = run_once(workload, args.first_seed + index, args.seconds)
            results[workload].append(result)
            values = " ".join(
                f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
            )
            print(f"run {index + 1} {workload} seed {args.first_seed + index}: "
                  f"attempted {result['attempted']} failed {result['failed']} {values}", flush=True)

    problems = 0
    largest: Dict[str, float] = {name: 0.0 for name in bounds}
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        failed = [run for run in runs if run["failed"] or not run["correct"]]
        if failed:
            problems += 1
            print(f"  FLAG {len(failed)} run(s) with failed operations or wrong results")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            largest[name] = max(largest[name], spread)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                problems += 1
            elif name != "setup_s" and spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<22}{median:12.5g}{q1:12.5g}{q3:12.5g}{spread:9.4f}{bound:8.3f}{flag}")

        repeat = run_once(workload, args.first_seed, args.seconds)
        first, again = runs[0]["counts"]["rounds"], repeat["counts"]["rounds"]
        common = min(len(first), len(again))
        if first[:common] != again[:common]:
            problems += 1
            print(f"  FLAG counts differ between two runs of seed {args.first_seed}"
                  f" within their first {common} rounds")
        else:
            print(f"  counts of seed {args.first_seed} repeat exactly over {common} rounds"
                  " (reads, evaluated, hits, coalesced, traffic units):"
                  f" {first[common - 1]}")
    print("\nbounds that would hold each spread to a third (at most 0.25):")
    for name, spread in largest.items():
        suggested = min(0.25, math.ceil(300 * spread) / 100)
        print(f"  {name:<22}{suggested:6.2f}   (now {bounds[name]:.2f})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
