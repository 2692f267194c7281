#!/usr/bin/env python3
"""Run one workload of the serving benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan-600k --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  Every served operation is checked (see oracle.py);
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the run's provenance, its counts and a readable summary.

The program is imported from ``src/`` next to this directory, with its
defaults: the run refuses to start when ``REPRO_FRAGMENT_ENGINE`` is set, so
two commits compared with this benchmark both run the default engine.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: List[str]) -> argparse.Namespace:
    names = [workload["name"] for workload in benchmark_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> None:
    """Make ``repro`` (from this checkout's ``src/``) and ``perfbench`` importable."""
    # The script's own directory goes: its module names must not shadow others.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro was imported from {repro.__file__}, not from this checkout")


def metric_units() -> Dict[str, Dict[str, str]]:
    """name -> unit, for the end-to-end and per-layer metrics of BENCHMARK.json."""
    spec = benchmark_spec()
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def provenance(args: argparse.Namespace, workload, documents) -> Dict[str, object]:
    from repro.core.kernel.dispatch import fragment_engine

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
        commit = completed.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "default_engine": fragment_engine(),
        "workload_params": workload.params(),
        "documents": {
            name: {
                "bytes": scenario.total_bytes,
                "fragments": len(scenario.fragmentation),
                "nodes": scenario.fragmentation.total_nodes(),
            }
            for name, scenario in documents.items()
        },
    }


def end_to_end(window, setups: List[float], rss: float) -> Dict[str, float]:
    """The end-to-end metrics of one window.

    Every round serves the same operations, so each round is one repeat of
    the workload: a timing is taken per round and reported at the level nine
    rounds in ten reach (see ``worse_decile``).  The host's speed moves by
    up to half between stretches of tens of seconds; the slower rounds of a
    run repeat from run to run where its median does not.  A round's 95th
    percentile is already its slowest few reads (in ``burst-16`` its slowest
    wave), so it is reported at the worse quartile of rounds instead: the
    worse decile of a tail moved with single slow rounds.
    """
    from perfbench.harness import quantile, worse_decile

    def per_round(groups: List[List[float]], fraction: float) -> List[float]:
        return [quantile(group, fraction) for group in groups if group]

    reads = window.round_read_latencies()
    return {
        "throughput_ops": worse_decile(window.round_rates(), "higher"),
        "read_p50_ms": 1e3 * worse_decile(per_round(reads, 0.50), "lower"),
        "read_p95_ms": 1e3 * quantile(per_round(reads, 0.95), 0.75),
        "write_p50_ms": 1e3 * worse_decile(per_round(window.round_probe_latencies(), 0.50), "lower"),
        "comm_units_per_read": window.communication_units / window.reads,
        "setup_s": quantile(setups, 0.75),
        "rss_mb": rss,
    }


def run(args: argparse.Namespace) -> int:
    from perfbench.harness import SETUPS, Harness, delta, peak_rss_mib, service_counts
    from perfbench.workloads import PROBE, WORKLOADS

    units = metric_units()
    workload = WORKLOADS[args.workload](args.seed)
    started = perf_counter()
    checker_documents = workload.build_documents()
    checker_build_seconds = perf_counter() - started
    checker_documents[PROBE] = workload.build_probe()
    # The benchmark's own document copies stay out of the collections the
    # program's garbage triggers.
    gc.collect()
    gc.freeze()
    harness = Harness(workload)
    setups = [harness.setup() for _ in range(1 if args.trace else SETUPS)]
    harness.start_checking(checker_documents)
    # Reference results of every request class at the starting version,
    # made before anything is timed.
    for read in workload.request_classes():
        harness.checker.expected_answers(read)
        harness.checker.reference_run(read)
    print("provenance " + json.dumps(provenance(args, workload, checker_documents), sort_keys=True))

    if args.trace:
        from perfbench.tracing import traced_run

        metrics, counts = traced_run(
            harness, args.seconds, checker_documents, checker_build_seconds
        )
        kind = "per_layer"
    else:
        before = service_counts(harness.host)
        window = harness.run_window(args.seconds)
        rss = peak_rss_mib()
        counts = {
            **delta(service_counts(harness.host), before),
            "reads": window.reads,
            "communication_units": window.communication_units,
            "rounds": window.rounds,
        }
        # Set-ups at both ends of the window see the machine at two moments.
        setups += [harness.setup() for _ in range(SETUPS)]
        metrics = end_to_end(window, setups, rss)
        kind = "end_to_end"

    checker = harness.checker
    print("counts " + json.dumps(counts, sort_keys=True))
    for problem in checker.problems:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:14.6f} {units[kind][name]}")
    missing = set(units[kind]) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": harness.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[kind][name]} for name in units[kind]
        },
    }))
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if "REPRO_FRAGMENT_ENGINE" in os.environ:
        print(
            "perfbench: REPRO_FRAGMENT_ENGINE is set; unset it so the run measures"
            " the program's default engine",
            file=sys.stderr,
        )
        return 2
    try:
        load_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
