"""The traced run: one workload's per-layer metrics (``--trace 1``).

The run serves its window with the layer clocks of :mod:`perfbench.layers`
installed on every other round; the throughputs of the traced and the
untraced rounds give the tracing overhead.  In-window timings come from the
traced rounds, counts from the whole window, and engine rows and the other
probes run after it (see layers.py).
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.kernel.dispatch import prewarm_fragments
from repro.workloads.scenarios import Scenario

from perfbench.harness import Harness, Window, delta, quantile, service_counts
from perfbench.layers import (
    SERVICE_CALLS,
    GcClock,
    LayerClock,
    batch_probe,
    compile_probe,
    engine_probe,
    setup_layers,
)
from perfbench.workloads import PROBE, Read

__all__ = ["traced_run"]

#: largest wave handed to ``run_batch`` by the batch probe
WAVE_SIZE = 16
#: writes after the traced window that time re-encoding of the touched fragment
POST_WINDOW_WRITES = 64


def _batched(host) -> Dict[str, int]:
    """Batched passes so far per document (one window-wait sample each)."""
    return {
        name: session.batcher.stats.batched_queries
        for name, session in host.sessions.items()
        if session.batcher is not None
    }


def _probe_waves(harness: Harness) -> List[List[Read]]:
    """The workload's waves; else the first document's PaX2 reads of a round."""
    workload = harness.workload
    if workload.waves:
        return workload.next_round()
    reads = [
        op
        for ops in workload.next_round()
        for op in ops
        if isinstance(op, Read) and op.algorithm == "pax2"
    ]
    first = reads[0].document
    return [[read for read in reads if read.document == first][:WAVE_SIZE]]


def _per_round(window: Window, column: int, traced: bool) -> int:
    """Sum of one count column over the traced (odd) or untraced rounds."""
    total, previous = 0, 0
    for index, row in enumerate(window.rounds):
        if index % 2 == int(traced):
            total += row[column] - previous
        previous = row[column]
    return total


def traced_run(
    harness: Harness,
    seconds: float,
    checker_documents: Dict[str, Scenario],
    checker_build_seconds: float,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Serve and probe one workload with tracing; returns (metrics, counts).

    Rounds alternate between traced (odd) and untraced (even), so the two
    throughputs see the same stream and the same machine.
    """
    host = harness.host
    metrics = setup_layers(
        {name: doc for name, doc in checker_documents.items() if name != PROBE},
        checker_build_seconds,
    )
    clock, gc_clock = LayerClock(), GcClock()

    def trace_odd_rounds(index: int) -> None:
        clock.remove()
        gc_clock.stop()
        if index % 2:
            clock.install(SERVICE_CALLS)
            gc_clock.start()

    before = service_counts(host)
    batched_before = _batched(host)
    window = harness.run_window(
        seconds, min_reads=0, min_rounds=2, before_round=trace_odd_rounds
    )
    counts = delta(service_counts(host), before)
    gc_clock.stop()
    parse_seconds, gc_seconds = clock.seconds["parse"], gc_clock.seconds
    waits = []
    for name, batched in _batched(host).items():
        added = batched - batched_before[name]
        if added:
            waits += host.sessions[name].batcher.stats.window_seconds[-added:]

    reencode: List[float] = []

    def time_reencode(document: str, fragment_id: str) -> None:
        fragmentation = harness.documents[document].fragmentation
        started = perf_counter()
        fragmentation.flat(fragment_id)
        prewarm_fragments(fragmentation, [fragment_id])
        reencode.append(perf_counter() - started)

    clock.remove()
    clock.install(SERVICE_CALLS)
    harness.after_probe_write = time_reencode
    harness.write_probe(POST_WINDOW_WRITES)
    clock.remove()
    writes = delta(service_counts(host), before)

    engine = engine_probe(harness.documents, dict(window.evaluated))
    metrics.update(engine)
    evaluated_latency_ms = 1e3 * statistics.mean(window.evaluated_latencies)
    reads = window.reads
    traced_reads = _per_round(window, 0, traced=True)
    rates = window.round_rates()
    metrics.update({
        "xpath.parse_us": 1e6 * parse_seconds / traced_reads,
        "xpath.compile_us": compile_probe(
            list(dict.fromkeys(read.query.text for read in harness.workload.request_classes()))
        ),
        "core.batch.ms_per_wave": batch_probe(harness.documents, _probe_waves(harness)),
        "distributed.messages_per_read": window.messages / reads,
        "distributed.answer_nodes_per_read": window.answer_nodes / reads,
        "distributed.max_site_visits": float(window.max_site_visits),
        "service.overhead_ms_per_read": evaluated_latency_ms - engine["core.engine.ms_per_read"],
        "service.batch.window_wait_ms": 1e3 * quantile(waits, 0.50),
        "service.cache.hit_fraction": counts["hits"] / reads,
        "service.cache.evictions_per_read": counts["evictions"] / reads,
        "service.coalesced_fraction": counts["coalesced"] / reads,
        "service.batch.queries_per_scan": (
            counts["batched_queries"] / counts["fused_scans"] if counts["fused_scans"] else 0.0
        ),
        "updates.apply_us": 1e6 * clock.seconds["apply"] / clock.calls["apply"],
        "updates.retired_per_write": writes["retired"] / writes["updates"],
        "updates.reencode_ms": 1e3 * statistics.mean(reencode),
        "fragments.snapshots.retained_peak": float(
            max(session.snapshots.stats.peak_retained for session in host.sessions.values())
        ),
        "runtime.gc_ms_per_op": 1e3 * gc_seconds / traced_reads,
        "trace.untraced_throughput_ops": statistics.median(rates[0::2]),
        "trace.traced_throughput_ops": statistics.median(rates[1::2]),
    })
    metrics["trace.overhead_fraction"] = 1.0 - (
        metrics["trace.traced_throughput_ops"] / metrics["trace.untraced_throughput_ops"]
    )
    counts.update(
        reads=window.reads,
        communication_units=window.communication_units, rounds=window.rounds,
    )
    return metrics, counts
