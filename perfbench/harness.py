"""Set-up, timed window and end-to-end metrics of one workload run.

The program is driven only through its public serving API: ``ServiceHost``
built with the workload's host settings (no engine argument, so the process
default engine serves), ``submit`` / ``apply_update`` from closed-loop
clients, and ``serve_batch`` for waves.  Every operation is checked by
:class:`perfbench.oracle.Checker` between rounds, outside the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import weakref
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.kernel.dispatch import prewarm_fragments
from repro.service import ServiceHost
from repro.updates.ops import EditText
from repro.workloads.scenarios import Scenario

from perfbench.oracle import Checker
from perfbench.workloads import PROBE, Read, Workload, Write

__all__ = [
    "Harness", "Window", "quantile", "worse_decile", "peak_rss_mib", "service_counts", "delta",
]

#: set-ups before the window and again after it; setup_s is the upper
#: quartile of all of them
SETUPS = 2
#: reads a window times at the least, so that ten or more lie beyond the
#: 95th percentile even where a round is slow
MIN_READS = 200


def quantile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile of *values* (inclusive method).

    The benchmark's own, so that no change to the program's statistics
    helpers can move a metric.
    """
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def worse_decile(values: List[float], better: str) -> float:
    """The level nine values in ten reach: the 10th percentile of a
    higher-is-better figure, the 90th of a lower-is-better one."""
    return quantile(values, 0.10 if better == "higher" else 0.90)


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_counts(host: ServiceHost) -> Dict[str, int]:
    """Cumulative serving counters of *host*; subtract two for a window's."""
    metrics = host.metrics
    batchers = [s.batcher for s in host.sessions.values() if s.batcher is not None]
    return {
        "hits": metrics.total_cache_hits,
        "coalesced": metrics.total_coalesced,
        "evaluated": metrics.total_evaluated,
        "evictions": host.cache.stats.evictions if host.cache is not None else 0,
        "fused_scans": sum(batcher.stats.fused_scans for batcher in batchers),
        "batched_queries": sum(batcher.stats.batched_queries for batcher in batchers),
        "updates": metrics.total_updates,
        "retired": metrics.total_update_invalidations,
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


@dataclass
class Window:
    """What one timed window served."""

    seconds: float = 0.0
    reads: int = 0
    read_latencies: List[float] = field(default_factory=list)
    #: latencies of the probe writes made between rounds
    probe_latencies: List[float] = field(default_factory=list)
    #: after each round, len(read_latencies) and len(probe_latencies)
    read_marks: List[int] = field(default_factory=list)
    probe_marks: List[int] = field(default_factory=list)
    #: latencies of the reads that were evaluated (sent traffic themselves)
    evaluated_latencies: List[float] = field(default_factory=list)
    #: evaluated reads per request
    evaluated: Counter = field(default_factory=Counter)
    communication_units: int = 0
    messages: int = 0
    answer_nodes: int = 0
    max_site_visits: int = 0
    #: after each round, cumulative [reads, evaluated, hits, coalesced,
    #: communication units]: equal seeds give equal rows
    rounds: List[List[int]] = field(default_factory=list)
    #: timed seconds at the end of each round
    round_ends: List[float] = field(default_factory=list)

    def round_rates(self) -> List[float]:
        """Reads per timed second of each round."""
        rates = []
        reads, ended = 0, 0.0
        for row, end in zip(self.rounds, self.round_ends):
            rates.append((row[0] - reads) / (end - ended))
            reads, ended = row[0], end
        return rates

    def round_read_latencies(self) -> List[List[float]]:
        """The read latencies of each round."""
        return _split(self.read_latencies, self.read_marks)

    def round_probe_latencies(self) -> List[List[float]]:
        """The probe-write latencies after each round."""
        return _split(self.probe_latencies, self.probe_marks)


def _split(values: List[float], marks: List[int]) -> List[List[float]]:
    parts, start = [], 0
    for end in marks:
        parts.append(values[start:end])
        start = end
    return parts


class Harness:
    """One workload's host, checker and timed windows."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.host: Optional[ServiceHost] = None
        self.documents: Dict[str, Scenario] = {}
        self.checker: Optional[Checker] = None
        #: operations served and checked, outside any window included
        self.attempted = 0
        #: called with (document, fragment id) after every probe write
        self.after_probe_write: Optional[Callable[[str, str], None]] = None
        #: (node id, original value) of the probe document's toggled text
        self._probe_target: Tuple[int, str] = (0, "")
        # RunStats objects already accounted: a later read returning one of
        # them was answered from the cache or joined an in-flight evaluation
        # and sent nothing.  Weak, so the benchmark keeps nothing alive.
        self._accounted: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Set the program up once; returns the seconds it took.

        Generation, fragmentation, registration, column encodings and one
        untimed pass over the request classes.
        """
        self.host = None
        self.documents = {}
        gc.collect()
        started = perf_counter()
        documents = self.workload.build_documents()
        host = ServiceHost(**self.workload.host_settings)
        for name, scenario in documents.items():
            host.register(name, scenario.fragmentation, scenario.placement)
            prewarm_fragments(scenario.fragmentation)
        results = self._serve_classes(host)
        elapsed = perf_counter() - started
        probe = self.workload.build_probe()
        host.register(PROBE, probe.fragmentation, probe.placement)
        documents[PROBE] = probe
        self._probe_target = _first_text(probe)
        self.host, self.documents = host, documents
        self._accounted = weakref.WeakValueDictionary()
        for result in results:
            stats = result.stats
            self._accounted[id(stats)] = stats
        return elapsed

    def _serve_classes(self, host: ServiceHost) -> list:
        classes = self.workload.request_classes()
        if self.workload.waves:  # one document, served as one wave
            return host.serve_batch(
                classes[0].document, [read.query.text for read in classes], algorithm="pax2"
            )

        async def one_pass() -> list:
            return [
                await host.submit(read.document, read.query.text, algorithm=read.algorithm)
                for read in classes
            ]

        return asyncio.run(one_pass())

    def start_checking(self, documents: Dict[str, Scenario]) -> None:
        """Check from here on against *documents*, the checker's own copies."""
        self.checker = Checker(documents)

    # -- timed window ------------------------------------------------------------

    def run_window(
        self,
        seconds: float,
        min_reads: int = MIN_READS,
        min_rounds: int = 1,
        before_round: Optional[Callable[[int], None]] = None,
    ) -> Window:
        """Serve whole rounds until *seconds* of timed rounds have passed, at
        least *min_reads* reads were served and *min_rounds* rounds ran.

        *before_round* is called with each round's index before the round.
        """
        window = Window()
        start = service_counts(self.host)

        def more() -> bool:
            rounds = len(window.rounds)
            if window.seconds < seconds or window.reads < min_reads or rounds < min_rounds:
                if before_round is not None:
                    before_round(rounds)
                return True
            return False

        gc.collect()
        if self.workload.waves:
            while more():
                for wave in self.workload.next_round():
                    self._serve_wave(wave, window)
                self._end_round(window, start)
                asyncio.run(self._probe(window))
        else:
            asyncio.run(self._closed_loop(more, window, start))
        return window

    async def _closed_loop(
        self, more: Callable[[], bool], window: Window, start: Dict[str, int]
    ) -> None:
        while more():
            clients = self.workload.next_round()
            started = perf_counter()
            served = await asyncio.gather(*(self._client(ops) for ops in clients))
            window.seconds += perf_counter() - started
            for part in served:
                for op, latency, result in part:
                    self._account(op, latency, result, window)
            self._end_round(window, start)
            await self._probe(window)

    async def _probe(self, window: Window) -> None:
        """The round's probe writes: a text of the probe document set to a
        new value and back, each timed through ``apply_update``."""
        node_id, original = self._probe_target
        for index in range(self.workload.probe_writes):
            edit = EditText(node_id, original if index % 2 else f"probe {index}")
            started = perf_counter()
            try:
                result: object = await self.host.apply_update(PROBE, edit)
            except Exception as error:  # a failed operation is counted, not fatal
                result = error
            window.probe_latencies.append(perf_counter() - started)
            self.attempted += 1
            self.checker.check_write(Write(PROBE, edit), result)
        window.probe_marks.append(len(window.probe_latencies))

    def _end_round(self, window: Window, start: Dict[str, int]) -> None:
        window.round_ends.append(window.seconds)
        window.read_marks.append(len(window.read_latencies))
        counts = delta(service_counts(self.host), start)
        window.rounds.append([
            window.reads, sum(window.evaluated.values()),
            counts["hits"], counts["coalesced"], window.communication_units,
        ])

    async def _client(self, reads: List[Read]) -> List[Tuple[Read, float, object]]:
        host = self.host
        served = []
        for read in reads:
            started = perf_counter()
            try:
                result: object = await host.submit(
                    read.document, read.query.text, algorithm=read.algorithm
                )
            except Exception as error:  # a failed operation is counted, not fatal
                result = error
            served.append((read, perf_counter() - started, result))
        return served

    def _serve_wave(self, wave: List[Read], window: Window) -> None:
        host = self.host
        document = wave[0].document
        records_before = host.metrics.total_requests
        started = perf_counter()
        try:
            results: list = host.serve_batch(
                document, [read.query.text for read in wave], algorithm="pax2"
            )
        except Exception as error:  # a failed operation is counted, not fatal
            results = [error] * len(wave)
        window.seconds += perf_counter() - started
        # The host times each read of the wave from its submit to its answer.
        answered = host.metrics.total_requests - records_before
        records = host.metrics.records[-answered:] if answered else []
        latencies = [record.latency_seconds for record in records]
        latencies += [0.0] * (len(wave) - len(latencies))  # reads that raised
        for op, latency, result in zip(wave, latencies, results):
            self._account(op, latency, result, window)

    def _account(self, op: Read, latency: float, result: object, window: Window) -> None:
        self.attempted += 1
        window.reads += 1
        evaluated = False
        if not isinstance(result, BaseException):
            window.read_latencies.append(latency)
            stats = result.stats
            evaluated = self._accounted.get(id(stats)) is not stats
            if evaluated:
                self._accounted[id(stats)] = stats
                window.evaluated_latencies.append(latency)
                window.evaluated[op] += 1
                window.communication_units += stats.communication_units
                window.messages += stats.message_count
                window.answer_nodes += stats.answer_nodes_shipped
                window.max_site_visits = max(window.max_site_visits, stats.max_site_visits)
        self.checker.check_read(op, result, evaluated)

    # -- after the window -----------------------------------------------------------

    def write_probe(self, writes: int) -> List[float]:
        """Latencies of about *writes* toggling text edits through ``apply_update``.

        Each document's first text node is edited to a new value and back,
        so every document ends as it began.
        """
        host = self.host
        targets = {name: _first_text(scenario) for name, scenario in self.documents.items()}
        pairs = max(1, writes // (2 * len(targets)))

        async def probe() -> List[float]:
            latencies = []
            for pair in range(pairs):
                for name, (node_id, original) in targets.items():
                    for value in (f"probe {pair}", original):
                        edit = EditText(node_id, value)
                        started = perf_counter()
                        try:
                            result: object = await host.apply_update(name, edit)
                        except Exception as error:  # counted, not fatal
                            result = error
                        latencies.append(perf_counter() - started)
                        self.attempted += 1
                        if self.checker.check_write(Write(name, edit), result):
                            if self.after_probe_write is not None:
                                self.after_probe_write(name, result.fragment_id)
            return latencies

        return asyncio.run(probe())


def _first_text(scenario: Scenario) -> Tuple[int, str]:
    """(id, value) of the first text node of the document's root fragment."""
    fragment = scenario.fragmentation.root_fragment
    node = next(node for node in fragment.iter_span() if node.is_text)
    return node.node_id, node.value
