"""Traced mode: per-layer metrics timed around calls into each layer.

Spans are recorded from the benchmark's own code: :class:`LayerClock`
replaces a layer's public function, at the module that calls it, with a
wrapper that adds the call's wall time to the layer's total, and puts the
original back afterwards.  Two kinds of measurement result:

* in the serving window, around the calls the host makes (query parsing and
  normalisation, mutations), plus garbage-collector pauses;
* in probes after the window, which call the layers' public entry points
  directly with the inputs the workload served: ``DistributedQueryEngine.run``
  per request class (weighted by how often the window evaluated it) with the
  pruning, per-fragment pass and answer-accounting calls inside it timed, so
  that the engine rows plus a residual sum to the engine time;
  ``run_batch`` on the workload's waves; ``compile_plan`` per distinct
  query; re-encoding after a write.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

import repro.core.parbox as parbox_module
import repro.core.pax2 as pax2_module
import repro.core.pax3 as pax3_module
import repro.service.server as server_module
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import prewarm_fragments
from repro.fragments.fragment_tree import build_fragmentation
from repro.workloads.scenarios import Scenario
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_plan

from perfbench.workloads import Read

__all__ = ["LayerClock", "GcClock", "engine_probe", "batch_probe", "compile_probe", "setup_layers"]

#: (module, function name, layer) wrapped while the serving window is traced
SERVICE_CALLS = (
    (server_module, "parse_xpath", "parse"),
    (server_module, "normalize", "parse"),
    (server_module, "apply_mutation", "apply"),
)

#: (module, function name, layer) wrapped inside the synchronous engine probe
ENGINE_CALLS = tuple(
    (module, name, layer)
    for module in (pax2_module, pax3_module, parbox_module)
    for name, layer in (
        ("relevant_fragments", "pruning"),
        ("combined_pass", "pass"),
        ("qualifier_pass", "pass"),
        ("selection_pass", "pass"),
        ("answer_subtree_nodes", "accounting"),
    )
    if hasattr(module, name)
)

#: minimum timed seconds per probed request class
PROBE_SECONDS = 0.05


class LayerClock:
    """Total wall time and calls per layer of the wrapped functions."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: fragment nodes handed to the per-fragment pass
        self.pass_nodes = 0
        self._installed: List[Tuple[object, str, object]] = []

    def install(self, calls: Iterable[Tuple[object, str, str]]) -> "LayerClock":
        for module, name, layer in calls:
            original = getattr(module, name)
            setattr(module, name, self._timed(original, layer))
            self._installed.append((module, name, original))
        return self

    def _timed(self, function, layer: str):
        seconds, calls = self.seconds, self.calls

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[layer] += perf_counter() - started
                calls[layer] += 1
                if layer == "pass":
                    self.pass_nodes += args[0][args[1]].node_count()

        return timed

    def remove(self) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.pass_nodes = 0

    def __enter__(self) -> "LayerClock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


class GcClock:
    """Wall time the cyclic garbage collector ran, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started

    def start(self) -> None:
        if self._callback not in gc.callbacks:
            gc.callbacks.append(self._callback)

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def setup_layers(documents: Dict[str, Scenario], build_seconds: float) -> Dict[str, float]:
    """Split a timed document build into generation and fragmentation, and
    time the column encoding of every fragment.

    ``build_seconds`` covers generating and fragmenting *documents*;
    fragmentation is timed again on the same trees with the same cuts and
    the rest is charged to generation.
    """
    fragment_seconds = 0.0
    encode_seconds: List[float] = []
    for scenario in documents.values():
        fragmentation = scenario.fragmentation
        root_id = fragmentation.tree.root.node_id
        cuts = [node_id for node_id in fragmentation.fragment_root_ids if node_id != root_id]
        started = perf_counter()
        build_fragmentation(fragmentation.tree, cuts)
        fragment_seconds += perf_counter() - started
        for fragment_id in fragmentation.fragment_ids():
            started = perf_counter()
            prewarm_fragments(fragmentation, [fragment_id])
            encode_seconds.append(perf_counter() - started)
    return {
        "workloads.generate_s": max(0.0, build_seconds - fragment_seconds),
        "fragments.build_s": fragment_seconds,
        "xmltree.encode_ms": 1e3 * sum(encode_seconds) / len(encode_seconds),
    }


def engine_probe(documents: Dict[str, Scenario], weights: Dict[Read, int]) -> Dict[str, float]:
    """Engine rows per evaluated read, weighted as the window evaluated them."""
    totals: Dict[str, float] = defaultdict(float)
    weight_sum = 0
    with LayerClock().install(ENGINE_CALLS) as clock:
        for read, weight in weights.items():
            if weight <= 0:
                continue
            scenario = documents[read.document]
            engine = DistributedQueryEngine(
                scenario.fragmentation, scenario.placement, algorithm=read.algorithm
            )
            stats = engine.run(read.query.text)  # untimed: encodings after writes
            clock.reset()
            runs = 0
            started = perf_counter()
            while True:
                engine.run(read.query.text)
                runs += 1
                elapsed = perf_counter() - started
                if elapsed >= PROBE_SECONDS:
                    break
            share = weight / runs
            weight_sum += weight
            totals["engine"] += share * elapsed
            for layer in ("pruning", "pass", "accounting"):
                totals[layer] += share * clock.seconds[layer]
            totals["nodes"] += share * clock.pass_nodes
            totals["kept"] += weight * len(stats.fragments_evaluated)
            totals["fragments"] += weight * len(scenario.fragmentation)
    engine_s = totals["engine"] / weight_sum
    pruning_s = totals["pruning"] / weight_sum
    pass_s = totals["pass"] / weight_sum
    accounting_s = totals["accounting"] / weight_sum
    return {
        "core.engine.ms_per_read": 1e3 * engine_s,
        "core.pruning.us_per_read": 1e6 * pruning_s,
        "core.pass.ms_per_read": 1e3 * pass_s,
        "core.accounting.ms_per_read": 1e3 * accounting_s,
        "core.residual.ms_per_read": 1e3 * (engine_s - pruning_s - pass_s - accounting_s),
        "core.pass.nodes_per_ms": (
            totals["nodes"] / (1e3 * totals["pass"]) if totals["pass"] else 0.0
        ),
        "core.pruning.kept_fraction": totals["kept"] / totals["fragments"],
    }


def batch_probe(documents: Dict[str, Scenario], waves: List[List[Read]]) -> float:
    """Mean milliseconds of ``DistributedQueryEngine.run_batch`` per wave."""
    seconds = 0.0
    for wave in waves:
        scenario = documents[wave[0].document]
        engine = DistributedQueryEngine(scenario.fragmentation, scenario.placement)
        queries = [read.query.text for read in wave]
        engine.run_batch(queries)
        started = perf_counter()
        engine.run_batch(queries)
        seconds += perf_counter() - started
    return 1e3 * seconds / len(waves)


def compile_probe(queries: List[str]) -> float:
    """Mean microseconds of ``compile_plan`` per distinct query."""
    paths = [parse_xpath(query) for query in queries]
    runs = 0
    seconds = 0.0
    while seconds < PROBE_SECONDS:
        for path, query in zip(paths, queries):
            started = perf_counter()
            compile_plan(path, source=query)
            seconds += perf_counter() - started
        runs += 1
    return 1e6 * seconds / (runs * len(queries))
