#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Serves real reads through a ``ServiceHost`` on a small FT2 document, shows
that the checker passes them, then hands the checker corrupted copies of
the same results -- a wrong answer set, inflated traffic, one site visit
over the paper's bound, an exception, a write applied to the wrong fragment
-- and shows each one counted as a failed operation.  Exits 1 if any check
lets a corruption through or fails a genuine result.
"""

from __future__ import annotations

import asyncio
import copy
import sys
from pathlib import Path
from typing import Callable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from repro.core.results import QueryResult
    from repro.service import ServiceHost
    from repro.updates.ops import EditText, UpdateResult
    from repro.workloads.scenarios import build_ft2

    from perfbench.oracle import Checker
    from perfbench.workloads import FAMILY_POOL, VISIT_BOUNDS, Query, Read, Write

    def document():
        return build_ft2(40_000, seed=3)

    live = document()
    host = ServiceHost(cache_capacity=0)
    host.register("doc", live.fragmentation, live.placement)
    reads = [Read("doc", query, "pax2") for query in FAMILY_POOL] + [
        Read("doc", Query("Q3"), "pax3"),
        Read("doc", Query("Q4", boolean=True), "parbox"),
    ]

    async def serve() -> list:
        return [await host.submit("doc", r.query.text, algorithm=r.algorithm) for r in reads]

    results = asyncio.run(serve())
    checker = Checker({"doc": document()})
    genuine_ok = all(checker.check_read(read, result, True) for read, result in zip(reads, results))
    print(f"{'ok' if genuine_ok and not checker.failed else 'FAILED':<18} genuine results pass")

    def corrupted(result, change: Callable) -> QueryResult:
        stats = copy.deepcopy(result.stats)
        change(stats)
        return QueryResult(live.tree, stats)

    def drop_answer(stats):
        stats.answer_ids = stats.answer_ids[1:] if stats.answer_ids else [live.tree.root.node_id]

    def inflate_traffic(stats):
        stats.communication_units += 1

    def extra_visit(stats):
        busiest = max(stats.sites.values(), key=lambda site: site.visits)
        busiest.visits += 1

    # Reads whose busiest site is at the algorithm's visit bound.
    at_bound = [
        (read, result) for read, result in zip(reads, results)
        if result.stats.max_site_visits == VISIT_BOUNDS[read.algorithm]
    ]

    def read_case(read, result, change, evaluated=True) -> Callable[[], bool]:
        return lambda: checker.check_read(read, corrupted(result, change), evaluated)

    cases: List[Tuple[str, Callable[[], bool], bool]] = []
    for read, result in zip(reads, results):
        name = f"{read.algorithm} {read.query.text}"
        cases.append((f"wrong answer set, {name}", read_case(read, result, drop_answer), True))
        cases.append((f"inflated traffic, {name}", read_case(read, result, inflate_traffic), True))
    for read, result in at_bound:
        name = f"{read.algorithm} {read.query.text}"
        case = read_case(read, result, extra_visit, evaluated=False)
        cases.append((f"extra site visit, {name}", case, True))
    cases.append(("exception instead of an answer",
                  lambda: checker.check_read(reads[0], RuntimeError("boom"), True), False))
    text = next(node for node in live.fragmentation.root_fragment.iter_span() if node.is_text)
    edit = EditText(text.node_id, "selftest")
    wrong_fragment = UpdateResult("edit", "F9", 1)
    cases.append(("write reported on the wrong fragment",
                  lambda: checker.check_write(Write("doc", edit), wrong_fragment), True))

    caught = 0
    for label, check, wrong in cases:
        failed_before, wrong_before = checker.failed, checker.mismatches
        passed = check()
        counted = checker.failed == failed_before + 1 and not passed
        classified = (checker.mismatches == wrong_before + 1) == wrong
        ok = counted and classified
        caught += ok
        print(f"{'counted as failed' if ok else 'NOT CAUGHT':<18} {label}")
    print(f"{caught}/{len(cases)} corruptions counted as failed operations;"
          f" {len(at_bound)} reads sat at their visit bound")
    return 0 if genuine_ok and caught == len(cases) and at_bound else 1


if __name__ == "__main__":
    sys.exit(main())
