"""Output checks: every served operation against computations made apart from the engines.

The :class:`Checker` keeps its own copy of every document, built from the
same seed and moved through the same writes in the order the host applied
them.  A read is right when

* its answers equal ``reference_evaluate`` (the naive evaluator) on the
  un-fragmented tree at the version the read saw, and equal
  :func:`family_answers`, a direct computation of the Q1-Q4 families that
  shares no code with ``repro.xpath``;
* its site visits keep the paper's bounds (PaX2 <= 2, PaX3 <= 3, ParBoX = 1);
* when the read was evaluated (not answered from the cache or by joining an
  in-flight evaluation), its traffic -- communication units, messages and
  answer nodes shipped -- equals a synchronous run of the same query on the
  ``reference`` engine over the checker's copy.

A read or write that raises, or whose result is a partial answer, is a
failed operation; so is one whose result is wrong, and a wrong result also
makes the run incorrect.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.engine import DistributedQueryEngine
from repro.distributed.stats import RunStats
from repro.updates.apply import apply_mutation
from repro.workloads.scenarios import Scenario
from repro.xmltree.nodes import XMLNode, XMLTree
from repro.xpath.reference import reference_evaluate

from perfbench.workloads import VISIT_BOUNDS, Query, Read, Write

__all__ = ["Checker", "family_answers", "TRAFFIC_FIELDS"]

#: RunStats fields an evaluated read must share with the reference-engine run
TRAFFIC_FIELDS = ("communication_units", "message_count", "answer_nodes_shipped")

#: failure descriptions kept for the run's report
_KEPT_PROBLEMS = 10


# -- Q1-Q4 by hand -------------------------------------------------------------


def _children(node: XMLNode, tag: str) -> List[XMLNode]:
    return [child for child in node.children if child.is_element and child.tag == tag]


def _descendants(node: XMLNode, tag: str) -> List[XMLNode]:
    found: List[XMLNode] = []
    stack = list(reversed(node.children))
    while stack:
        current = stack.pop()
        if current.is_element:
            if current.tag == tag:
                found.append(current)
            stack.extend(reversed(current.children))
    return found


def _string(node: XMLNode) -> str:
    """The concatenated direct text children, as ``text()`` compares it."""
    return "".join(child.value or "" for child in node.children if child.is_text).strip()


def _number(node: XMLNode) -> Optional[float]:
    raw = _string(node)
    if raw.startswith("$"):
        raw = raw[1:]
    try:
        return float(raw) if raw else None
    except ValueError:
        return None


def _qualifies(person: XMLNode, query: Query) -> bool:
    ages = [
        _number(age)
        for profile in _children(person, "profile")
        for age in _children(profile, "age")
    ]
    old_enough = any(age is not None and age > query.age for age in ages)
    lives_there = any(
        _string(country).lower() == query.country.lower()
        for address in _children(person, "address")
        for country in _children(address, "country")
    )
    return old_enough and lives_there


def family_answers(tree: XMLTree, query: Query) -> List[int]:
    """Sorted answer ids of a Q1-Q4 family member, by direct tree walks."""
    root = tree.root
    sites = _children(root, "site") if root.tag == "sites" else []
    if query.family == "Q2":
        selected = [
            annotation
            for site in sites
            for auctions in _children(site, "open_auctions")
            for annotation in _descendants(auctions, "annotation")
        ]
    else:
        if query.family == "Q4":
            people = _descendants(root, "people") if root.tag == "sites" else []
        else:
            people = [group for site in sites for group in _children(site, "people")]
        persons = [person for group in people for person in _children(group, "person")]
        if query.family == "Q1":
            selected = persons
        else:
            selected = [
                card
                for person in persons
                if _qualifies(person, query)
                for card in _children(person, "creditcard")
            ]
    if query.boolean:
        return [root.node_id] if selected else []
    return sorted({node.node_id for node in selected})


# -- the checker ----------------------------------------------------------------


class Checker:
    """Checks served reads and writes; counts failed operations."""

    def __init__(self, documents: Dict[str, Scenario]):
        self.documents = documents
        self.failed = 0
        #: wrong results (a subset of the failed operations)
        self.mismatches = 0
        self.problems: List[str] = []
        self._expected: Dict[Tuple[str, str], Optional[List[int]]] = {}
        self._reference: Dict[Tuple[str, str, str], RunStats] = {}

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    def fail(self, what: str, wrong: bool) -> bool:
        """Count one failed operation; *wrong*: it returned a wrong result."""
        self.failed += 1
        self.mismatches += int(wrong)
        if len(self.problems) < _KEPT_PROBLEMS:
            self.problems.append(what)
        return False

    def expected_answers(self, read: Read) -> Optional[List[int]]:
        """Answers at the checker's current version (None: the oracles disagree)."""
        key = (read.document, read.query.text)
        if key not in self._expected:
            tree = self.documents[read.document].tree
            answers = reference_evaluate(tree, read.query.text)
            if answers != family_answers(tree, read.query):
                self._expected[key] = None
            else:
                self._expected[key] = answers
        return self._expected[key]

    def reference_run(self, read: Read) -> RunStats:
        """The same request, run synchronously on the reference engine."""
        key = (read.document, read.query.text, read.algorithm)
        if key not in self._reference:
            scenario = self.documents[read.document]
            engine = DistributedQueryEngine(
                scenario.fragmentation,
                scenario.placement,
                algorithm=read.algorithm,
                engine="reference",
            )
            self._reference[key] = engine.run(read.query.text)
        return self._reference[key]

    def check_read(self, read: Read, result: object, evaluated: bool) -> bool:
        """Check one served read; *evaluated* says it sent traffic itself."""
        label = f"{read.algorithm} {read.query.text!r} on {read.document}"
        if isinstance(result, BaseException):
            return self.fail(f"{label} raised {type(result).__name__}: {result}", wrong=False)
        stats: RunStats = result.stats  # type: ignore[attr-defined]
        if stats.incomplete:
            return self.fail(f"{label} returned a partial answer", wrong=False)
        expected = self.expected_answers(read)
        if expected is None:
            return self.fail(f"{label}: reference and direct computation disagree", wrong=True)
        if list(stats.answer_ids) != expected:
            return self.fail(
                f"{label}: {len(stats.answer_ids)} answers, expected {len(expected)}", wrong=True
            )
        visits = stats.max_site_visits
        bound = VISIT_BOUNDS[read.algorithm]
        if visits < 1 or visits > bound or (read.algorithm == "parbox" and visits != 1):
            return self.fail(f"{label}: {visits} visits to one site, bound {bound}", wrong=True)
        if evaluated:
            reference = self.reference_run(read)
            for name in TRAFFIC_FIELDS:
                if getattr(stats, name) != getattr(reference, name):
                    return self.fail(
                        f"{label}: {name} {getattr(stats, name)},"
                        f" reference engine {getattr(reference, name)}",
                        wrong=True,
                    )
        return True

    def check_write(self, write: Write, result: object) -> bool:
        """Check one applied write and move the checker's copy past it."""
        label = f"{type(write.mutation).__name__} on {write.document}"
        if isinstance(result, BaseException):
            return self.fail(f"{label} raised {type(result).__name__}: {result}", wrong=False)
        expected = apply_mutation(self.documents[write.document].fragmentation, write.mutation)
        for cache in (self._expected, self._reference):
            for key in [key for key in cache if key[0] == write.document]:
                del cache[key]
        def summary(update) -> tuple:
            return (update.kind, update.fragment_id, update.nodes_added, update.nodes_removed)

        got, want = summary(result), summary(expected)
        if got != want:
            return self.fail(f"{label}: applied as {got}, expected {want}", wrong=True)
        return True
