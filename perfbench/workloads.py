"""The benchmark's three serving workloads.

Each workload builds its documents from the seed with the repository's XMark
generator (FT2 fragment trees), names the host settings it changes from the
defaults, and hands out *rounds*: a fixed list of reads per closed-loop
client, or a list of waves for the batch workload.  A run executes whole
rounds only, and every round of a workload is the same, so count ratios
(traffic, hits, coalesced reads per read) do not depend on how many rounds a
run completed, and rounds differ in time only by the machine's speed.

Request mixes are weighted so that the median and the 95th percentile of
read latency each fall well inside one request class rather than on the
boundary between two (a percentile taken across a class boundary jumps
between the two classes from run to run).  README.md gives the make-up and
the reason for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.updates.ops import Mutation
from repro.workloads.multidoc import build_tenants
from repro.workloads.scenarios import Scenario, build_ft2

__all__ = [
    "PROBE",
    "Query",
    "Read",
    "Write",
    "Workload",
    "WORKLOADS",
    "VISIT_BOUNDS",
]

#: name of the probe document in the host
PROBE = "probe"

#: the paper's bounds on visits per site, by service algorithm name
VISIT_BOUNDS = {"pax2": 2, "pax3": 3, "parbox": 1}


@dataclass(frozen=True)
class Query:
    """One member of the paper's Q1-Q4 families (Figure 7).

    Q3 and Q4 take the age threshold and country of their qualifier;
    ``boolean`` gives the ParBoX form ``.[...]`` that asks whether the
    data-selecting query has any answer.
    """

    family: str
    age: int = 20
    country: str = "US"
    boolean: bool = False

    @property
    def text(self) -> str:
        qualifier = f'[profile/age > {self.age} and address/country = "{self.country}"]'
        path = {
            "Q1": "/site/people/person",
            "Q2": "/site/open_auctions//annotation",
            "Q3": f"/site/people/person{qualifier}/creditcard",
            "Q4": f"//people/person{qualifier}/creditcard",
        }[self.family]
        if not self.boolean:
            return "/sites" + path
        # Relative to the root element: drop a single leading child slash.
        return ".[" + (path if path.startswith("//") else path[1:]) + "]"

    def as_boolean(self) -> "Query":
        return Query(self.family, self.age, self.country, boolean=True)


@dataclass(frozen=True)
class Read:
    """A query of one document on one algorithm."""

    document: str
    query: Query
    algorithm: str


@dataclass(frozen=True)
class Write:
    """A mutation of one document."""

    document: str
    mutation: Mutation


Q1, Q2 = Query("Q1"), Query("Q2")

#: the read pool of burst-16: every family, three parameterisations of each
#: qualifier family
FAMILY_POOL = (
    Q1,
    Q2,
    Query("Q3", 20, "US"),
    Query("Q3", 40, "Germany"),
    Query("Q3", 30, "Japan"),
    Query("Q4", 20, "US"),
    Query("Q4", 40, "Germany"),
    Query("Q4", 30, "Japan"),
)

class Workload:
    """Documents, host settings and operation rounds of one workload."""

    name = ""
    #: closed-loop clients issuing the rounds (waves workloads: one caller)
    clients = 1
    #: True: each round is a list of waves, each served by one batch call
    waves = False
    #: ServiceHost keyword overrides (everything else stays at the defaults)
    host_settings: Dict[str, object] = {}
    #: toggling edits of the probe document after every round, untimed for
    #: the round; they give the workload its write latency
    probe_writes = 16
    PROBE_BYTES = 15_000

    def __init__(self, seed: int):
        self.seed = seed

    def build_documents(self) -> Dict[str, Scenario]:
        """Fresh, equal copies of the workload's documents on every call."""
        raise NotImplementedError

    def request_classes(self) -> List[Read]:
        """Every distinct read of the workload, in a fixed order."""
        raise NotImplementedError

    def next_round(self) -> List[List[Read]]:
        """The next round: one operation list per client (or per wave)."""
        raise NotImplementedError

    def build_probe(self) -> Scenario:
        """The probe document: a small FT2 that no read touches."""
        return build_ft2(self.PROBE_BYTES, seed=self.seed)

    def params(self) -> Dict[str, object]:
        """The workload's make-up, for the run's provenance record."""
        return {
            "clients": self.clients,
            "waves": self.waves,
            "probe_writes_per_round": self.probe_writes,
            **self.host_settings,
        }


class ScanWorkload(Workload):
    """scan-600k: one large document, no cache, one client, all algorithms."""

    name = "scan-600k"
    host_settings = {"cache_capacity": 0}
    BYTES = 600_000
    #: (query, algorithm, copies per round); 21 reads a round
    MIX = (
        (Q1, "pax2", 3),
        (Q2, "pax2", 3),
        (Query("Q3"), "pax2", 4),
        (Query("Q4"), "pax2", 2),
        (Q1, "pax3", 1),
        (Q2, "pax3", 1),
        (Query("Q3"), "pax3", 1),
        (Query("Q4"), "pax3", 2),
        (Q1.as_boolean(), "parbox", 1),
        (Q2.as_boolean(), "parbox", 1),
        (Query("Q3", boolean=True), "parbox", 1),
        (Query("Q4", boolean=True), "parbox", 1),
    )

    def build_documents(self) -> Dict[str, Scenario]:
        return {"doc": build_ft2(self.BYTES, seed=self.seed)}

    def request_classes(self) -> List[Read]:
        return [Read("doc", query, algorithm) for query, algorithm, _ in self.MIX]

    def next_round(self) -> List[List[Read]]:
        # Deal the copies out class by class so equal reads are spread over
        # the round instead of running back to back.
        pending = [[Read("doc", q, a)] * copies for q, a, copies in self.MIX]
        reads: List[Read] = []
        while any(pending):
            for bucket in pending:
                if bucket:
                    reads.append(bucket.pop())
        return [reads]

    def params(self) -> Dict[str, object]:
        return {**super().params(), "document_bytes": self.BYTES}


class TenantsWorkload(Workload):
    """tenants-small: eight small tenants, more distinct keys than the cache holds."""

    name = "tenants-small"
    clients = 2
    TENANTS = 8
    BYTES = 15_000
    AGES = (20, 30, 40, 50)
    COUNTRIES = ("US", "Germany", "Japan")
    ALGORITHMS = ("pax2", "pax3", "parbox")

    def __init__(self, seed: int):
        super().__init__(seed)
        self._sequence = self.request_classes()

    def build_documents(self) -> Dict[str, Scenario]:
        return {
            tenant.name: tenant.scenario
            for tenant in build_tenants(self.TENANTS, total_bytes=self.BYTES, seed=self.seed)
        }

    def request_classes(self) -> List[Read]:
        # 4 ages x 3 countries x 3 algorithms x 8 tenants = 288 cache keys,
        # more than the default 256-entry cache holds: a key comes back only
        # after 287 others, so the LRU never serves it.
        # The algorithm changes from one read to the next, so each client's
        # reads alternate between the async PaX2 path and the synchronous
        # fallbacks whatever the two clients' relative phase.
        reads = []
        for age in self.AGES:
            for country in self.COUNTRIES:
                for index in range(self.TENANTS):
                    for algorithm in self.ALGORITHMS:
                        query = Query("Q3", age, country, boolean=(algorithm == "parbox"))
                        reads.append(Read(f"doc{index}", query, algorithm))
        return reads

    def next_round(self) -> List[List[Read]]:
        return [self._sequence[client :: self.clients] for client in range(self.clients)]

    def params(self) -> Dict[str, object]:
        return {
            **super().params(),
            "tenants": self.TENANTS,
            "document_bytes": self.BYTES,
            "distinct_keys": len(self._sequence),
        }


class BurstWorkload(Workload):
    """burst-16: waves of 16 PaX2 reads with repeats, one batch call each."""

    name = "burst-16"
    waves = True
    host_settings = {"cache_capacity": 0}
    BYTES = 150_000
    #: copies of six consecutive pool queries in one wave (16 reads)
    PATTERN = (4, 3, 3, 2, 2, 2)
    WAVES_PER_ROUND = len(FAMILY_POOL)

    def build_documents(self) -> Dict[str, Scenario]:
        return {"doc": build_ft2(self.BYTES, seed=self.seed)}

    def request_classes(self) -> List[Read]:
        return [Read("doc", query, "pax2") for query in FAMILY_POOL]

    def next_round(self) -> List[List[Read]]:
        pool = FAMILY_POOL
        waves: List[List[Read]] = []
        for wave in range(self.WAVES_PER_ROUND):
            reads: List[Read] = []
            for offset, copies in enumerate(self.PATTERN):
                reads.extend([Read("doc", pool[(wave + offset) % len(pool)], "pax2")] * copies)
            # A fixed stride permutation interleaves the repeats.
            waves.append([reads[(index * 5) % len(reads)] for index in range(len(reads))])
        return waves

    def params(self) -> Dict[str, object]:
        return {
            **super().params(),
            "document_bytes": self.BYTES,
            "wave_size": sum(self.PATTERN),
            "waves_per_round": self.WAVES_PER_ROUND,
        }


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (ScanWorkload, TenantsWorkload, BurstWorkload)
}

