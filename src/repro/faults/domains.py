"""Correlated failure domains: AZ/rack outages and scrape partitions.

PR 1's faults are independent per host; real incidents are correlated — a
rack loses power, an AZ loses a spine switch, a network partition cuts the
metric store off from every exporter in a domain.  This module provides the
shared bookkeeping for domain-scoped faults:

- :func:`domain_members` resolves a ``(scope, domain_id)`` pair to the
  member nodes, giving every fault class one definition of "the domain";
- :class:`ScrapePartition` tracks which nodes are currently blackholed by
  an exporter↔store partition.  Unlike a scrape *gap* (one cycle lost
  everywhere) or a *stale* exporter (markers ingested), a partition loses
  every sample from one domain for its whole duration — the control-plane
  view of that domain silently freezes, which is exactly the staleness
  hazard the paper's scheduling critique turns on.

Victim and duration draws stay in :class:`~repro.faults.injector.
FaultInjector` so the full fault trace remains a pure function of
(config, topology, event order).
"""

from __future__ import annotations

from repro.infrastructure.hierarchy import ComputeNode, Region

#: Valid domain scopes: an availability zone or one building block (the
#: simulation's rack-equivalent blast radius).
DOMAIN_SCOPES = ("az", "bb")


def domain_ids(region: Region, scope: str) -> list[str]:
    """Sorted identifiers of every domain of ``scope`` in the region."""
    if scope == "az":
        return sorted(region.azs)
    if scope == "bb":
        return sorted(bb.bb_id for bb in region.iter_building_blocks())
    raise ValueError(f"unknown domain scope {scope!r}")


def domain_members(region: Region, scope: str, domain_id: str) -> list[ComputeNode]:
    """Member nodes of one domain, in region iteration order."""
    if scope == "az":
        return [n for n in region.iter_nodes() if n.az == domain_id]
    if scope == "bb":
        return [n for n in region.iter_nodes() if n.building_block == domain_id]
    raise ValueError(f"unknown domain scope {scope!r}")


class ScrapePartition:
    """Which nodes are currently cut off from the metric store.

    Multiple overlapping partitions are supported: each start returns a
    token, and a node stays blackholed until every partition covering it
    has ended (a node can sit behind two failed links at once).
    """

    def __init__(self) -> None:
        self._active: dict[int, frozenset[str]] = {}
        self._token = 0
        #: Partitions started / healed, and scrapes lost to blackholing.
        self.partitions_started = 0
        self.partitions_healed = 0
        self.blackholed_scrapes = 0

    def start(self, node_ids: frozenset[str]) -> int:
        """Begin a partition covering ``node_ids``; returns its token."""
        self._token += 1
        self._active[self._token] = node_ids
        self.partitions_started += 1
        return self._token

    def end(self, token: int) -> None:
        """Heal one partition (idempotent for stale tokens)."""
        if self._active.pop(token, None) is not None:
            self.partitions_healed += 1

    def is_blackholed(self, node_id: str) -> bool:
        """Whether any active partition covers this node (counts a loss)."""
        for members in self._active.values():
            if node_id in members:
                self.blackholed_scrapes += 1
                return True
        return False
