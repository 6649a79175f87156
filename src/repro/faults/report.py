"""The FaultReport: what was injected and how recovery went.

The report is the scenario's primary artefact: counters for every injected
fault class, the evacuation latency distribution, a retry histogram, and
the dead-letter queue.  Its inherited
:meth:`~repro.reporting.ReportBase.canonical_json` is deterministic
(sorted keys, fixed float handling) so two runs with the same seed produce
byte-identical output — the ``determinism_faults`` check of
``repro verify`` hashes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reporting import ReportBase


@dataclass(frozen=True)
class DeadLetter:
    """One VM whose evacuation exhausted its retry budget."""

    vm_id: str
    failed_host: str
    attempts: int
    failed_at: float
    dead_lettered_at: float

    def to_dict(self) -> dict:
        return {
            "vm_id": self.vm_id,
            "failed_host": self.failed_host,
            "attempts": self.attempts,
            "failed_at": round(self.failed_at, 6),
            "dead_lettered_at": round(self.dead_lettered_at, 6),
        }


@dataclass
class FaultReport(ReportBase):
    """Aggregated outcome of one fault-injection scenario."""

    seed: int = 0
    # -- injected faults --------------------------------------------------
    host_failures: int = 0
    host_recoveries: int = 0
    failed_hosts: list[str] = field(default_factory=list)
    migrations_attempted: int = 0
    migrations_aborted: int = 0
    scrape_gaps: int = 0
    stale_node_scrapes: int = 0
    # -- correlated failure domains ---------------------------------------
    az_outages: int = 0
    bb_outages: int = 0
    #: ``scope:domain_id`` of every fired domain outage.
    outage_domains: list[str] = field(default_factory=list)
    #: Nodes taken down by domain outages (also counted in host_failures).
    domain_nodes_failed: int = 0
    partitions: int = 0
    blackholed_scrapes: int = 0
    #: Victim/domain draws skipped because nothing eligible remained.
    skipped_draws: int = 0
    # -- recovery ---------------------------------------------------------
    evacuations_requested: int = 0
    evacuations_succeeded: int = 0
    evacuation_retries: int = 0
    #: seconds from host failure to successful re-placement, per VM
    evacuation_latencies_s: list[float] = field(default_factory=list)
    #: attempts needed for each successful evacuation -> count
    retry_histogram: dict[int, int] = field(default_factory=dict)
    dead_letters: list[DeadLetter] = field(default_factory=list)

    # -- recording helpers -------------------------------------------------

    def record_evacuation_success(self, latency_s: float, attempts: int) -> None:
        self.evacuations_succeeded += 1
        self.evacuation_latencies_s.append(latency_s)
        self.retry_histogram[attempts] = self.retry_histogram.get(attempts, 0) + 1

    def record_dead_letter(self, entry: DeadLetter) -> None:
        self.dead_letters.append(entry)

    @property
    def dead_lettered_vms(self) -> list[str]:
        return [d.vm_id for d in self.dead_letters]

    # -- summaries ----------------------------------------------------------

    def latency_summary(self) -> dict[str, float]:
        """count/mean/p50/p95/max of evacuation latency, all rounded."""
        lat = sorted(self.evacuation_latencies_s)
        if not lat:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

        def pct(q: float) -> float:
            idx = min(len(lat) - 1, int(q * (len(lat) - 1) + 0.5))
            return lat[idx]

        return {
            "count": len(lat),
            "mean": round(sum(lat) / len(lat), 6),
            "p50": round(pct(0.50), 6),
            "p95": round(pct(0.95), 6),
            "max": round(lat[-1], 6),
        }

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready view of the report."""
        return {
            "seed": self.seed,
            "host_failures": self.host_failures,
            "host_recoveries": self.host_recoveries,
            "failed_hosts": sorted(self.failed_hosts),
            "migrations_attempted": self.migrations_attempted,
            "migrations_aborted": self.migrations_aborted,
            "scrape_gaps": self.scrape_gaps,
            "stale_node_scrapes": self.stale_node_scrapes,
            "az_outages": self.az_outages,
            "bb_outages": self.bb_outages,
            "outage_domains": sorted(self.outage_domains),
            "domain_nodes_failed": self.domain_nodes_failed,
            "partitions": self.partitions,
            "blackholed_scrapes": self.blackholed_scrapes,
            "skipped_draws": self.skipped_draws,
            "evacuations_requested": self.evacuations_requested,
            "evacuations_succeeded": self.evacuations_succeeded,
            "evacuation_retries": self.evacuation_retries,
            "evacuation_latency": self.latency_summary(),
            "retry_histogram": {
                str(k): v for k, v in sorted(self.retry_histogram.items())
            },
            "dead_lettered": [
                d.to_dict() for d in sorted(self.dead_letters, key=lambda d: d.vm_id)
            ],
        }

    def render(self) -> str:
        """Human-oriented one-screen summary."""
        lat = self.latency_summary()
        lines = [
            "Fault-injection report",
            f"  host failures      {self.host_failures} "
            f"(recovered {self.host_recoveries})",
            f"  migrations         {self.migrations_attempted} attempted, "
            f"{self.migrations_aborted} aborted mid-precopy",
            f"  telemetry          {self.scrape_gaps} scrape gaps, "
            f"{self.stale_node_scrapes} stale node scrapes",
            f"  domains            {self.az_outages} AZ + {self.bb_outages} BB "
            f"outages ({self.domain_nodes_failed} nodes), "
            f"{self.partitions} partitions "
            f"({self.blackholed_scrapes} scrapes blackholed)",
            f"  evacuations        {self.evacuations_succeeded}/"
            f"{self.evacuations_requested} succeeded "
            f"({self.evacuation_retries} retries)",
            f"  evac latency (s)   mean {lat['mean']:.1f}  p50 {lat['p50']:.1f}  "
            f"p95 {lat['p95']:.1f}  max {lat['max']:.1f}",
            f"  dead-lettered      {len(self.dead_letters)} VMs",
        ]
        for d in sorted(self.dead_letters, key=lambda d: d.vm_id)[:10]:
            lines.append(
                f"    {d.vm_id} (host {d.failed_host}, {d.attempts} attempts)"
            )
        return "\n".join(lines)
