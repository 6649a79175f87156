"""Workload characterisation: utilisation classes, size tables, lifetimes.

Implements the §5.5 analyses: the under/optimal/over utilisation thresholds
(<70%, 70–85%, >85% — derived from VMware best-practice guidance), the
Table 1/2 VM size classifications, and the per-flavor lifetime statistics of
Fig 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import SAPCloudDataset
from repro.frame import Frame
from repro.infrastructure.flavors import classify_ram, classify_vcpus

#: (underutilized_below, overutilized_above) utilisation ratio thresholds.
UTILIZATION_THRESHOLDS = (0.70, 0.85)


def classify_utilization(ratio: float) -> str:
    """Classify one average utilisation ratio per the paper's thresholds."""
    low, high = UTILIZATION_THRESHOLDS
    if ratio < low:
        return "underutilized"
    if ratio <= high:
        return "optimal"
    return "overutilized"


@dataclass(frozen=True)
class UtilizationBreakdown:
    """Population shares of the three utilisation classes for one resource."""

    resource: str
    underutilized: float
    optimal: float
    overutilized: float
    vm_count: int


def utilization_breakdown(
    dataset: SAPCloudDataset, resource: str = "cpu"
) -> UtilizationBreakdown:
    """Fractions of VMs in each utilisation class (Fig 14 headline numbers).

    ``resource`` is ``"cpu"`` or ``"memory"``, reading the lifetime-average
    ratios of the VM inventory.
    """
    column = {"cpu": "cpu_avg_ratio", "memory": "mem_avg_ratio"}.get(resource)
    if column is None:
        raise ValueError("resource must be 'cpu' or 'memory'")
    ratios = np.asarray(dataset.vms[column], dtype=float)
    n = len(ratios)
    if n == 0:
        raise ValueError("dataset has no VMs")
    low, high = UTILIZATION_THRESHOLDS
    return UtilizationBreakdown(
        resource=resource,
        underutilized=float(np.mean(ratios < low)),
        optimal=float(np.mean((ratios >= low) & (ratios <= high))),
        overutilized=float(np.mean(ratios > high)),
        vm_count=n,
    )


def vm_size_tables(dataset: SAPCloudDataset) -> tuple[Frame, Frame]:
    """Tables 1 and 2: VM counts per vCPU class and per RAM class."""
    vcpus = np.asarray(dataset.vms["vcpus"], dtype=float)
    ram = np.asarray(dataset.vms["ram_gib"], dtype=float)
    order = ["small", "medium", "large", "xlarge"]

    def count_table(classes: list[str], bounds_label: dict[str, str]) -> Frame:
        counts = {c: 0 for c in order}
        for c in classes:
            counts[c] += 1
        return Frame(
            {
                "category": np.asarray(order, dtype=object),
                "bounds": np.asarray([bounds_label[c] for c in order], dtype=object),
                "vm_count": np.asarray([counts[c] for c in order]),
            }
        )

    table1 = count_table(
        [classify_vcpus(v) for v in vcpus],
        {
            "small": "<= 4",
            "medium": "4 < vCPU <= 16",
            "large": "16 < vCPU <= 64",
            "xlarge": "> 64",
        },
    )
    table2 = count_table(
        [classify_ram(r) for r in ram],
        {
            "small": "<= 2",
            "medium": "2 < RAM <= 64",
            "large": "64 < RAM <= 128",
            "xlarge": "> 128",
        },
    )
    return table1, table2


def lifetime_by_flavor(dataset: SAPCloudDataset, min_instances: int = 30) -> Frame:
    """Fig 15: per-flavor lifetime statistics.

    Restricts to flavors with at least ``min_instances`` observed VMs, as
    the paper does "to avoid congestion".  Lifetimes are the retrospective
    values recorded in the inventory (seconds).
    """
    grouped = dataset.vms.groupby("flavor").agg(
        vm_count="lifetime_seconds:count",
        mean_lifetime_s="lifetime_seconds:mean",
        median_lifetime_s="lifetime_seconds:median",
        min_lifetime_s="lifetime_seconds:min",
        max_lifetime_s="lifetime_seconds:max",
        vcpu_class="vcpu_class:first",
        ram_class="ram_class:first",
    )
    mask = np.asarray(grouped["vm_count"], dtype=float) >= min_instances
    return grouped.filter(mask).sort("mean_lifetime_s", reverse=True)


def lifetime_size_correlation(dataset: SAPCloudDataset) -> float:
    """Pearson correlation between VM size (vCPUs) and lifetime.

    The paper finds "conclusions from VM size to lifetime are limited";
    the generated data keeps this correlation weak.
    """
    vcpus = np.asarray(dataset.vms["vcpus"], dtype=float)
    lifetimes = np.asarray(dataset.vms["lifetime_seconds"], dtype=float)
    if len(vcpus) < 2:
        return 0.0
    # Work in log-lifetime: the raw scale spans minutes to years.
    ll = np.log(np.maximum(lifetimes, 1.0))
    if np.std(vcpus) == 0 or np.std(ll) == 0:
        return 0.0
    return float(np.corrcoef(vcpus, ll)[0, 1])
