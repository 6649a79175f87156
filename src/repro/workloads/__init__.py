"""Workload models: demand patterns, profiles, and lifetime distributions.

The paper's region mixes two populations (§3, §5.5): memory-intensive,
long-lived SAP S/4HANA systems (ABAP application servers + HANA in-memory
databases) and diverse general-purpose workloads (dev environments, CI/CD,
Kubernetes infrastructure).  This package synthesises per-VM resource demand
time series and lifetimes matching the published characteristics.
"""

from repro.workloads.patterns import (
    Bursty,
    Composite,
    Constant,
    DemandPattern,
    Diurnal,
    Noisy,
    Ramp,
    SpikeTrain,
    Weekly,
)
from repro.workloads.profiles import WorkloadProfile, PROFILES, profile_for_flavor
from repro.workloads.lifetime import LifetimeModel, sample_lifetime
from repro.workloads.demand import DemandModel, VMDemand

__all__ = [
    "DemandPattern",
    "Constant",
    "Diurnal",
    "Weekly",
    "Bursty",
    "Ramp",
    "SpikeTrain",
    "Composite",
    "Noisy",
    "WorkloadProfile",
    "PROFILES",
    "profile_for_flavor",
    "LifetimeModel",
    "sample_lifetime",
    "DemandModel",
    "VMDemand",
]
