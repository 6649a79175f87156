"""Fault-injection scenarios: how the simulated region degrades and recovers.

Runs the same one-day regional workload three ways — happy path, moderate
chaos, heavy chaos — and prints what the fault layer injected and how the
evacuation/retry machinery coped.  The final JSON is the heavy
scenario's FaultReport: it is byte-stable per seed, which
``tests/test_examples_smoke.py`` relies on (same seed ⇒ same sha256).

Usage::

    python examples/fault_scenarios.py [--seed N] [--days D] [--json-only]
"""

from __future__ import annotations

import argparse

from repro.config import ScenarioSpec
from repro.faults import FaultConfig


def scenario(name: str, seed: int, days: float, faults: FaultConfig, json_only: bool):
    result = ScenarioSpec(duration_days=days, seed=seed, faults=faults).run()
    report = result.fault_report
    if not json_only:
        print(f"=== {name} ===")
        print(
            f"created {result.created}, deleted {result.deleted}, "
            f"rejected {result.rejected}, DRS migrations {result.drs_migrations}"
        )
        print(report.render())
        print()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument(
        "--json-only", action="store_true",
        help="print only the heavy scenario's FaultReport JSON (for hashing)",
    )
    args = parser.parse_args()

    scenario(
        "happy path (no faults)", args.seed, args.days,
        FaultConfig(seed=args.seed), args.json_only,
    )
    scenario(
        "moderate chaos", args.seed, args.days,
        FaultConfig(
            seed=args.seed,
            host_failure_rate_per_day=3.0,
            migration_abort_fraction=0.1,
            scrape_gap_probability=0.02,
            stale_node_probability=0.01,
        ),
        args.json_only,
    )
    heavy = scenario(
        "heavy chaos", args.seed, args.days,
        FaultConfig(
            seed=args.seed,
            host_failure_rate_per_day=12.0,
            repair_time_mean_s=6 * 3600.0,
            migration_abort_fraction=0.3,
            scrape_gap_probability=0.05,
            stale_node_probability=0.05,
        ),
        args.json_only,
    )
    print(heavy.canonical_json(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
