"""The repository benchmark: one workload per process, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload region-steady --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced cycles; ``--trace
1`` runs one untraced cycle, traced cycles, then another untraced cycle,
and reports per-layer metrics plus the tracing overhead.  Both print one
``perfbench {...}`` line with the digest and deterministic counters, then,
as the last line, the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

#: Subprocess import probes per run; with the in-process import they give
#: three set-up samples whose median is reported.
IMPORT_PROBES = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_days_per_hour": "day/h",
}

_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t0)\n"
)


def import_program(modules: tuple[str, ...]) -> float:
    """Import ``repro`` from this checkout's sources; returns seconds taken."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    for name in modules:
        importlib.import_module(name)
    elapsed = perf_counter() - t0
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return elapsed


def probe_import(modules: tuple[str, ...]) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), *modules],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def run_cycle(workload, inputs, tracer, workdir: Path):
    """One cycle; an exception is recorded as a failed operation."""
    from workloads import Cycle

    gc.collect()
    try:
        return workload.cycle(inputs, tracer, workdir)
    except Exception:
        traceback.print_exc()
        cycle = Cycle()
        cycle.unit(["cycle raised; traceback on stderr"])
        return cycle


def cross_check(tracer, cycle) -> list[str]:
    """Counts taken from outside must equal the program's own tallies."""
    counts, tallies = tracer.counts, cycle.tallies
    events = sum(v for k, v in counts.items() if k.startswith("simulation.events."))
    pairs = [("telemetry.samples_appended", counts["telemetry.samples_appended"], "samples")]
    if "events" in tallies:
        pairs += [
            ("scheduler.requests", counts["scheduler.requests"], "requests"),
            ("simulation.events", events, "events"),
            ("drs.migrations", counts["drs.migrations"], "drs_migrations"),
        ]
    if "journal_records" in tallies:
        pairs.append(
            ("recovery.journal_records", counts["recovery.journal_records"], "journal_records")
        )
    return [
        f"outside count {name}={seen} != program tally {key}={tallies.get(key)}"
        for name, seen, key in pairs
        if seen != tallies.get(key)
    ]


class Run:
    """Collects cycles, determinism and failures for one benchmark run."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.deadline = perf_counter() + seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def record(self, cycle) -> None:
        self.attempted += cycle.attempted
        self.failed += cycle.failed
        self.problems.extend(cycle.problems)
        if cycle.failed or not cycle.digests:
            return
        if self.digest is None:
            self.digest = cycle.digest
        elif cycle.digest != self.digest:
            self.attempted += 1
            self.failed += 1
            self.problems.append("digest differs between cycles of one seed")

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.attempted += 1
            self.failed += 1
            self.problems.extend(problems)

    def timed_cycle(self, tracer=None):
        t0 = perf_counter()
        cycle = run_cycle(self.workload, self.inputs, tracer, self.workdir)
        self.record(cycle)
        return cycle, perf_counter() - t0

    def time_left(self, cost: float) -> bool:
        return perf_counter() + cost <= self.deadline


def untraced(run: Run) -> tuple[dict, dict]:
    cycles, cost = [], 0.0
    while True:
        cycle, took = run.timed_cycle()
        cycles.append(cycle)
        cost = max(cost, took)
        if cycle.failed or not run.time_left(cost):
            break
    wall = statistics.median(c.wall_s for c in cycles)
    metrics = {
        "wall_s": wall,
        "build_s": statistics.median(c.build_s for c in cycles),
        "sim_days_per_hour": run.workload.sim_days / (wall / 3600.0) if wall > 0 else 0.0,
    }
    info = workload_figures(cycles)
    info["cycles"] = len(cycles)
    info["wall_s_per_cycle"] = [round(c.wall_s, 4) for c in cycles]
    info["program_counters"] = cycles[0].tallies
    return metrics, info


def workload_figures(cycles) -> dict:
    """Workload-specific end-to-end figures (medians over cycles)."""
    out: dict = {}
    first = cycles[0].tallies
    if "requests" in first:
        out["requests_per_s"] = statistics.median(
            c.tallies["requests"] / c.wall_s for c in cycles if c.wall_s > 0
        )
    for phase in cycles[0].phases:
        out[phase] = statistics.median(c.phases[phase] for c in cycles)
    if "calibration_checked" in first:
        out["calibration_pass_ratio"] = (
            first["calibration_passed"] / first["calibration_checked"]
        )
    return out


def traced(run: Run) -> tuple[dict, dict]:
    from layers import install_class_hooks, layer_metrics
    from tracing import Tracer

    base = []
    cycle, untraced_cost = run.timed_cycle()
    base.append(cycle)
    runs, cost = [], 0.0
    while True:
        tracer = Tracer()
        install_class_hooks(tracer)
        t0 = perf_counter()
        try:
            cycle = run_cycle(run.workload, run.inputs, tracer, run.workdir)
        finally:
            tracer.restore()
        cost = max(cost, perf_counter() - t0)
        run.record(cycle)
        if not cycle.failed:
            run.fail(cross_check(tracer, cycle))
        runs.append((tracer, cycle))
        if cycle.failed or not run.time_left(cost + untraced_cost):
            break
    frozen = [dict(t.counts) for t, _ in runs]
    cycle, _ = run.timed_cycle()
    base.append(cycle)
    if any(dict(t.counts) != f for (t, _), f in zip(runs, frozen)):
        run.fail(["a wrapper survived restore: counts moved in an untraced cycle"])
    if any(f != frozen[0] for f in frozen):
        run.fail(["outside counters differ between traced cycles of one seed"])

    untraced_wall = statistics.median(c.wall_s for c in base)
    figures = workload_figures(base)
    per_cycle = [
        layer_metrics(tracer, cycle.wall_s, {**figures, **cycle.tallies})
        for tracer, cycle in runs
    ]
    metrics = {
        name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]
    }
    traced_wall = statistics.median(c.wall_s for _, c in runs)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    tracer = runs[0][0]
    info = {
        "cycles": {"untraced": len(base), "traced": len(runs)},
        "program_counters": runs[0][1].tallies,
        "outside_counters": dict(sorted(tracer.counts.items())),
        "latency_samples": {k: len(v) for k, v in sorted(tracer.latencies.items())},
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    try:
        import_samples = [import_program(workload.imports)]
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_samples += [probe_import(workload.imports) for _ in range(IMPORT_PROBES)]

    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, args.seconds, workdir)
    try:
        if args.trace:
            metrics, info = traced(run)
        else:
            measured, info = untraced(run)
            metrics = {
                "wall_s": measured["wall_s"],
                "setup_s": statistics.median(import_samples) + measured["build_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "sim_days_per_hour": measured["sim_days_per_hour"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        from layers import LAYER_METRICS as units
    else:
        units = END_TO_END
    info.update(
        workload=workload.name,
        seed=seed,
        heldout_seed=workload.heldout_seed,
        digest=run.digest,
        problems=run.problems[:20],
    )
    if not args.trace:
        info["import_s_samples"] = [round(s, 4) for s in import_samples]
    print("perfbench " + json.dumps(info, sort_keys=True, default=float))
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
