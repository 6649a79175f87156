"""Delete or justify: every ``repro`` module is reachable from the CLI.

A static walk of ``import`` statements (function-local ones included)
from ``repro.cli`` must reach every module under ``src/repro``.  A module
it cannot reach is dead weight unless ``UNREACHABLE`` gives a one-line
reason to keep it; a stale entry (module reached or gone) fails too, so
the list only ever names what the walk really misses.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules the CLI never imports, each with the reason it is kept.
UNREACHABLE = {
    "repro.baselines": "package of the placement baselines below",
    "repro.baselines.binpacking": "FFD/BFD baselines for the bin-packing benchmark",
    "repro.baselines.evaluation": "packing metrics the bin-packing benchmark reports",
    "repro.baselines.spread": "spread baseline for the energy and packing benchmarks",
    "repro.forecasting": "package of the forecast-driven placement ablation",
    "repro.forecasting.models": "forecasters for the proactive-placement benchmark",
    "repro.forecasting.proactive": "forecast weigher for the proactive benchmark",
    "repro.migration": "package of the live-migration cost model",
    "repro.migration.planner": "cross-BB migration planner the rebalancer drives",
    "repro.migration.precopy": "pre-copy cost model for the migration-cost benchmark",
    "repro.qos": "package of the QoS, NUMA and CPU-pinning extension",
    "repro.qos.classes": "QoS classes for the QoS benchmark and example",
    "repro.qos.filters": "QoS scheduler filters for the QoS benchmark and example",
    "repro.qos.numa": "NUMA alignment model behind the QoS filters",
    "repro.qos.pinning": "CPU pinning model behind the QoS filters",
    "repro.rebalancer": "package of the cross-BB rebalancing loop",
    "repro.rebalancer.driver": "two-layer rebalancer of examples/rebalancing.py",
    "repro.scheduler.server_groups": "server-group filters, tested, not wired in yet",
}


def _modules() -> dict[str, Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imported_names(module: str, path: Path):
    """Every dotted name an import statement in ``path`` may load."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: anchor at the importing package
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            # ``from pkg import name`` loads pkg.name when it is a module.
            yield from (f"{base}.{alias.name}" for alias in node.names)


def reachable_from(root: str, modules: dict[str, Path]) -> set[str]:
    """Modules loaded, transitively, by importing ``root``."""
    seen: set[str] = set()
    todo = [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imported_names(name, modules[name]))
    return seen


def test_every_module_is_reachable_or_justified():
    modules = _modules()
    unreachable = set(modules) - reachable_from("repro.cli", modules)
    unjustified = sorted(unreachable - set(UNREACHABLE))
    assert not unjustified, (
        "modules no import from repro.cli reaches: delete them, import them, "
        f"or give UNREACHABLE a reason: {unjustified}"
    )


def test_allowlist_names_only_unreachable_modules():
    modules = _modules()
    reached = reachable_from("repro.cli", modules)
    stale = sorted(m for m in UNREACHABLE if m not in modules or m in reached)
    assert not stale, f"drop these UNREACHABLE entries: {stale}"


def test_walk_follows_function_local_imports():
    runner = "repro.simulation.runner"
    # The runner imports the holistic scheduler inside __init__ only.
    assert "repro.core.advanced_placement" in set(
        _imported_names(runner, _modules()[runner])
    )
