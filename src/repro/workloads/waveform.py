"""Per-VM demand as parameter columns, evaluated for every VM at once.

:class:`CompiledDemand` keeps one row per VM -- written on create or
resize, freed on delete -- and evaluates all rows at ``t`` in one numpy
pass per pattern shape, bit-identical to each row's
``VMDemand.evaluate(np.asarray([t]))``.  Rows whose CPU (or memory)
patterns share a :meth:`~repro.workloads.patterns.DemandPattern.flatten`
shape share parameter columns, so every pattern built from
:mod:`repro.workloads.patterns` has a layout; the built-in profiles make
a handful of shapes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.workloads import patterns as pat
from repro.workloads.demand import VMDemand


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` with zero columns appended up to ``size``."""
    out = np.zeros((array.shape[0], size), dtype=array.dtype)
    out[:, : array.shape[1]] = array
    return out


class _Group:
    """Parameter columns, indexed by row, of the patterns of one shape."""

    def __init__(self, shape: tuple, n_floats: int, n_seeds: int) -> None:
        self.shape = shape
        self.floats = np.zeros((n_floats, 0))
        self.seeds = np.zeros((n_seeds, 0), dtype=np.uint64)
        self.members: dict[int, None] = {}
        self._index: np.ndarray | None = None

    def write(self, row: int, floats: tuple, seeds: tuple) -> None:
        if row >= self.floats.shape[1]:
            size = max(2 * self.floats.shape[1], row + 1)
            self.floats, self.seeds = _grown(self.floats, size), _grown(self.seeds, size)
        self.floats[:, row] = floats
        self.seeds[:, row] = seeds
        self.members[row] = None
        self._index = None

    def drop(self, row: int) -> None:
        if row in self.members:
            del self.members[row]
            self._index = None

    def evaluate(self, ts: np.ndarray, out: np.ndarray) -> None:
        """Write every member row's value at ``ts`` into ``out``."""
        if not self.members:
            return
        index = self._index
        if index is None:
            index = self._index = np.fromiter(self.members, dtype=np.intp)
        out[index] = pat.evaluate(
            self.shape, ts, self.floats[:, index], self.seeds[:, index]
        )


class DemandColumns(NamedTuple):
    """Every row's absolute demand at one timestamp (free rows are zero)."""

    cpu_cores: np.ndarray
    memory_mb: np.ndarray
    network_tx_kbps: np.ndarray
    network_rx_kbps: np.ndarray
    disk_gb: np.ndarray


class CompiledDemand:
    """The demand parameter columns of one simulation's VMs.

    Also the registry of their :class:`VMDemand` objects: :meth:`get`
    returns a VM's demand, :meth:`set` writes (or rewrites) its row,
    :meth:`discard` frees it for reuse.  ``rows`` maps vm_id to row.
    """

    def __init__(self, capacity: int = 64) -> None:
        self._demands: dict[str, VMDemand] = {}
        self.rows: dict[str, int] = {}
        self._free: list[int] = []
        self._version = 0
        self._cached: tuple[float, int, DemandColumns] | None = None
        self._capacity = 0
        #: vcpus, ram_mb, network rate and disk_gb of each row.
        self._scale = np.zeros((4, 0))
        #: CPU and memory pattern groups, by shape.
        self._groups: tuple[dict[tuple, _Group], ...] = ({}, {})
        self._grow(capacity)

    def _grow(self, capacity: int) -> None:
        self._scale = _grown(self._scale, capacity)
        self._free.extend(range(capacity - 1, self._capacity - 1, -1))
        self._capacity = capacity

    def get(self, vm_id: str) -> VMDemand | None:
        return self._demands.get(vm_id)

    def set(self, vm_id: str, demand: VMDemand) -> None:
        """Register ``demand`` for ``vm_id`` and write its row."""
        flat = (pat.flatten(demand.cpu_pattern), pat.flatten(demand.mem_pattern))
        row = self.rows.get(vm_id)
        if row is None:
            if not self._free:
                self._grow(2 * self._capacity)
            row = self.rows[vm_id] = self._free.pop()
        else:
            self._release(row)
        for groups, (shape, floats, seeds) in zip(self._groups, flat):
            group = groups.get(shape)
            if group is None:
                group = groups[shape] = _Group(shape, len(floats), len(seeds))
            group.write(row, floats, seeds)
        flavor = demand.flavor
        self._scale[:, row] = (
            flavor.vcpus,
            flavor.ram_mb,
            # Same association order as VMDemand.evaluate's product.
            demand.network_activity
            * demand.profile.network_kbps_per_vcpu
            * flavor.vcpus,
            demand.disk_used_fraction * flavor.disk_gb,
        )
        self._demands[vm_id] = demand
        self._version += 1

    def _release(self, row: int) -> None:
        for groups in self._groups:
            for group in groups.values():
                group.drop(row)

    def discard(self, vm_id: str) -> None:
        """Forget ``vm_id``'s demand; its row is reused by a later :meth:`set`."""
        if self._demands.pop(vm_id, None) is not None:
            row = self.rows.pop(vm_id)
            self._release(row)
            self._free.append(row)

    def evaluate(self, t: float) -> DemandColumns:
        """Every row's demand at ``t``, in one pass per pattern shape."""
        ts = np.asarray([t], dtype=float)
        ratios = np.zeros((2, self._capacity))
        for groups, out in zip(self._groups, ratios):
            for group in groups.values():
                group.evaluate(ts, out)
        cpu, mem = np.clip(ratios, 0.0, 1.0)
        vcpus, ram_mb, net_rate, disk_gb = self._scale
        net = net_rate * cpu
        return DemandColumns(cpu * vcpus, mem * ram_mb, net, net * 0.8, disk_gb.copy())

    def at(self, t: float) -> DemandColumns:
        """:meth:`evaluate` at ``t``, reused until ``t`` or a row changes."""
        cached = self._cached
        if cached is None or cached[0] != t or cached[1] != self._version:
            cached = self._cached = (t, self._version, self.evaluate(t))
        return cached[2]
