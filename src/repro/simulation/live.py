"""The live-VM registry a resize draws its victim from.

A resize picks "the k-th live VM in creation order" with ``k`` drawn
uniformly.  The registry answers that in O(log n) instead of filtering
every VM ever created: a Fenwick tree over creation positions holds 1
for a VM resident on a node and 0 otherwise.  It listens to node events,
so a VM drops out while it is off every node — deleted, or stranded in
ERROR after a host failure — and an evacuated VM comes back at its
original position.  Between events a VM is resident exactly when it is
alive, so the draw matches a scan for ``vm.alive`` over the simulation's
VM dict.
"""

from __future__ import annotations

from repro.infrastructure.hierarchy import ComputeNode
from repro.infrastructure.vm import VM


class LiveVMs:
    """Resident VMs in creation order with O(log n) k-th lookup."""

    def __init__(self) -> None:
        #: Fenwick sums, 1-based: ``_tree[i]`` covers positions
        #: ``(i - lowbit(i), i]``.
        self._tree: list[int] = [0]
        #: position -> VM (1-based; slot 0 unused).
        self._vms: list[VM | None] = [None]
        self._pos: dict[str, int] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def on_node_event(self, event: str, node: ComputeNode, vm: VM | None) -> None:
        """Node listener: residency changes toggle a VM's weight."""
        if event == "add":
            pos = self._pos.get(vm.vm_id)
            if pos is None:
                pos = self._append(vm)
            self._update(pos, 1)
        elif event == "remove":
            self._update(self._pos[vm.vm_id], -1)

    def forget(self, vm_id: str) -> None:
        """Drop a deleted VM's position mapping (its weight is already 0)."""
        del self._pos[vm_id]

    def pick(self, k: int) -> VM:
        """The ``k``-th (0-based) resident VM in creation order."""
        tree = self._tree
        size = len(tree)
        pos = 0
        step = 1 << (size - 1).bit_length()
        while step:
            nxt = pos + step
            if nxt < size and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return self._vms[pos + 1]

    def _append(self, vm: VM) -> int:
        tree = self._tree
        pos = len(tree)
        # A new slot starts at weight 0, so its node holds the sum of the
        # earlier positions it covers: (pos - lowbit(pos), pos - 1].
        low = pos - (pos & -pos)
        total = 0
        i = pos - 1
        while i > low:
            total += tree[i]
            i -= i & -i
        tree.append(total)
        self._vms.append(vm)
        self._pos[vm.vm_id] = pos
        return pos

    def _update(self, pos: int, delta: int) -> None:
        tree = self._tree
        size = len(tree)
        while pos < size:
            tree[pos] += delta
            pos += pos & -pos
        self._count += delta
