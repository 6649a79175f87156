"""Outside-in tracing: wrap callables, count calls, time spans, restore.

The benchmark never edits the program it measures.  A :class:`Tracer`
replaces attributes on classes, instances or modules with thin wrappers
that count calls and time them, and :meth:`Tracer.restore` puts every
original back.  Spans and counts stay in memory; the caller turns them
into metrics when a run ends.

Busy time is kept per *group* (one layer) and charged only at the
group's outermost active call, so a re-entrant layer such as
``aggregate_across`` calling ``select`` is not counted twice.  A span
that starts while no other traced span is active is *top-level*; the sum
of top-level spans against the run's wall time is the time no layer
accounts for.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

_MISSING = object()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Counts and busy time for wrapped entry points, with clean removal."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.top_busy = 0.0
        self._depth: dict[str, int] = defaultdict(int)
        self._active = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def outermost(self, group: str) -> bool:
        """True when no call of ``group`` is in progress."""
        return self._depth[group] == 0

    def _enter(self, group: str) -> tuple[bool, bool, float]:
        outer = self._depth[group] == 0
        top = self._active == 0
        self._depth[group] += 1
        self._active += 1
        return outer, top, perf_counter()

    def _exit(
        self, group: str, outer: bool, top: bool, t0: float, latency: str | None
    ) -> None:
        dt = perf_counter() - t0
        self._depth[group] -= 1
        self._active -= 1
        if outer:
            self.busy[group] += dt
        if top:
            self.top_busy += dt
        if latency is not None:
            self.latencies[latency].append(dt)

    def call(
        self, group: str, fn: Callable, *args: Any, latency: str | None = None
    ) -> Any:
        """Run ``fn(*args)`` as one span of ``group``."""
        outer, top, t0 = self._enter(group)
        try:
            return fn(*args)
        finally:
            self._exit(group, outer, top, t0, latency)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` by ``make(original)``; undone by restore()."""
        saved = vars(owner).get(name, _MISSING)
        setattr(owner, name, make(getattr(owner, name)))
        self._patches.append((owner, name, saved))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)

    def wrap(
        self,
        owner: Any,
        name: str,
        group: str,
        *,
        count: str | None = None,
        latency: str | None = None,
        on_return: Callable[[tuple, dict, Any, bool], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
        adapt: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> None:
        """Time every call of ``owner.name`` as a span of ``group``.

        ``count`` names a counter bumped per call, ``latency`` a list that
        receives each call's duration.  ``on_return(args, kwargs, result,
        outermost)`` and ``on_error(exc)`` observe outcomes; ``adapt`` may
        rewrap arguments (for instance to count calls of a callback).
        """

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if count is not None:
                    self.counts[count] += 1
                if adapt is not None:
                    args, kwargs = adapt(args, kwargs)
                outer, top, t0 = self._enter(group)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    self._exit(group, outer, top, t0, latency)
                    if on_error is not None:
                        on_error(exc)
                    raise
                self._exit(group, outer, top, t0, latency)
                if on_return is not None:
                    on_return(args, kwargs, result, outer)
                return result

            return wrapper

        self.patch(owner, name, make)

    def wrap_generator(
        self, owner: Any, name: str, group: str, *, calls: str, items: str
    ) -> None:
        """Like :meth:`wrap` for a generator function: time each step.

        ``calls`` counts outermost calls of the group, ``items`` every
        item the generator yields.
        """

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if self.outermost(group):
                    self.counts[calls] += 1
                return self._steps(group, items, original(*args, **kwargs))

            return wrapper

        self.patch(owner, name, make)

    def _steps(self, group: str, items: str, gen: Any) -> Any:
        while True:
            outer, top, t0 = self._enter(group)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(group, outer, top, t0, None)
            self.counts[items] += 1
            yield item

    def counting(self, counter: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that only bumps ``counter`` per call."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted
