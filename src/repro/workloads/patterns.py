"""Temporal demand patterns.

A :class:`DemandPattern` maps an array of epoch-second timestamps to a
utilisation fraction in [0, 1].  Patterns compose multiplicatively or
additively to build realistic shapes: business-hours diurnal cycles with a
weekday/weekend effect (visible in the paper's Fig 8 ready-time series),
CI/CD burstiness, slow ramps (the paper observes nodes with consistently
increasing CPU demand, §5.1), and spike trains.

Every pattern is a pure function of time: :class:`Bursty` and
:class:`Noisy` hash (key, stream, t) with splitmix64 instead of drawing
from a generator, and ramps carry an explicit ``origin``.  Patterns are
frozen dataclasses compared by identity.  :meth:`DemandPattern.flatten`
splits one into a hashable shape and its parameters; :func:`evaluate`
computes many same-shape patterns from parameter columns, and a pattern's
own call is that with one value per parameter, so
:mod:`repro.workloads.waveform`'s population pass and one pattern on its
own agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: One burst slot: the paper's 15-minute telemetry resolution.  A bursty
#: pattern's ``correlation`` is its run length in slots.
BURST_SLOT_S = 900.0

#: Hash streams: one key feeds independent CPU noise, memory noise and
#: burst draws.
CPU_NOISE, MEM_NOISE, BURSTS = 1, 2, 3

_G, _M1, _M2, _S30, _S27, _S31 = (
    np.uint64(c)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31)
)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 on a uint64 array (array arithmetic wraps silently)."""
    z = x + _G
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


@functools.cache
def _stream_mix(stream: int) -> np.ndarray:
    return _mix(np.asarray([stream], dtype=np.uint64))


def stream_key(key: int, stream: int) -> int:
    """The hash seed of ``key``'s ``stream``: a 64-bit int."""
    return int(_mix(np.uint64(key) ^ _stream_mix(stream))[0])


def _hash(skey, values: np.ndarray) -> np.ndarray:
    """Hash stream seed(s) ``skey`` with the float64 bits of ``values``."""
    return _mix(skey ^ np.ascontiguousarray(values, dtype=np.float64).view(np.uint64))


@functools.cache
def _normal_table() -> np.ndarray:
    """2**16 standard-normal quantiles at cell midpoints: an exact,
    seed-free discretisation, gathered by the top 16 bits of a hash."""
    import statistics  # lazily: needed once, and slow to import

    half = 1 << 15
    dist = statistics.NormalDist()
    upper = np.asarray(
        [dist.inv_cdf(0.5 + (i + 0.5) / (2 * half)) for i in range(half)]
    )
    table = np.concatenate([-upper[::-1], upper])
    table.setflags(write=False)  # shared by every caller
    return table


def normal(skey, ts: np.ndarray) -> np.ndarray:
    """Standard normals hashed from stream seed(s) ``skey`` and ``ts``."""
    return _normal_table()[_hash(skey, ts) >> np.uint64(48)]


def evaluate(shape: tuple, ts: np.ndarray, floats, seeds) -> np.ndarray:
    """Patterns of one ``shape`` at ``ts``: row i of ``floats`` (float64)
    and ``seeds`` (uint64) holds every pattern's i-th parameter; nested
    shapes consume the rows in order."""
    cls, detail = shape
    return cls.columns(detail, ts, iter(floats), iter(seeds))


class DemandPattern:
    """A demand pattern: timestamps (epoch seconds) -> utilisation fraction.

    ``flatten()`` gives (shape, floats, seeds): the hashable structure
    (classes and modes) and the float parameters and hash seeds in tree
    order.
    """

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        shape, floats, seeds = self.flatten()
        return evaluate(
            shape,
            np.asarray(ts, dtype=float),
            np.asarray(floats, dtype=float),
            np.asarray(seeds, dtype=np.uint64),
        )


def flatten(pattern) -> tuple:
    """``pattern.flatten()``, or TypeError if it is no :class:`DemandPattern`."""
    if not isinstance(pattern, DemandPattern):
        raise TypeError(f"not a DemandPattern: {pattern!r}")
    return pattern.flatten()


class _Kernel(DemandPattern):
    """A leaf pattern whose value is ``kernel(ts, *floats, *seeds)``."""

    def params(self) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Float parameters (the fields, by default) and hash seeds."""
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self)), ()

    def flatten(self) -> tuple:
        floats, seeds = self.params()
        return (type(self), (len(floats), len(seeds))), floats, seeds

    @classmethod
    def columns(cls, counts, ts, floats, seeds):
        n_floats, n_seeds = counts
        return cls.kernel(ts, *islice(floats, n_floats), *islice(seeds, n_seeds))


@dataclass(frozen=True, eq=False)
class Constant(_Kernel):
    """A flat utilisation level."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.5:
            raise ValueError("level must be within [0, 1.5]")

    @staticmethod
    def kernel(ts, level):
        return np.zeros_like(ts) + level


@dataclass(frozen=True, eq=False)
class Diurnal(_Kernel):
    """Business-hours bell curve on top of a base load.

    ``peak_hour`` is the UTC hour of maximum demand; ``width_hours`` the
    Gaussian standard deviation of the bump.
    """

    base: float
    peak: float
    peak_hour: float = 13.0
    width_hours: float = 4.0

    def __post_init__(self) -> None:
        if self.peak < self.base:
            raise ValueError("peak must be >= base")

    @staticmethod
    def kernel(ts, base, peak, peak_hour, width_hours):
        hour = (ts % SECONDS_PER_DAY) / 3600.0
        # Wrap-around distance to the peak hour.
        dist = np.minimum(np.abs(hour - peak_hour), 24.0 - np.abs(hour - peak_hour))
        bump = np.exp(-0.5 * (dist / width_hours) ** 2)
        return base + (peak - base) * bump


@dataclass(frozen=True, eq=False)
class Weekly(_Kernel):
    """Multiplicative weekday/weekend factor.

    Epoch day 0 (1970-01-01) was a Thursday; weekday indices follow that.
    """

    weekday_scale: float = 1.0
    weekend_scale: float = 0.6

    @staticmethod
    def kernel(ts, weekday_scale, weekend_scale):
        day_index = (np.floor(ts / SECONDS_PER_DAY).astype(int) + 3) % 7  # 0 = Monday
        return np.where(day_index >= 5, weekend_scale, weekday_scale)


@dataclass(frozen=True, eq=False)
class Ramp(_Kernel):
    """Linear drift from ``start_level`` to ``end_level`` over ``duration`` s.

    Progress is measured from ``origin`` (epoch seconds): demand holds at
    ``start_level`` before it and at ``end_level`` after the ramp.
    """

    start_level: float
    end_level: float
    duration: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @staticmethod
    def kernel(ts, start_level, end_level, duration, origin):
        progress = np.clip((ts - origin) / duration, 0.0, 1.0)
        return start_level + (end_level - start_level) * progress


@dataclass(frozen=True, eq=False)
class Bursty(_Kernel):
    """Random bursts (CI/CD-like): runs of elevated demand.

    Time is cut into runs of ``correlation`` 15-minute slots; each run is
    a burst with ``burst_probability``, decided by a hash of ``key`` and
    the run's index, so bursts last several sampling intervals.
    """

    base: float
    burst_level: float
    burst_probability: float
    key: int
    correlation: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be within [0, 1]")

    def params(self) -> tuple[tuple[float, ...], tuple[int, ...]]:
        run_s = max(1, self.correlation) * BURST_SLOT_S
        floats = (self.base, self.burst_level, self.burst_probability, run_s)
        return floats, (stream_key(self.key, BURSTS),)

    @staticmethod
    def kernel(ts, base, burst_level, burst_probability, run_s, skey):
        u = (_hash(skey, np.floor(ts / run_s)) >> np.uint64(11)) * (2.0**-53)
        return np.where(u < burst_probability, burst_level, base)


@dataclass(frozen=True, eq=False)
class SpikeTrain(_Kernel):
    """Periodic spikes (batch jobs, backups) of ``spike_width`` seconds."""

    base: float
    spike_level: float
    period: float
    spike_width: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0 or self.spike_width <= 0:
            raise ValueError("period and spike_width must be positive")

    @staticmethod
    def kernel(ts, base, spike_level, period, spike_width, phase):
        return np.where(((ts + phase) % period) < spike_width, spike_level, base)


_COMBINE = {"max": np.maximum, "sum": np.add, "product": np.multiply}


@dataclass(frozen=True, eq=False)
class Composite(DemandPattern):
    """Combine patterns: ``max``, ``sum`` (clipped to 1), or ``product``."""

    patterns: Sequence[DemandPattern]
    mode: str = "max"

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("need at least one pattern")
        if self.mode not in _COMBINE:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "patterns", tuple(self.patterns))

    def flatten(self) -> tuple:
        parts = [flatten(p) for p in self.patterns]
        return (
            (Composite, (self.mode, tuple(shape for shape, _, _ in parts))),
            tuple(f for _, floats, _ in parts for f in floats),
            tuple(k for _, _, seeds in parts for k in seeds),
        )

    @classmethod
    def columns(cls, detail, ts, floats, seeds):
        mode, shapes = detail
        combine = _COMBINE[mode]
        value = evaluate(shapes[0], ts, floats, seeds)
        for shape in shapes[1:]:
            value = combine(value, evaluate(shape, ts, floats, seeds))
        return np.clip(value, 0.0, 1.0) if mode == "sum" else value


@dataclass(frozen=True, eq=False)
class Noisy(DemandPattern):
    """Clipped Gaussian noise, hashed from (key, stream, t), on a pattern."""

    pattern: DemandPattern
    sigma: float
    key: int
    stream: int = CPU_NOISE

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def flatten(self) -> tuple:
        shape, floats, seeds = flatten(self.pattern)
        return (
            (Noisy, shape),
            (*floats, self.sigma),
            (*seeds, stream_key(self.key, self.stream)),
        )

    @classmethod
    def columns(cls, inner, ts, floats, seeds):
        values = evaluate(inner, ts, floats, seeds)
        sigma, skey = next(floats), next(seeds)
        return np.clip(values + sigma * normal(skey, ts), 0.0, 1.0)


def anchored(pattern: DemandPattern, origin: float) -> DemandPattern:
    """``pattern`` with every ramp inside it measured from ``origin``
    (``pattern`` itself when it holds no ramp)."""
    if isinstance(pattern, Ramp):
        return dataclasses.replace(pattern, origin=origin)
    if isinstance(pattern, Noisy):
        inner = anchored(pattern.pattern, origin)
        if inner is not pattern.pattern:
            return dataclasses.replace(pattern, pattern=inner)
    if isinstance(pattern, Composite):
        parts = tuple(anchored(p, origin) for p in pattern.patterns)
        if any(a is not b for a, b in zip(parts, pattern.patterns)):
            return dataclasses.replace(pattern, patterns=parts)
    return pattern
