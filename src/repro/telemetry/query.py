"""A small PromQL-flavoured query language over the metric store.

The paper's pipeline is queried with PromQL in production; this module
provides the subset the analyses need so ad-hoc exploration doesn't require
Python code:

- ``metric_name`` — every series of that metric;
- ``metric_name{label="value", other="v"}`` — label-matched series;
- ``agg(expr)`` with ``agg`` ∈ mean/max/min/sum/p95/count — cross-series
  aggregation at each timestamp;
- ``expr[start, end]`` — half-open time-range restriction (epoch seconds);
- ``agg_over_time(expr, window, agg)`` — per-series resampling.

Examples::

    mean(vrops_hostsystem_cpu_contention_percentage)
    vrops_hostsystem_cpu_ready_milliseconds{hostsystem="node-07"}
    max(vrops_hostsystem_memory_usage_percentage{datacenter="dc-a"})[0, 86400]

This module is also the single *programmatic* query surface: the
:func:`query`, :func:`query_range` and :func:`instant` helpers delegate to
the store.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.telemetry.store import Labels, MetricStore
from repro.telemetry.timeseries import TimeSeries

AGGREGATIONS = ("mean", "max", "min", "sum", "p95", "count")


def query(
    store: MetricStore, metric: str, labels: dict[str, str] | Labels | None = None
) -> TimeSeries:
    """The exact series for (metric, labels); empty if absent."""
    return store.query(metric, labels)


def query_range(
    store: MetricStore,
    metric: str,
    labels: dict[str, str] | Labels | None,
    start: float,
    end: float,
) -> TimeSeries:
    """Samples of one series within [start, end).

    The canonical range read: delegates to the store's cached
    :meth:`~repro.telemetry.store.MetricStore.window`.
    """
    return store.window(metric, labels, start, end)


def instant(
    store: MetricStore,
    metric: str,
    labels: dict[str, str] | Labels | None,
    at: float,
) -> float | None:
    """The most recent non-stale value at or before ``at`` (PromQL instant)."""
    return store.query(metric, labels).at_or_before(at)

_TOKEN_RE = re.compile(
    r"""
    (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<string>"[^"]*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<punct>[{}()\[\],=])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


class QueryError(ValueError):
    """The query text is malformed."""


@dataclass(frozen=True)
class QueryResult:
    """Evaluation output: either one aggregated series or many raw ones."""

    series: list[tuple[dict[str, str], TimeSeries]]
    aggregated: bool

    def single(self) -> TimeSeries:
        """The sole series (aggregated queries, or one matched series)."""
        if len(self.series) != 1:
            raise QueryError(
                f"expected exactly one series, got {len(self.series)}"
            )
        return self.series[0][1]

    def __len__(self) -> int:
        return len(self.series)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryError(f"unexpected character at {pos}: {text[pos]!r}")
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group()))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None, value: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if kind is not None and token[0] != kind:
            raise QueryError(f"expected {kind}, got {token[1]!r}")
        if value is not None and token[1] != value:
            raise QueryError(f"expected {value!r}, got {token[1]!r}")
        self.pos += 1
        return token[1]

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def evaluate(store: MetricStore, query: str) -> QueryResult:
    """Parse and evaluate ``query`` against ``store``."""
    parser = _Parser(_tokenize(query))
    result = _parse_expr(parser, store)
    if not parser.at_end():
        raise QueryError(f"trailing input: {parser.peek()[1]!r}")
    return result


def _parse_expr(parser: _Parser, store: MetricStore) -> QueryResult:
    token = parser.peek()
    if token is None:
        raise QueryError("empty query")
    kind, value = token

    if kind == "name" and value == "agg_over_time":
        parser.take()
        parser.take("punct", "(")
        inner = _parse_expr(parser, store)
        parser.take("punct", ",")
        window = float(parser.take("number"))
        parser.take("punct", ",")
        agg = parser.take("name")
        if agg not in AGGREGATIONS:
            raise QueryError(f"unknown aggregation {agg!r}")
        parser.take("punct", ")")
        resampled = [
            (labels, series.resample(window, agg))
            for labels, series in inner.series
        ]
        result = QueryResult(series=resampled, aggregated=inner.aggregated)
    elif kind == "name" and value in AGGREGATIONS:
        parser.take()
        parser.take("punct", "(")
        inner = _parse_selector(parser, store)
        parser.take("punct", ")")
        metric, matcher = inner
        combined = store.aggregate_across(metric, matcher, agg=value)
        result = QueryResult(
            series=[({"__agg__": value}, combined)], aggregated=True
        )
    elif kind == "name":
        metric, matcher = _parse_selector(parser, store)
        matched = list(store.select(metric, matcher))
        result = QueryResult(series=matched, aggregated=False)
    else:
        raise QueryError(f"unexpected token {value!r}")

    # Optional range suffix applies to whatever came before it.
    token = parser.peek()
    if token is not None and token[1] == "[":
        parser.take("punct", "[")
        start = float(parser.take("number"))
        parser.take("punct", ",")
        end = float(parser.take("number"))
        parser.take("punct", "]")
        if end <= start:
            raise QueryError("range end must be after start")
        result = QueryResult(
            series=[
                (labels, series.between(start, end))
                for labels, series in result.series
            ],
            aggregated=result.aggregated,
        )
    return result


def _parse_selector(
    parser: _Parser, store: MetricStore
) -> tuple[str, dict[str, str] | None]:
    metric = parser.take("name")
    matcher: dict[str, str] | None = None
    token = parser.peek()
    if token is not None and token[1] == "{":
        parser.take("punct", "{")
        matcher = {}
        while True:
            label = parser.take("name")
            parser.take("punct", "=")
            raw = parser.take("string")
            matcher[label] = raw[1:-1]
            token = parser.peek()
            if token is not None and token[1] == ",":
                parser.take("punct", ",")
                continue
            break
        parser.take("punct", "}")
    return metric, matcher
