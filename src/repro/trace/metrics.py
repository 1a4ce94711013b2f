"""Counters and histograms over *simulated* quantities.

The registry subsumes the scattered per-component counters
(``LogStats``, ``MspStats``, the network ledger): components keep their
cheap plain-int counters on the hot path, and
:func:`collect_component_metrics` folds a finished run's values into one
namespaced view next to the tracer-fed histograms (flush latency,
recovery-phase durations, per-kind log volume).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional


def nearest_rank(ordered: list, q: float) -> float:
    """The exact nearest-rank ``q`` quantile of the non-empty sorted
    ``ordered``: the smallest sample with at least ``ceil(q*n)`` samples
    at or below it.  Every quantile the package reports comes from here."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Every observed sample, with exact count/sum/min/max and
    nearest-rank quantiles."""

    __slots__ = ("name", "samples", "total")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples, default=float("inf"))

    @property
    def max(self) -> float:
        return max(self.samples, default=float("-inf"))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        return nearest_rank(sorted(self.samples), q) if self.samples else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.min, 6) if self.count else None,
            "max": round(self.max, 6) if self.count else None,
            "mean": round(self.mean, 6),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters and histograms, created on first touch."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, value: int) -> None:
        """Overwrite a counter with an externally tracked value."""
        self.counter(name).value = value

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def to_dict(self) -> dict:
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }


def collect_component_metrics(
    registry: MetricsRegistry,
    msps: Iterable = (),
    network: Optional[object] = None,
    shard=None,
) -> MetricsRegistry:
    """Fold component counters into ``registry`` under stable namespaces.

    ``msp.<name>.<field>`` for :class:`MspStats`, ``log.<name>.<field>``
    for :class:`LogStats`, ``net.<field>`` for the network ledger, plus
    the aggregate ``flush.stale_acks``.  With a fleet ``shard``, adds the
    ``fleet.*`` namespace: per-shard step counts, session/call progress
    and the cross-shard export/import counters (barrier wait time is a
    wall-clock quantity and lives in the run result's ``timing`` section
    instead — metrics here are simulated-time only).  Call at the end of
    a run — the sources are plain ints, so this is a snapshot, not a
    subscription.
    """
    stale_acks = 0
    for msp in msps:
        for field, value in vars(msp.stats).items():
            if isinstance(value, (int, float)):
                registry.set(f"msp.{msp.name}.{field}", value)
        stale_acks += msp.stats.stale_flush_acks
        if msp.log is not None:
            for field, value in vars(msp.log.stats).items():
                if isinstance(value, (int, float)):
                    registry.set(f"log.{msp.name}.{field}", value)
            registry.set(
                f"log.{msp.name}.coalesced_flushes", msp.log.stats.coalesced_flushes
            )
            # Namespaced ``log.<msp>.p<N>.*`` — matching the partition
            # store/disk names and the ``log.write`` span's partition
            # attribution, so traces and metrics cross-reference without
            # a manual mapping.
            for index, counters in sorted(msp.log.stats.partitions.items()):
                for field, value in counters.items():
                    registry.set(f"log.{msp.name}.p{index}.{field}", value)
    registry.set("flush.stale_acks", stale_acks)
    if network is not None:
        for field, value in network.ledger().items():
            registry.set(f"net.{field}", value)
    if shard is not None:
        prefix = f"fleet.shard{shard.index}"
        registry.set(f"{prefix}.steps", shard.sim.steps)
        registry.set(f"{prefix}.expected_sessions", shard.expected_sessions)
        registry.set(f"{prefix}.completed_sessions", shard.completed_sessions)
        registry.set(f"{prefix}.completed_calls", shard.completed_calls)
        registry.set(f"{prefix}.cross_domain_calls", shard.cross_domain_calls)
        registry.set(
            f"{prefix}.messages_exported", shard.network.messages_exported
        )
        registry.set(
            f"{prefix}.messages_imported", shard.network.messages_imported
        )
    return registry
