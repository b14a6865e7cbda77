"""Named metric instruments: counters, gauges and histograms.

A :class:`MetricsRegistry` is a flat namespace of instruments that
components create once (at construction) and update on hot paths.  The
**null registry** is the system-wide default: it hands out shared no-op
instruments whose update methods do nothing, so instrumented code pays
one attribute lookup and an empty method call when observability is
off — cheap enough to leave in paths the perf gate watches.

Instruments are deliberately minimal:

* :class:`Counter` — monotonically increasing float.
* :class:`Gauge` — last-written value.
* :class:`Histogram` — fixed bucket bounds chosen at creation; observes
  land in the first bucket whose upper bound is >= the value, with an
  implicit +inf overflow bucket.  Sum and count ride along so means
  survive aggregation.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A named value that tracks the most recent observation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


#: Default histogram bounds for latencies measured in bus cycles.
LATENCY_BOUNDS: Tuple[float, ...] = (
    16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
)


class Histogram:
    """Fixed-bound histogram with sum/count for mean reconstruction."""

    __slots__ = ("name", "bounds", "buckets", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(
            b >= c for b, c in zip(ordered, ordered[1:])
        ):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = ordered
        self.buckets: List[int] = [0] * (len(ordered) + 1)  # +inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Linear interpolation inside the chosen bucket, the same estimate
        Prometheus's ``histogram_quantile`` computes from
        ``_bucket{le=...}`` series.  The overflow bucket has no upper
        bound, so ranks landing there clamp to the last finite bound.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            previous = cumulative
            cumulative += bucket_count
            if cumulative < rank or not bucket_count:
                continue
            if index >= len(self.bounds):
                return self.bounds[-1]  # overflow bucket: clamp
            upper = self.bounds[index]
            lower = self.bounds[index - 1] if index else 0.0
            return lower + (upper - lower) * (rank - previous) / bucket_count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "sum": self.total,
            "count": self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument type."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    value = 0.0
    total = 0.0
    count = 0
    mean = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """A live namespace of named instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for an
    existing name returns the same instrument, so independent components
    can share one metric.  Asking for a name that exists with a
    different type raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, bounds), Histogram
        )

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def to_dict(self) -> Dict[str, object]:
        """Every instrument's state, keyed by name (sorted for diffs)."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }


class NullRegistry:
    """The default registry: every instrument is the shared no-op.

    Kept API-compatible with :class:`MetricsRegistry` so instrumented
    components never branch on the registry type — they just hold
    instruments whose update methods do nothing.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def to_dict(self) -> Dict[str, object]:
        return {}


#: Process-wide shared null registry — the default for every component.
NULL_REGISTRY = NullRegistry()


# ----------------------------------------------------------------------
# Metric catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Documentation for one observable metric (``repro metrics list``).

    ``name`` may be a literal column name or a template with a ``<n>``
    placeholder for per-instance series (``subrank<n>_beats``).
    """

    name: str
    #: "sample" | "cumulative" | "instant" | "histogram" | "perf" | "run"
    #: ("run" entries are per-run robustness counters from orchestrator
    #: telemetry/report summaries, not per-epoch obs columns).
    kind: str
    unit: str
    description: str

    def matches(self, column: str) -> bool:
        """True when *column* is an instance of this (template) name."""
        if "<n>" not in self.name:
            return column == self.name
        pattern = re.escape(self.name).replace(re.escape("<n>"), r"\d+")
        return re.fullmatch(pattern, column) is not None


#: Every metric the simulator's observability probe can emit, in the
#: order the paper's evaluation discusses them.  Cumulative columns are
#: stored as per-epoch deltas in :class:`repro.obs.ObsRecord`; instant
#: columns raw at the sample point.  ``perf``-kind entries are not obs
#: columns at all: they are the fast-path's non-serialised telemetry
#: (``SimulationResult.perf``), surfaced by ``repro profile`` — listed
#: here so ``repro metrics list`` documents every number the tooling
#: can print.
METRIC_CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec("cycle", "sample", "bus cycles",
               "epoch sample time on the memory-bus clock"),
    MetricSpec("bytes_transferred", "cumulative", "bytes",
               "data moved over the memory bus"),
    MetricSpec("forwarded_reads", "cumulative", "requests",
               "reads answered from the write queue without a bus trip"),
    MetricSpec("llc_hits", "cumulative", "accesses",
               "last-level cache hits"),
    MetricSpec("llc_misses", "cumulative", "accesses",
               "last-level cache misses (memory traffic generators)"),
    MetricSpec("demand_reads", "cumulative", "requests",
               "demand read requests issued to the controller"),
    MetricSpec("demand_writes", "cumulative", "requests",
               "demand write requests issued to the controller"),
    MetricSpec("corrective_reads", "cumulative", "requests",
               "extra reads issued after a wrong compressibility guess"),
    MetricSpec("copr_predictions", "cumulative", "predictions",
               "COPR compressibility predictions made"),
    MetricSpec("copr_correct", "cumulative", "predictions",
               "COPR predictions that matched the line's true state"),
    MetricSpec("blem_writes", "cumulative", "writes",
               "lines written through the BLEM embedded-metadata path"),
    MetricSpec("blem_collisions", "cumulative", "events",
               "BLEM marker collisions on reads and writes"),
    MetricSpec("metadata_accesses", "cumulative", "accesses",
               "metadata-cache lookups"),
    MetricSpec("metadata_hits", "cumulative", "accesses",
               "metadata-cache lookups served without a memory access"),
    MetricSpec("metadata_installs", "cumulative", "requests",
               "metadata fills from memory (misses that cost a read)"),
    MetricSpec("metadata_writebacks", "cumulative", "requests",
               "dirty metadata evictions written back to memory"),
    MetricSpec("compressible_reads", "cumulative", "requests",
               "demand reads whose line compresses to <= 30 B"),
    MetricSpec("subrank<n>_beats", "cumulative", "data beats",
               "data-bus beats served by sub-rank <n>"),
    MetricSpec("channel<n>_queue", "instant", "requests",
               "pending reads + writes queued at channel <n>"),
    MetricSpec("controller.read_latency_bus_cycles", "histogram",
               "bus cycles",
               "end-to-end demand-read latency distribution "
               "(to_dict carries p50/p95/p99 bucket estimates)"),
    MetricSpec("scheduler.horizon_skips", "perf", "advance calls",
               "channel advances answered by the event-horizon skip "
               "without touching the issue loop (REPRO_FASTPATH)"),
    MetricSpec("scheduler.bucket_hits", "perf", "lookups",
               "per-(rank, bank) candidate-cache hits inside best-"
               "candidate computes (REPRO_FASTPATH)"),
    MetricSpec("scheduler.bucket_misses", "perf", "lookups",
               "candidate-cache misses — buckets recomputed by the "
               "scalar FR-FCFS scan (REPRO_FASTPATH)"),
    MetricSpec("chaos.injections", "run", "faults",
               "total deterministic fault injections delivered by the "
               "run's chaos plan (report summary, chaos block)"),
    MetricSpec("chaos.injections.<site>", "run", "faults",
               "per-site injection counts keyed by chaos site name "
               "(e.g. transport.corrupt, worker.crash) in the report "
               "summary's chaos block"),
    MetricSpec("cache.corrupt_entries", "run", "entries",
               "present-but-unusable result-cache entries detected "
               "(checksum/schema failures), unlinked and counted as "
               "misses"),
    MetricSpec("cache.put_errors", "run", "stores",
               "result-cache stores swallowed on filesystem failure "
               "(disk full) — the sweep continues uncached"),
)


def find_metric(column: str) -> Optional[MetricSpec]:
    """The catalog entry describing *column*, template-aware."""
    for spec in METRIC_CATALOG:
        if spec.matches(column):
            return spec
    return None


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "METRIC_CATALOG",
    "MetricSpec",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "find_metric",
]
