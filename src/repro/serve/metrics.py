"""Serving metrics: counters, histograms, and tail-latency percentiles.

Throughput numbers without tail latencies hide exactly the effect
micro-batching trades on — a batch that waits ``max_wait_s`` for
companions buys device efficiency with every rider's p99.  The metrics
layer therefore records full latency distributions (queue wait, service
time, end-to-end) plus batch-size and queue-depth observations, and
renders everything as :mod:`repro.bench.report` rows.

All state is plain Python — deterministic, no wall clock — so two
identical simulated runs produce bit-identical metrics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Histogram bucket geometry: log-spaced edges over [1 µs, 1000 s).
_BUCKETS_PER_DECADE = 8
_LO_EXP, _HI_EXP = -6, 3


class LatencyHistogram:
    """Log-bucketed histogram that also keeps exact samples.

    The buckets give a compact, comparable fingerprint of a run (the
    determinism tests assert two seeded runs produce identical bucket
    counts); the raw samples give exact nearest-rank percentiles.
    """

    def __init__(self):
        n = (_HI_EXP - _LO_EXP) * _BUCKETS_PER_DECADE
        self._edges = [
            10.0 ** (_LO_EXP + i / _BUCKETS_PER_DECADE) for i in range(n + 1)
        ]
        self._counts = [0] * (n + 2)  # + underflow and overflow buckets
        self._samples: List[float] = []  # in arrival order
        # The samples in ascending order, brought up to date lazily: a
        # percentile after k new samples merges k, it does not re-sort n.
        self._sorted: List[float] = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError(f"latency must be >= 0, got {seconds}")
        self._samples.append(float(seconds))
        if seconds < self._edges[0]:
            self._counts[0] += 1
            return
        if seconds >= self._edges[-1]:
            self._counts[-1] += 1
            return
        # Bucket index straight from the exponent (uniform in log space).
        i = int((math.log10(seconds) - _LO_EXP) * _BUCKETS_PER_DECADE)
        i = min(max(i, 0), len(self._counts) - 3)
        # Guard against float rounding at bucket edges.
        while seconds < self._edges[i]:
            i -= 1
        while seconds >= self._edges[i + 1]:
            i += 1
        self._counts[i + 1] += 1

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must lie in [0, 100], got {q}")
        if not self._samples:
            return 0.0
        ordered = self._sorted
        if len(ordered) < len(self._samples):
            # Timsort merges the sorted prefix and the new run in O(n + k log k).
            ordered.extend(self._samples[len(ordered):])
            ordered.sort()
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def bucket_counts(self) -> Tuple[int, ...]:
        """The bucket-count fingerprint (underflow, …, overflow)."""
        return tuple(self._counts)


class ServingMetrics:
    """Aggregated view of everything the serving engine did."""

    def __init__(self):
        self.received = 0
        self.rejected = 0
        self.served = 0
        self.cancelled = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.batches = 0
        self.batch_sizes: List[int] = []
        self.max_queue_depth = 0
        self.wait = LatencyHistogram()
        self.service = LatencyHistogram()
        self.latency = LatencyHistogram()

    # ------------------------------------------------------------------
    def on_received(self) -> None:
        self.received += 1

    def on_rejected(self) -> None:
        self.rejected += 1

    def on_cancelled(self) -> None:
        self.cancelled += 1

    def on_cache_hit(self) -> None:
        self.cache_hits += 1

    def on_cache_miss(self) -> None:
        self.cache_misses += 1

    def on_evictions(self, total: int) -> None:
        """Record the cache's cumulative eviction count (a gauge)."""
        if total < self.cache_evictions:
            raise ConfigurationError(
                f"eviction gauge cannot decrease ({self.cache_evictions} -> {total})"
            )
        self.cache_evictions = int(total)

    def on_queue_depth(self, depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def on_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_sizes.append(int(size))

    def on_served(self, wait_s: float, service_s: float, latency_s: float) -> None:
        self.served += 1
        self.wait.record(wait_s)
        self.service.record(service_s)
        self.latency.record(latency_s)

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Hit fraction over all cache lookups (0.0 when the cache is cold)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def rows(self) -> List[Dict[str, object]]:
        """Counter + percentile rows for :func:`repro.bench.report.format_table`."""
        return [
            {"metric": "requests_received", "value": self.received},
            {"metric": "requests_served", "value": self.served},
            {"metric": "requests_rejected", "value": self.rejected},
            {"metric": "requests_cancelled", "value": self.cancelled},
            {"metric": "cache_hits", "value": self.cache_hits},
            {"metric": "cache_misses", "value": self.cache_misses},
            {"metric": "cache_hit_rate", "value": self.cache_hit_rate},
            {"metric": "cache_evictions", "value": self.cache_evictions},
            {"metric": "batches_dispatched", "value": self.batches},
            {"metric": "mean_batch_size", "value": self.mean_batch_size},
            {"metric": "max_queue_depth", "value": self.max_queue_depth},
            {"metric": "wait_p50_s", "value": self.wait.percentile(50)},
            {"metric": "service_p50_s", "value": self.service.percentile(50)},
            {"metric": "latency_p50_s", "value": self.latency.percentile(50)},
            {"metric": "latency_p95_s", "value": self.latency.percentile(95)},
            {"metric": "latency_p99_s", "value": self.latency.percentile(99)},
        ]
