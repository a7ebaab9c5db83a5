"""Tests for repro.serve.metrics — histograms and the metrics bundle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve.metrics import LatencyHistogram, ServingMetrics


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0

    def test_percentiles_nearest_rank(self):
        hist = LatencyHistogram()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
            hist.record(v)
        assert hist.percentile(50) == 5.0
        assert hist.percentile(95) == 10.0
        assert hist.percentile(100) == 10.0
        assert hist.percentile(0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=60),
           st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=60))
    def test_interleaved_percentiles_match_a_full_sort(self, samples, qs):
        """Any interleaving of record and percentile returns exactly what
        a fresh nearest-rank sort of every sample so far returns."""
        hist = LatencyHistogram()
        seen = []
        for i, value in enumerate(samples):
            hist.record(value)
            seen.append(value)
            for q in qs[i % 3::3]:
                ordered = sorted(seen)
                want = ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
                assert hist.percentile(q) == want
        assert hist.total == sum(seen)

    def test_mean(self):
        hist = LatencyHistogram()
        for v in (1.0, 3.0):
            hist.record(v)
        assert hist.mean == pytest.approx(2.0)

    def test_bucket_counts_partition_samples(self):
        hist = LatencyHistogram()
        values = [0.0, 1e-9, 3.7e-4, 0.02, 5.0, 1e6]
        for v in values:
            hist.record(v)
        counts = hist.bucket_counts()
        assert sum(counts) == len(values)
        assert counts[0] == 2  # 0.0 and 1e-9 underflow
        assert counts[-1] == 1  # 1e6 overflows

    def test_bucket_edges_consistent_with_samples(self):
        # Values at awkward float positions must land in exactly one bucket.
        hist = LatencyHistogram()
        for exp in range(-6, 3):
            hist.record(10.0**exp)
        assert sum(hist.bucket_counts()) == 9

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1.0)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().percentile(101)


class TestServingMetrics:
    def test_counters_roll_up(self):
        metrics = ServingMetrics()
        metrics.on_received()
        metrics.on_received()
        metrics.on_rejected()
        metrics.on_batch(4)
        metrics.on_batch(2)
        metrics.on_served(0.001, 0.002, 0.003)
        metrics.on_queue_depth(7)
        metrics.on_queue_depth(3)
        assert metrics.received == 2
        assert metrics.rejected == 1
        assert metrics.served == 1
        assert metrics.mean_batch_size == pytest.approx(3.0)
        assert metrics.max_queue_depth == 7

    def test_rows_render_as_table(self):
        from repro.bench.report import format_table

        metrics = ServingMetrics()
        metrics.on_received()
        metrics.on_served(0.001, 0.002, 0.003)
        text = format_table(metrics.rows(), title="serving")
        assert "latency_p99_s" in text
        assert "requests_served" in text

    def test_cache_accounting_in_rows(self):
        metrics = ServingMetrics()
        metrics.on_cache_hit()
        metrics.on_cache_miss()
        metrics.on_cache_miss()
        metrics.on_cache_miss()
        metrics.on_evictions(5)
        by_name = {row["metric"]: row["value"] for row in metrics.rows()}
        assert by_name["cache_hits"] == 1
        assert by_name["cache_misses"] == 3
        assert by_name["cache_hit_rate"] == pytest.approx(0.25)
        assert by_name["cache_evictions"] == 5

    def test_cold_cache_hit_rate_is_zero(self):
        assert ServingMetrics().cache_hit_rate == 0.0

    def test_eviction_gauge_monotone(self):
        metrics = ServingMetrics()
        metrics.on_evictions(3)
        metrics.on_evictions(3)  # no change is fine
        metrics.on_evictions(7)
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            metrics.on_evictions(2)

    def test_cancelled_counter_in_rows(self):
        metrics = ServingMetrics()
        metrics.on_cancelled()
        metrics.on_cancelled()
        by_name = {row["metric"]: row["value"] for row in metrics.rows()}
        assert by_name["requests_cancelled"] == 2
