"""Tests for streaming latency statistics."""

import pytest

from repro.analysis.latency import LatencyCollector, LatencyStats
from repro.platform.centurion import CenturionPlatform
from repro.platform.config import PlatformConfig


class TestLatencyStats:
    def test_mean_and_extremes(self):
        stats = LatencyStats()
        for value in (100, 200, 300):
            stats.add(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(200.0)
        assert stats.minimum == 100
        assert stats.maximum == 300

    def test_variance_welford(self):
        stats = LatencyStats()
        for value in (2, 4, 4, 4, 5, 5, 7, 9):
            stats.add(value)
        assert stats.variance == pytest.approx(4.571428, rel=1e-5)

    def test_variance_of_single_sample_is_zero(self):
        stats = LatencyStats()
        stats.add(5)
        assert stats.variance == 0.0

    def test_quantiles_from_histogram(self):
        stats = LatencyStats(bucket_us=10, num_buckets=100)
        for value in range(0, 1000, 10):  # uniform 0..990
            stats.add(value)
        p50 = stats.quantile(0.5)
        assert 400 <= p50 <= 600
        p95 = stats.quantile(0.95)
        assert 900 <= p95 <= 1000

    def test_quantile_empty_returns_none(self):
        assert LatencyStats().quantile(0.5) is None

    def test_overflow_bucket_caps_resolution(self):
        stats = LatencyStats(bucket_us=10, num_buckets=5)
        stats.add(10_000)
        assert stats.quantile(0.5) == 45.0  # last bucket midpoint

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            LatencyStats(bucket_us=0)
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.add(-1)
        with pytest.raises(ValueError):
            stats.quantile(1.5)

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.add(50)
        summary = stats.summary()
        assert set(summary) == {
            "count", "mean_us", "min_us", "max_us",
            "p50_us", "p95_us", "p99_us",
        }


class TestLatencyCollector:
    def test_collects_per_task_on_platform(self):
        platform = CenturionPlatform(
            PlatformConfig.small(), model_name="none", seed=31
        )
        collector = LatencyCollector().install(platform.network)
        platform.run(100_000)
        assert collector.overall.count > 0
        assert 2 in collector.by_task  # branch traffic always flows
        summary = collector.summary()
        assert summary["overall"]["count"] == collector.overall.count

    def test_records_only_deliveries_the_pe_accepts(self):
        """A bounced delivery is no end-to-end latency: one sample per
        packet a PE accepted."""
        platform = CenturionPlatform(
            PlatformConfig.small(), model_name="none", seed=31
        )
        receive = platform.network.deliver_handler
        outcomes = []

        def counting(packet, node_id):
            accepted = receive(packet, node_id)
            outcomes.append(accepted)
            return accepted

        platform.network.set_deliver_handler(counting)
        collector = LatencyCollector().install(platform.network)
        platform.run(100_000)
        assert False in outcomes  # the cell bounces packets
        assert collector.overall.count == outcomes.count(True) > 0

    def test_delivery_still_reaches_pes(self):
        platform = CenturionPlatform(
            PlatformConfig.small(), model_name="none", seed=31
        )
        LatencyCollector().install(platform.network)
        platform.run(100_000)
        assert platform.workload.joins > 0

    def test_double_install_rejected(self):
        platform = CenturionPlatform(
            PlatformConfig.small(), model_name="none", seed=31
        )
        collector = LatencyCollector().install(platform.network)
        with pytest.raises(RuntimeError):
            collector.install(platform.network)

    def test_uninstall_restores_handler(self):
        platform = CenturionPlatform(
            PlatformConfig.small(), model_name="none", seed=31
        )
        original = platform.network.deliver_handler
        collector = LatencyCollector().install(platform.network)
        collector.uninstall()
        assert platform.network.deliver_handler is original
