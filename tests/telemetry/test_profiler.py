"""Tests for the kernel hotspot profiler report."""

import json

import pytest

from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.profiler import (CALLBACK_HISTOGRAM, EVENTS_COUNTER,
                                      SAMPLE_INTERVAL_GAUGE, Hotspot,
                                      HotspotReport, _percentile)
from repro.telemetry.registry import MetricRegistry


def build_registry(sample_every=64, *, gauge=True):
    """A registry with the kernel metrics populated by hand.

    Two labels: ``scan`` is slow but rare, ``churn`` is fast but runs
    for every peer -- the estimate must rank churn first.
    """
    registry = MetricRegistry()
    histogram = registry.histogram(
        CALLBACK_HISTOGRAM, "Sampled callback wall time.",
        labels=("label",), buckets=(0.001, 0.01, 0.1))
    events = registry.counter(EVENTS_COUNTER, "Events run.",
                              labels=("label",))
    if gauge:
        registry.gauge(SAMPLE_INTERVAL_GAUGE,
                       "Callback sampling interval.").set(sample_every)
    for _ in range(4):
        histogram.labels("scan").observe(0.05)  # mean 0.05s
    events.labels("scan").inc(100)              # est 5.0s
    for _ in range(8):
        histogram.labels("churn").observe(0.005)  # mean 0.005s
    events.labels("churn").inc(10_000)            # est 50.0s
    return registry


class TestPercentile:
    def test_interpolates_within_the_winning_bucket(self):
        # 10 observations all in the (0.0, 1.0] bucket: p50 lands at
        # the linear midpoint of that bucket
        assert _percentile((1.0, 2.0), [10, 0, 0], 10, 0.5) == \
            pytest.approx(0.5)

    def test_spans_buckets_cumulatively(self):
        # 5 in (0,1], 5 in (1,2]: p90 is 80% into the second bucket
        assert _percentile((1.0, 2.0), [5, 5, 0], 10, 0.9) == \
            pytest.approx(1.8)

    def test_inf_bucket_reports_last_finite_bound(self):
        assert _percentile((1.0, 2.0), [0, 0, 10], 10, 0.5) == 2.0

    def test_empty_distribution_is_zero(self):
        assert _percentile((1.0,), [0, 0], 0, 0.5) == 0.0


class TestFromRegistry:
    def test_ranked_by_estimated_total_wall_time(self):
        report = HotspotReport.from_registry(build_registry())
        assert [row.label for row in report.hotspots] == ["churn", "scan"]

    def test_estimate_is_sampled_mean_times_event_count(self):
        report = HotspotReport.from_registry(build_registry())
        by_label = {row.label: row for row in report.hotspots}
        scan = by_label["scan"]
        assert scan.sampled == 4
        assert scan.mean_s == pytest.approx(0.05)
        assert scan.events == 100
        assert scan.estimated_total_s == pytest.approx(
            scan.mean_s * scan.events)

    def test_shares_sum_to_one(self):
        report = HotspotReport.from_registry(build_registry())
        assert sum(row.share for row in report.hotspots) == \
            pytest.approx(1.0)
        assert report.estimated_total_s == pytest.approx(55.0)

    def test_sample_every_read_from_gauge(self):
        report = HotspotReport.from_registry(build_registry(32))
        assert report.sample_every == 32

    def test_sample_every_defaults_without_gauge(self):
        report = HotspotReport.from_registry(build_registry(gauge=False))
        assert report.sample_every == 64

    def test_empty_registry_is_an_empty_report(self):
        report = HotspotReport.from_registry(MetricRegistry())
        assert report.hotspots == ()
        assert report.estimated_total_s == 0.0

    def test_ties_break_alphabetically(self):
        registry = MetricRegistry()
        histogram = registry.histogram(
            CALLBACK_HISTOGRAM, "Sampled callback wall time.",
            labels=("label",), buckets=(0.001,))
        events = registry.counter(EVENTS_COUNTER, "Events run.",
                                  labels=("label",))
        for label in ("b", "a"):
            histogram.labels(label).observe(0.0005)
            events.labels(label).inc(10)
        report = HotspotReport.from_registry(registry)
        assert [row.label for row in report.hotspots] == ["a", "b"]

    def test_works_on_real_kernel_telemetry(self):
        registry = MetricRegistry()
        kernel = KernelTelemetry(registry, sample_every=16)
        kernel.observe_callback("scan", 0.002)
        registry.get(EVENTS_COUNTER).labels("scan").inc(16)
        report = HotspotReport.from_registry(registry)
        assert report.sample_every == 16
        assert report.hotspots[0].label == "scan"


class TestRendering:
    def test_render_table(self):
        text = HotspotReport.from_registry(build_registry()).render()
        lines = text.splitlines()
        assert "1-in-64" in lines[0]
        assert lines[1].split()[:2] == ["label", "events"]
        assert lines[2].startswith("churn")
        assert "90.9%" in lines[2]
        assert lines[3].startswith("scan")

    def test_render_truncates_and_counts_the_rest(self):
        text = HotspotReport.from_registry(build_registry()).render(top=1)
        assert "scan" not in text
        assert "... 1 more label(s)" in text

    def test_to_dict_and_json(self):
        report = HotspotReport.from_registry(build_registry())
        payload = report.to_dict()
        assert payload["sample_every"] == 64
        assert [row["label"] for row in payload["hotspots"]] == [
            "churn", "scan"]
        # /hotspots.json serves this dict as JSON
        assert json.loads(json.dumps(payload)) == payload

    def test_hotspot_rows_are_immutable(self):
        report = HotspotReport.from_registry(build_registry())
        with pytest.raises(AttributeError):
            report.hotspots[0].share = 2.0

    def test_hotspot_to_dict_fields(self):
        row = Hotspot(label="x", sampled=1, sampled_total_s=0.1,
                      mean_s=0.1, p50_s=0.1, p95_s=0.1, events=2,
                      estimated_total_s=0.2, share=1.0)
        assert set(row.to_dict()) == {
            "label", "sampled", "sampled_total_s", "mean_s", "p50_s",
            "p95_s", "events", "estimated_total_s", "share"}
