"""Tests for the simulator's telemetry hook."""

import pytest

from repro.simnet.kernel import Simulator
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.registry import MetricRegistry


@pytest.fixture()
def registry():
    return MetricRegistry()


def run_labelled(telemetry, labels=("query", "query", "scan")):
    sim = Simulator(seed=3, telemetry=telemetry)
    for offset, label in enumerate(labels):
        sim.at(1.0 + offset, lambda: None, label=label)
    sim.run_until(10.0)
    return sim


class TestLabelCounts:
    def test_counts_every_event_per_label(self, registry):
        telemetry = KernelTelemetry(registry)
        run_labelled(telemetry)
        assert telemetry.label_counts == {"query": 2, "scan": 1}
        assert telemetry.events_seen == 3
        events = registry.get("sim_events_total")
        assert events.labels("query").value == 2
        assert events.labels("scan").value == 1

    def test_flush_pushes_deltas_not_totals(self, registry):
        # run_until flushes once per call; a second simulator sharing
        # the telemetry object must not re-add the first run's counts
        telemetry = KernelTelemetry(registry)
        run_labelled(telemetry, labels=("query",))
        run_labelled(telemetry, labels=("query",))
        # label_counts is cumulative across runs of this telemetry object
        assert registry.get("sim_events_total").value == \
            telemetry.events_seen

    def test_flush_is_idempotent(self, registry):
        telemetry = KernelTelemetry(registry)
        sim = run_labelled(telemetry)
        before = registry.get("sim_events_total").value
        telemetry.flush(sim)
        assert registry.get("sim_events_total").value == before


class TestSampling:
    def test_sample_every_one_times_all_callbacks(self, registry):
        telemetry = KernelTelemetry(registry, sample_every=1)
        run_labelled(telemetry)
        histogram = registry.get("sim_callback_wall_seconds")
        assert histogram.count == 3
        assert histogram.labels("query").count == 2

    def test_large_sample_every_times_few(self, registry):
        telemetry = KernelTelemetry(registry, sample_every=1000)
        run_labelled(telemetry)
        assert registry.get("sim_callback_wall_seconds").count == 0

    def test_sampling_phase_survives_run_until(self, registry):
        # 3 events per run, sample_every=2: phase carries across calls,
        # so 4 runs x 3 events = 12 events -> exactly 6 samples
        telemetry = KernelTelemetry(registry, sample_every=2)
        for _ in range(4):
            run_labelled(telemetry)
        assert registry.get("sim_callback_wall_seconds").count == 6

    def test_sample_every_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            KernelTelemetry(registry, sample_every=0)


class TestGauges:
    def test_queue_and_clock_gauges_set_on_flush(self, registry):
        telemetry = KernelTelemetry(registry)
        sim = run_labelled(telemetry)
        assert registry.get("sim_queue_depth").value == 0
        assert registry.get("sim_virtual_time_seconds").value == sim.now
        assert (registry.get("sim_queue_dead_events").value
                == sim.queue.dead_events)

    def test_cancelled_total_gauge_counts_cancels(self, registry):
        telemetry = KernelTelemetry(registry)
        sim = Simulator(seed=3, telemetry=telemetry)
        keep = sim.at(1.0, lambda: None, label="keep")
        for offset in range(4):
            sim.cancel(sim.at(2.0 + offset, lambda: None, label="drop"))
        sim.cancel(keep)
        sim.cancel(keep)  # idempotent: counted once
        sim.run_until(10.0)
        assert registry.get("sim_queue_cancelled_total").value == 5
        assert (registry.get("sim_queue_cancelled_total").value
                == sim.queue.cancelled_total)

    def test_sample_interval_gauge_registered(self, registry):
        KernelTelemetry(registry, sample_every=32)
        assert (registry.get("sim_callback_sample_interval").value
                == 32)


class TestDeterminism:
    def test_telemetry_does_not_change_simulation(self):
        def run(telemetry):
            sim = Simulator(seed=11, telemetry=telemetry)
            trace = []
            stream = sim.stream("jitter")

            def tick(i):
                trace.append((round(sim.now, 9), i, stream.random()))

            for i in range(50):
                sim.at(1.0 + (i % 7) * 0.5, lambda i=i: tick(i))
            sim.run_all()
            return trace

        plain = run(None)
        instrumented = run(KernelTelemetry(MetricRegistry()))
        assert plain == instrumented
