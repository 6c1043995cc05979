"""Tests for the simulation kernel."""

import pytest

from repro.simnet.kernel import Simulator


class TestScheduling:
    def test_after_advances_clock(self, sim):
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run_until(10.0)
        assert times == [5.0]
        assert sim.now == 10.0  # clock reaches the horizon

    def test_at_absolute_time(self, sim):
        fired = []
        sim.at(3.0, lambda: fired.append(sim.now))
        sim.run_until(3.0)
        assert fired == [3.0]

    def test_cannot_schedule_in_past(self, sim):
        sim.after(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            sim.at(1.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_events_beyond_horizon_stay_queued(self, sim):
        fired = []
        sim.after(5.0, lambda: fired.append("early"))
        sim.after(50.0, lambda: fired.append("late"))
        sim.run_until(10.0)
        assert fired == ["early"]
        sim.run_until(100.0)
        assert fired == ["early", "late"]

    def test_run_until_returns_processed_count(self, sim):
        for _ in range(4):
            sim.after(1.0, lambda: None)
        assert sim.run_until(2.0) == 4

    def test_max_events(self, sim):
        for _ in range(10):
            sim.after(1.0, lambda: None)
        processed = sim.run_until(2.0, max_events=3)
        assert processed == 3

    def test_halt_stops_loop(self, sim):
        fired = []
        sim.after(1.0, lambda: (fired.append(1), sim.halt()))
        sim.after(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]

    def test_nested_scheduling_inside_event(self, sim):
        order = []
        def first():
            order.append("first")
            sim.after(1.0, lambda: order.append("second"))
        sim.after(1.0, first)
        sim.run_until(5.0)
        assert order == ["first", "second"]

    def test_event_scheduled_at_horizon_during_drain_still_runs(self, sim):
        # regression: the last event's callback schedules another event
        # at exactly end_time; the drain must process it, and the final
        # "advance to horizon" check must see the queue state from
        # *after* the loop, not a stale peek
        order = []

        def last():
            order.append("last")
            sim.at(10.0, lambda: order.append("same-time"))

        sim.at(10.0, last)
        processed = sim.run_until(10.0)
        assert order == ["last", "same-time"]
        assert processed == 2
        assert sim.now == 10.0

    def test_clock_not_advanced_while_events_remain_before_horizon(self, sim):
        fired = []
        sim.at(5.0, lambda: fired.append(1))
        sim.at(6.0, lambda: fired.append(2))
        sim.run_until(10.0, max_events=1)
        # max_events stopped the drain with work left before the
        # horizon: the clock must stay at the last processed event
        assert fired == [1]
        assert sim.now == 5.0
        sim.run_until(10.0)
        assert fired == [1, 2]
        assert sim.now == 10.0


class TestEvery:
    def test_periodic_without_jitter(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_periodic_until(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), until=25.0)
        sim.run_until(100.0)
        assert ticks == [10.0, 20.0]

    def test_jitter_perturbs_but_keeps_cadence(self, sim):
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now),
                  jitter=sim.stream("jitter"))
        sim.run_until(100.0)
        assert 8 <= len(ticks) <= 12
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(8.9 <= gap <= 11.1 for gap in gaps)

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulator(seed=seed)
            trace = []
            stream = sim.stream("t")
            def tick():
                trace.append((round(sim.now, 6), stream.randint(0, 1000)))
            sim.every(3.0, tick, jitter=sim.stream("jitter"))
            sim.run_until(100.0)
            return trace
        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_events_processed_accumulates(self, sim):
        sim.after(1.0, lambda: None)
        sim.run_until(2.0)
        sim.after(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.events_processed == 2
