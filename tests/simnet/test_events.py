"""Tests for the event queue's generic behaviour."""

import pytest

from repro.simnet.events import Event
from repro.simnet.sched import EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(2.0, lambda: order.append("b"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.push(1.0, lambda label=label: order.append(label))
        while (event := queue.pop()) is not None:
            event.callback()
        assert order == list("abcde")

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(event)
        assert len(queue) == 1

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        queue.cancel(event)
        while (item := queue.pop()) is not None:
            item.callback()
        assert fired == [2]

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 5.0

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_label_preserved(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None, label="tick")
        assert event.label == "tick"

    def test_cancel_method_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)  # double cancel must not corrupt the count
        assert len(queue) == 1
        assert queue.peek_time() == 2.0

    def test_peek_and_pop_agree_on_cancelled_head(self):
        # peek must never report the time of a cancelled event that pop
        # would then silently discard
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        peeked = queue.peek_time()
        popped = queue.pop()
        assert peeked == 2.0
        assert popped is not None and popped.time == peeked

    def test_pop_keeps_len_consistent_with_cancellations(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events[::2]:
            queue.cancel(event)
        survivors = []
        while (event := queue.pop()) is not None:
            survivors.append(event.time)
        assert survivors == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert len(queue) == 0

    def test_event_uses_slots(self):
        event = Event(time=1.0, seq=0, callback=lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary = 1
