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
        assert queue.pop() is event
        assert len(queue) == 1

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

    def test_event_uses_slots(self):
        event = Event(time=1.0, seq=0, callback=lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary = 1
