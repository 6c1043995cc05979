"""Allocation-lean delivery: slotted envelopes, args events, send_many."""

import sys

import pytest

from repro.simnet.events import Event
from repro.simnet.kernel import Simulator
from repro.simnet.transport import (DELIVER_LABEL, Endpoint, Envelope,
                                    LatencyModel, Transport)


def _collector():
    received = []
    return received, received.append


class TestEnvelopeFootprint:
    def test_envelope_is_slotted(self):
        envelope = Envelope(src="a", dst="b", payload=b"x", sent_at=0.0)
        assert not hasattr(envelope, "__dict__")
        with pytest.raises(AttributeError):
            envelope.extra = 1

    def test_envelope_smaller_than_dict_backed_equivalent(self):
        class DictEnvelope:
            def __init__(self):
                self.src = "a"
                self.dst = "b"
                self.payload = b"x"
                self.sent_at = 0.0

        slotted = Envelope(src="a", dst="b", payload=b"x", sent_at=0.0)
        dict_backed = DictEnvelope()
        assert (sys.getsizeof(slotted)
                < sys.getsizeof(dict_backed)
                + sys.getsizeof(dict_backed.__dict__))

    def test_event_is_slotted(self):
        event = Event(time=1.0, seq=0, callback=lambda: None)
        assert not hasattr(event, "__dict__")

    def test_endpoint_identity_compared(self):
        first = Endpoint(endpoint_id="a", on_message=lambda e: None)
        second = Endpoint(endpoint_id="a", on_message=lambda e: None)
        assert first != second  # eq=False: identity, not field tuples
        assert first == first


class TestArgsEvents:
    def test_push_with_args_fires_callback_with_args(self):
        sim = Simulator(seed=1)
        seen = []
        sim.queue.push(1.0, lambda a, b: seen.append((a, b)),
                       "with-args", ("x", 42))
        sim.queue.push(2.0, lambda: seen.append("plain"))
        sim.run_until(10.0)
        assert seen == [("x", 42), "plain"]

    def test_args_default_is_empty(self):
        event = Event(time=0.0, seq=0, callback=lambda: None)
        assert event.args == ()


class TestSendMany:
    def _transport(self, seed=7, loss_rate=0.0):
        sim = Simulator(seed=seed)
        transport = Transport(sim, LatencyModel(), loss_rate=loss_rate)
        return sim, transport

    def test_send_many_delivers_to_every_destination(self):
        sim, transport = self._transport()
        received, on_message = _collector()
        transport.attach("src", lambda e: None)
        for peer in ("a", "b", "c"):
            transport.attach(peer, on_message)
        queued = transport.send_many("src", ("a", "b", "c"), b"payload")
        assert queued == 3
        sim.run_until(10.0)
        assert sorted(envelope.dst for envelope in received) == \
            ["a", "b", "c"]
        assert all(envelope.payload == b"payload" for envelope in received)

    def test_send_many_matches_per_send_loop_exactly(self):
        """Same seed, same traffic: send_many == N send calls, including
        the RNG draw order (loss then latency per destination)."""
        def run(use_many):
            sim, transport = self._transport(seed=11, loss_rate=0.3)
            log = []
            transport.attach("src", lambda e: None)
            for peer in ("a", "b", "c", "d"):
                transport.attach(
                    peer, lambda e: log.append((sim.now, e.dst)))
            if use_many:
                transport.send_many("src", ("a", "b", "c", "d"), b"pp")
            else:
                for peer in ("a", "b", "c", "d"):
                    transport.send("src", peer, b"pp")
            sim.run_until(10.0)
            return log, transport.drop_causes.copy()

        assert run(True) == run(False)

    def test_send_many_counts_drops(self):
        sim, transport = self._transport()
        transport.attach("src", lambda e: None)
        transport.attach("up", lambda e: None)
        queued = transport.send_many("src", ("up", "missing"), b"x")
        assert queued == 1
        assert transport.drop_causes["unknown-dst"] == 1

    def test_deliveries_use_the_constant_label(self):
        sim, transport = self._transport()
        transport.attach("src", lambda e: None)
        transport.attach("dst", lambda e: None)
        transport.send("src", "dst", b"x")
        labels = set()
        while (event := sim.queue.pop()) is not None:
            labels.add(event.label)
        assert labels == {DELIVER_LABEL}
        assert DELIVER_LABEL == "deliver"  # bounded, population-free

    def test_late_installed_tap_sees_in_flight_messages(self):
        """A delivery tap installed while a message is in flight must
        still intercept it (_dispatch late-binds _deliver)."""
        sim, transport = self._transport()
        received, on_message = _collector()
        transport.attach("src", lambda e: None)
        transport.attach("dst", on_message)
        transport.send("src", "dst", b"x")

        tapped = []
        original = transport._deliver

        def tap(envelope):
            tapped.append(envelope)
            original(envelope)

        transport._deliver = tap
        sim.run_until(10.0)
        assert len(tapped) == 1 and len(received) == 1
