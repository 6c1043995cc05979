"""Virtual transport: endpoints, links and message delivery.

Protocol layers (Gnutella, OpenFT) exchange *encoded byte payloads* through
this layer.  Each endpoint registers a delivery callback; ``send`` schedules
the callback on the receiving endpoint after a latency draw, optionally
dropping the message to model loss.  Endpoints correspond to hosts; a
dropped endpoint (peer went offline) silently swallows traffic, exactly as
a closed TCP connection would from the sender's point of view once the
kernel notices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from .kernel import Simulator
from .rng import SeededStream

__all__ = ["LatencyModel", "Envelope", "Endpoint", "Transport",
           "DROP_CAUSES", "DELIVER_LABEL"]

#: The one event label every delivery is scheduled under.  Deliberately
#: constant: the old ``f"deliver:{src}->{dst}"`` scheme interned one
#: string (and grew one telemetry ``label_counts`` key) per endpoint
#: pair -- unbounded in population size.  Per-pair traffic breakdowns
#: belong in sampled traces, not per-event labels.
DELIVER_LABEL = "deliver"


@dataclass
class LatencyModel:
    """One-way delay model: base propagation plus per-byte serialization.

    Defaults approximate 2006 broadband: tens of milliseconds propagation,
    ~1 Mbit/s effective upstream (Gnutella's dominant host class was cable
    or DSL).
    """

    base_min_s: float = 0.020
    base_max_s: float = 0.180
    bytes_per_second: float = 125_000.0

    def delay(self, stream: SeededStream, size_bytes: int) -> float:
        """Draw a one-way delay for a message of ``size_bytes``."""
        propagation = stream.uniform(self.base_min_s, self.base_max_s)
        serialization = size_bytes / self.bytes_per_second
        return propagation + serialization


@dataclass(slots=True)
class Envelope:
    """A message in flight between two endpoints.

    Slotted: one Envelope is allocated per transported message, so the
    per-instance ``__dict__`` was pure overhead on the hottest
    allocation site in a campaign.
    """

    src: str
    dst: str
    payload: bytes
    sent_at: float


@dataclass(eq=False)
class Endpoint:
    """A host's attachment to the virtual network.

    ``eq=False``: endpoints are identity-compared registry entries, and
    the generated ``__eq__`` would tuple-compare five fields (including
    a callback) on every accidental comparison.
    """

    endpoint_id: str
    on_message: Callable[[Envelope], None]
    online: bool = True
    received: int = 0
    sent: int = 0


#: Every cause the transport (or a fault injector) can drop a message for.
DROP_CAUSES = ("offline-sender", "unknown-dst", "random-loss",
               "offline-recv", "fault-injected")


class Transport:
    """Message fabric connecting all endpoints of one simulated overlay."""

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self._endpoints: Dict[str, Endpoint] = {}
        self._stream = sim.stream("transport")
        self.delivered = 0
        #: per-cause drop tally; ``dropped`` sums it (see DROP_CAUSES)
        self.drop_causes: Dict[str, int] = {cause: 0 for cause in DROP_CAUSES}

    @property
    def dropped(self) -> int:
        """Total messages dropped, across all causes."""
        return sum(self.drop_causes.values())

    def count_drop(self, cause: str) -> None:
        """Record one dropped message under ``cause``.

        The transport's own paths use the four built-in causes; fault
        injectors tap in with ``"fault-injected"``.
        """
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1

    # -- endpoint lifecycle -------------------------------------------------
    def attach(self, endpoint_id: str,
               on_message: Callable[[Envelope], None]) -> Endpoint:
        """Register a host; re-attaching an id is a logic error."""
        if endpoint_id in self._endpoints:
            raise ValueError(f"endpoint {endpoint_id!r} already attached")
        endpoint = Endpoint(endpoint_id=endpoint_id, on_message=on_message)
        self._endpoints[endpoint_id] = endpoint
        return endpoint

    def detach(self, endpoint_id: str) -> None:
        """Remove a host entirely (end of simulation lifetime)."""
        self._endpoints.pop(endpoint_id, None)

    def set_online(self, endpoint_id: str, online: bool) -> None:
        """Toggle a host's session state (churn hooks call this)."""
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is not None:
            endpoint.online = online

    def is_online(self, endpoint_id: str) -> bool:
        """True when the endpoint exists and its session is up."""
        endpoint = self._endpoints.get(endpoint_id)
        return endpoint is not None and endpoint.online

    def endpoint(self, endpoint_id: str) -> Optional[Endpoint]:
        """Look up an endpoint by id."""
        return self._endpoints.get(endpoint_id)

    # -- sending --------------------------------------------------------------
    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """Queue ``payload`` for delivery from ``src`` to ``dst``.

        Returns False when the message was dropped up-front (offline sender,
        unknown destination, or random loss).  A destination that goes
        offline while the message is in flight also loses it, checked at
        delivery time.
        """
        sender = self._endpoints.get(src)
        if sender is None or not sender.online:
            self.count_drop("offline-sender")
            return False
        if dst not in self._endpoints:
            self.count_drop("unknown-dst")
            return False
        if self.loss_rate and self._stream.bernoulli(self.loss_rate):
            self.count_drop("random-loss")
            return False

        sender.sent += 1
        now = self.sim.now
        envelope = Envelope(src, dst, payload, now)
        delay = self.latency.delay(self._stream, len(payload))
        # args-carrying event: no closure allocation.  The callback is
        # _dispatch, not the bound _deliver, so fault injectors and
        # traces that tap ``self._deliver`` after this message was
        # scheduled still see it (the tap is resolved at fire time).
        self.sim.queue.push(now + delay, self._dispatch,
                            DELIVER_LABEL, (envelope,))
        return True

    def send_many(self, src: str, dsts: Iterable[str],
                  payload: bytes) -> int:
        """Fan one encoded payload out to many destinations.

        Equivalent to calling :meth:`send` once per destination in
        order -- same drop accounting, same per-destination loss and
        latency draws, one scheduled delivery per receiver (so
        per-envelope taps observe every copy individually) -- but the
        caller encodes the payload exactly once.  Returns the number of
        messages actually queued.
        """
        send = self.send
        sent = 0
        for dst in dsts:
            if send(src, dst, payload):
                sent += 1
        return sent

    def _dispatch(self, envelope: Envelope) -> None:
        # late-binds self._deliver so delivery taps installed while the
        # message was in flight still intercept it
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        receiver = self._endpoints.get(envelope.dst)
        if receiver is None or not receiver.online:
            self.count_drop("offline-recv")
            return
        receiver.received += 1
        self.delivered += 1
        receiver.on_message(envelope)
