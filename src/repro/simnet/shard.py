"""Overlay sharding primitives: partition plan, scoped transport, windows.

The sharded kernel (see :mod:`repro.core.sharded`) runs one full
:class:`~repro.simnet.kernel.Simulator` per shard and advances them in
*conservative time windows*: every shard may safely process events up to
``T_min + L``, where ``T_min`` is the earliest pending event across all
shards and ``L`` (the *lookahead*) is the minimum inter-shard link
latency -- no message sent at or after ``T_min`` can arrive before the
window closes, so no shard can receive an event from the past.  This
module holds the pieces of that design that are pure simnet:

* :class:`ShardPlan` -- the deterministic endpoint -> shard assignment;
* :class:`ShardedTransport` -- a :class:`~repro.simnet.transport.
  Transport` that only *sends* for endpoints its shard owns, routes
  cross-shard deliveries through an outbox, and (crucially for
  N-invariance) draws loss/latency from per-*source* streams so a
  message's fate never depends on which shard happens to own its
  sender;
* :class:`WindowDriver` -- the barrier loop itself, executor-agnostic:
  the serial twin and the multi-process executor both drive their
  shards through this exact code.

Windows are *end-exclusive*: a window ``[T_min, W)`` is run via
``run_until(nextafter(W, -inf))`` because the kernel's ``run_until`` is
end-inclusive and an event scheduled at exactly ``W`` belongs to the
next window (a zero-payload message sent at ``T_min`` whose latency
draw lands on ``base_min_s`` arrives at exactly ``T_min + L == W``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .transport import DELIVER_LABEL, Envelope, LatencyModel, Transport

__all__ = ["ShardPlan", "ShardedTransport", "WindowDriver",
           "lookahead_of", "window_run_target"]


def lookahead_of(latency: LatencyModel) -> float:
    """The conservative lookahead a latency model guarantees.

    Every delay is ``uniform(base_min_s, base_max_s) + size/rate`` with
    ``size >= 0``, so ``base_min_s`` lower-bounds the time any message
    spends in flight -- the window size the sync protocol may safely
    advance by past the earliest pending event.
    """
    return latency.base_min_s


def window_run_target(window_end: float) -> float:
    """The end-inclusive ``run_until`` target for an end-exclusive window."""
    return math.nextafter(window_end, float("-inf"))


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic endpoint -> shard ownership map.

    Endpoints not in the map (notably the measurement crawler, attached
    mid-campaign) belong to ``default_shard`` -- shard 0, which also
    hosts the measurement plane.
    """

    nshards: int
    owners: Dict[str, int] = field(default_factory=dict)
    default_shard: int = 0

    def __post_init__(self) -> None:
        if self.nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {self.nshards!r}")

    def owner_of(self, endpoint_id: str) -> int:
        """The shard that owns ``endpoint_id``'s sends and deliveries."""
        return self.owners.get(endpoint_id, self.default_shard)

    @classmethod
    def from_groups(cls, nshards: int,
                    groups: Sequence[Sequence[str]]) -> "ShardPlan":
        """Round-robin whole neighbourhoods onto shards.

        ``groups`` is an ordered partition of the endpoint ids (an
        ultrapeer and its leaves; a search node and its users): group
        ``i`` lands on shard ``i % nshards``, keeping tightly-coupled
        endpoints co-resident while balancing shard sizes.  The order
        of ``groups`` is part of the deterministic contract -- callers
        derive it from build-time state that is identical on every
        shard.
        """
        owners: Dict[str, int] = {}
        for index, group in enumerate(groups):
            shard = index % nshards
            for endpoint_id in group:
                owners[endpoint_id] = shard
        return cls(nshards=nshards, owners=owners)


#: A cross-shard message at rest between barriers.  Plain tuple of
#: plain fields -- these are what the pickled pipe batches carry:
#: (deliver_time, src, send_seq, dst, payload bytes, sent_at).
OutboxEntry = Tuple[float, str, int, str, bytes, float]


class ShardedTransport(Transport):
    """Transport twin that partitions the send side by endpoint owner.

    Every shard builds the *entire* world (the build is replicated, so
    all shards agree on endpoints, topology and seeded state), but only
    the owner of a source endpoint actually performs its sends -- a
    non-owned source returns False before any stream draw, so the
    replicated timer/churn hooks that fire everywhere stay draw-free
    outside their owner.  Deliveries into endpoints owned by other
    shards are parked in :attr:`outbox` and shipped at the next barrier.

    In shard mode (``nshards >= 2``) loss and latency draw from
    per-source ``shard:transport:<src>`` streams: a source's draw order
    is then its own send order, which is invariant under the partition
    -- the whole reason N-shard runs collect identical measurement
    bytes for any N.  With one shard the plan is a no-op and sends
    delegate verbatim to :meth:`Transport.send` (shared ``transport``
    stream): bit-identical to the plain kernel.
    """

    #: protocol layers and fault injectors key their shard-mode
    #: behaviour off this class attribute (duck-typed via getattr so
    #: the plain Transport needs no knowledge of sharding)
    shard_scoped = True

    def __init__(self, sim, latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0) -> None:
        super().__init__(sim, latency=latency, loss_rate=loss_rate)
        self._plan: Optional[ShardPlan] = None
        self._shard_id = 0
        #: cross-shard envelopes produced since the last barrier
        self.outbox: List[OutboxEntry] = []
        self._send_seq: Dict[str, int] = {}
        self._src_streams: Dict[str, object] = {}
        #: cross-shard delivery tallies (telemetry, fingerprints)
        self.cross_sent = 0
        self.cross_received = 0

    # -- plan binding -------------------------------------------------------
    def bind(self, plan: ShardPlan, shard_id: int) -> None:
        """Attach the ownership plan; sends before this are replicated.

        World building happens *before* the plan exists (the plan is
        derived from the built topology), so build-time sends -- the
        OpenFT adoption handshakes -- run identically on every shard
        through the plain path and their deliveries fire replicated.
        That is correct by construction: replicated sends mutate
        replicated state identically everywhere.
        """
        if plan.nshards > 1 and shard_id >= plan.nshards:
            raise ValueError(f"shard_id {shard_id} out of range for "
                             f"{plan.nshards} shards")
        self._plan = plan
        self._shard_id = shard_id

    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def shard_active(self) -> bool:
        """True once a real (N >= 2) partition is bound.

        Protocol layers and fault injectors consult this (via getattr,
        so the plain Transport reads as False) to switch the few
        predicates that would otherwise read replica state another
        shard owns.  With one shard nothing is partitioned and every
        code path must stay byte-for-byte the plain one.
        """
        return self._plan is not None and self._plan.nshards > 1

    def _src_stream(self, src: str):
        stream = self._src_streams.get(src)
        if stream is None:
            stream = self.sim.stream(f"shard:transport:{src}")
            self._src_streams[src] = stream
        return stream

    # -- sending ------------------------------------------------------------
    def send(self, src: str, dst: str, payload: bytes) -> bool:
        """Queue ``payload`` from ``src``; owner-filtered in shard mode.

        Mirrors :meth:`Transport.send` check for check (same causes,
        same order) but draws from the per-source stream and parks
        remote deliveries in the outbox.  Returns False for a source
        this shard does not own -- before any draw, so replicated
        callers stay stream-neutral off their owner shard.
        """
        plan = self._plan
        if plan is None or plan.nshards == 1:
            return Transport.send(self, src, dst, payload)
        if plan.owner_of(src) != self._shard_id:
            return False
        sender = self._endpoints.get(src)
        if sender is None or not sender.online:
            self.count_drop("offline-sender")
            return False
        if dst not in self._endpoints:
            self.count_drop("unknown-dst")
            return False
        stream = self._src_stream(src)
        if self.loss_rate and stream.bernoulli(self.loss_rate):
            self.count_drop("random-loss")
            return False

        sender.sent += 1
        now = self.sim.now
        delay = self.latency.delay(stream, len(payload))
        if plan.owner_of(dst) == self._shard_id:
            envelope = Envelope(src=src, dst=dst, payload=payload,
                                sent_at=now)
            self.sim.queue.push(now + delay, self._dispatch,
                                DELIVER_LABEL, (envelope,))
        else:
            seq = self._send_seq.get(src, 0)
            self._send_seq[src] = seq + 1
            self.cross_sent += 1
            self.outbox.append((now + delay, src, seq, dst, payload, now))
        return True

    # -- barrier exchange ---------------------------------------------------
    def take_outbox(self) -> List[OutboxEntry]:
        """Drain the cross-shard entries produced since the last call."""
        out, self.outbox = self.outbox, []
        return out

    def ingest(self, batch: Sequence[OutboxEntry]) -> None:
        """Schedule a barrier batch of inbound cross-shard deliveries.

        The caller hands the batch pre-sorted by ``(deliver_time, src,
        send_seq)`` -- a canonical order independent of which shard
        produced which entry -- and every entry's ``deliver_time`` lies
        at or beyond the window boundary (guaranteed by the lookahead).
        Deliveries go through ``_dispatch`` exactly like local ones, so
        fault-injector and trace taps intercept them identically.
        """
        push = self.sim.queue.push
        dispatch = self._dispatch
        for deliver_time, src, _seq, dst, payload, sent_at in batch:
            self.cross_received += 1
            envelope = Envelope(src=src, dst=dst, payload=payload,
                                sent_at=sent_at)
            push(deliver_time, dispatch, DELIVER_LABEL, (envelope,))


class WindowDriver:
    """The conservative-window barrier loop, over any shard handles.

    A *shard handle* is duck-typed: ``peek() -> float | None`` (next
    pending event time) and ``advance(target, inclusive, batch) ->
    (outbox, peek)``.  Handles that also expose ``start_advance`` /
    ``finish_advance`` get the two calls split around the barrier so
    all shards compute their window concurrently (the pipe proxies of
    the multi-process executor).  The serial executor hands in
    in-process runtimes; the barrier algebra is this one class either
    way, which is what makes the serial twin a meaningful reference.

    With one shard (and ``force_windows`` unset) the loop degenerates
    to a single inclusive advance per segment: no cross-shard messages
    can exist, so conservative windows would be pure overhead -- this
    is what keeps the ``shards=1`` configuration within a few percent
    of the plain kernel.  ``force_windows=True`` runs the full window
    loop anyway, which the equivalence tests use to prove the window
    math itself is bit-identical to an unwindowed run.
    """

    def __init__(self, shards: Sequence[object], plan: ShardPlan,
                 lookahead: float, force_windows: bool = False) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead!r}")
        self.shards = list(shards)
        self.plan = plan
        self.lookahead = lookahead
        self.degenerate = plan.nshards == 1 and not force_windows
        #: envelopes collected at the last barrier, not yet ingested
        self.pending: List[OutboxEntry] = []
        self.windows = 0
        self.barriers = 0
        #: parent-side hook fired before every barrier round (the
        #: ShardCrash host-fault clause hangs its SIGKILL off this)
        self.on_barrier = None
        self._peeks: List[float] = [math.inf] * len(self.shards)

    def absorb(self, outbox: Sequence[OutboxEntry]) -> None:
        """Bank cross-shard envelopes produced outside a window (phases)."""
        self.pending.extend(outbox)

    def _split_pending(self) -> List[List[OutboxEntry]]:
        """Partition + canonically sort the pending batch per dst shard."""
        owner_of = self.plan.owner_of
        batches: List[List[OutboxEntry]] = [[] for _ in self.shards]
        for entry in self.pending:
            batches[owner_of(entry[3])].append(entry)
        self.pending = []
        for batch in batches:
            batch.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return batches

    def _advance_all(self, target: float, inclusive: bool) -> None:
        if self.on_barrier is not None:
            self.on_barrier()
        batches = self._split_pending()
        self.barriers += 1
        # ship the window to every pipelined handle first, run the
        # in-process handles while the workers compute, then collect --
        # shard 0 (in the parent) overlaps with the pipe workers
        replies: List[Optional[tuple]] = [None] * len(self.shards)
        deferred: List[int] = []
        for index, (shard, batch) in enumerate(zip(self.shards, batches)):
            start = getattr(shard, "start_advance", None)
            if start is not None:
                start(target, inclusive, batch)
                deferred.append(index)
        for index, (shard, batch) in enumerate(zip(self.shards, batches)):
            if replies[index] is None and index not in deferred:
                replies[index] = shard.advance(target, inclusive, batch)
        for index in deferred:
            replies[index] = self.shards[index].finish_advance()
        for index, (outbox, peek) in enumerate(replies):
            self.pending.extend(outbox)
            self._peeks[index] = math.inf if peek is None else peek

    def refresh(self) -> None:
        """Re-query every shard's next event time (after phase hooks)."""
        self._peeks = [
            math.inf if peek is None else peek
            for peek in (shard.peek() for shard in self.shards)]

    def horizon(self) -> float:
        """Earliest actionable time: shard queues plus in-flight batches."""
        t_min = min(self._peeks) if self._peeks else math.inf
        for entry in self.pending:
            if entry[0] < t_min:
                t_min = entry[0]
        return t_min

    def run_segment(self, final: float) -> None:
        """Advance every shard to ``final`` (inclusive), window by window.

        Loops end-exclusive windows of ``T_min + lookahead`` until the
        next window would reach past ``final``, then runs one inclusive
        closing window: with ``T_min + L > final`` no send inside it
        can deliver at or before ``final`` on another shard, so the
        inclusive run cannot miss a cross-shard message.  Envelopes
        still in flight afterwards stay in :attr:`pending` for the next
        segment (their delivery times lie beyond ``final``).
        """
        if self.degenerate:
            self._advance_all(final, inclusive=True)
            return
        self.refresh()
        while True:
            t_min = self.horizon()
            if t_min == math.inf or t_min + self.lookahead > final:
                self._advance_all(final, inclusive=True)
                return
            self.windows += 1
            self._advance_all(t_min + self.lookahead, inclusive=False)
