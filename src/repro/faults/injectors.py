"""Runtime fault injectors: replay a :class:`FaultPlan` deterministically.

:class:`FaultInjector` layers onto the transport the same way
:class:`~repro.simnet.trace.TransportTrace` does -- a delivery tap that
forwards to the ``_deliver`` it wrapped -- so injectors and traces stack
in any order and unwind cleanly.  Window activations are ordinary kernel
events (labelled ``fault:*``), and every stochastic decision draws from
a named ``faults:*`` stream, which keeps the realized fault timeline a
pure function of the campaign seed: two runs with the same seed lose the
same messages, crash the same peers and stall the same downloads, event
for event.

:class:`FetchFaults` is the fetch-path counterpart the downloader
consults per attempt; it never touches the transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..files.payload import Blob
from ..simnet.kernel import Simulator
from ..simnet.rng import SeededStream
from ..simnet.transport import Envelope, Transport
from .plan import (DiskFull, FaultPlan, LatencyStorm, LossBurst, Partition,
                   PeerCrash, SlowFsync, SlowServe, Tamper, TornWrite)

__all__ = ["FaultInjector", "FetchFaults", "FetchIntervention",
           "HostIOFaults"]


class _StormLatency:
    """Latency-model proxy adding the active storm surcharge per send."""

    def __init__(self, wrapped, injector: "FaultInjector") -> None:
        self._wrapped = wrapped
        self._injector = injector

    def delay(self, stream, size_bytes: int) -> float:
        base = self._wrapped.delay(stream, size_bytes)
        storms = self._injector._active_storms
        if not storms:
            return base
        extra = 0.0
        for storm in storms:
            extra += self._injector._latency_stream.uniform(
                storm.extra_min_s, storm.extra_max_s)
        self._injector._count("latency")
        return base + extra

    def __getattr__(self, name: str):
        return getattr(self._wrapped, name)


class FaultInjector:
    """Enforces a plan's transport clauses on one simulated overlay."""

    def __init__(self, sim: Simulator, transport: Transport,
                 plan: FaultPlan, registry=None,
                 protect: Sequence[str] = ("crawler",)) -> None:
        self.sim = sim
        self.transport = transport
        self.plan = plan
        #: endpoints fault clauses must never kill (the measurement host)
        self.protect = tuple(protect)
        self.injected: Dict[str, int] = {}
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                "faults_injected_total",
                "Fault actions performed by the chaos injectors.",
                labels=("kind",))
        self._loss_stream = sim.stream("faults:loss")
        self._latency_stream = sim.stream("faults:latency")
        self._partition_stream = sim.stream("faults:partition")
        self._crash_stream = sim.stream("faults:crash")
        self._active_loss: List[LossBurst] = []
        self._active_storms: List[LatencyStorm] = []
        #: endpoint -> side for every active partition (stacked windows)
        self._partition_sides: List[Dict[str, int]] = []
        self._crashed: Dict[str, bool] = {}
        self._blackholed: Dict[str, bool] = {}
        self._installed = False
        self._original_deliver: Optional[Callable] = None
        self._original_set_online: Optional[Callable] = None
        self._original_latency = None

    # -- bookkeeping --------------------------------------------------------
    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self._counter is not None:
            self._counter.labels(kind).inc()

    def _drop(self, kind: str) -> None:
        self.transport.count_drop("fault-injected")
        self._count(kind)

    # -- lifecycle ----------------------------------------------------------
    def install(self) -> None:
        """Tap the transport and schedule every clause window."""
        if self._installed:
            return
        self._original_deliver = self.transport._deliver

        def tapped(envelope: Envelope) -> None:
            if self._installed and self._intercept(envelope):
                return
            assert self._original_deliver is not None
            self._original_deliver(envelope)

        tapped._trace_owner = self  # type: ignore[attr-defined]
        self.transport._deliver = tapped  # type: ignore[method-assign]

        self._original_set_online = self.transport.set_online

        def guarded_set_online(endpoint_id: str, online: bool) -> None:
            # a crashed peer is dead for good: churn's revival attempts
            # are swallowed (that is what makes a crash dirtier than a
            # clean session end)
            if online and self._installed and endpoint_id in self._crashed:
                return
            assert self._original_set_online is not None
            self._original_set_online(endpoint_id, online)

        self.transport.set_online = guarded_set_online  # type: ignore

        self._original_latency = self.transport.latency
        self.transport.latency = _StormLatency(self._original_latency, self)

        self._installed = True
        now = self.sim.now
        for clause in self.plan.transport_clauses:
            if isinstance(clause, LossBurst):
                self._window(clause, "fault:loss",
                             self._active_loss.append,
                             self._active_loss.remove)
            elif isinstance(clause, LatencyStorm):
                self._window(clause, "fault:latency",
                             self._active_storms.append,
                             self._active_storms.remove)
            elif isinstance(clause, Partition):
                self._schedule_partition(clause)
            elif isinstance(clause, PeerCrash):
                self.sim.at(max(clause.at_s, now),
                            lambda clause=clause: self._crash(clause),
                            label="fault:crash")

    def uninstall(self) -> None:
        """Stop injecting; the tap chain unwinds like a trace's does."""
        if not self._installed:
            return
        self._installed = False
        if self._original_set_online is not None:
            self.transport.set_online = self._original_set_online  # type: ignore
        if self._original_latency is not None:
            self.transport.latency = self._original_latency
        while True:
            owner = getattr(self.transport._deliver, "_trace_owner", None)
            if owner is None or owner._installed:
                break
            self.transport._deliver = (  # type: ignore[method-assign]
                owner._original_deliver)

    def _window(self, clause, label: str, activate, deactivate) -> None:
        now = self.sim.now
        self.sim.at(max(clause.start_s, now),
                    lambda: activate(clause), label=label)
        self.sim.at(max(clause.end_s, now),
                    lambda: deactivate(clause), label=label)

    # -- clause mechanics ----------------------------------------------------
    def _schedule_partition(self, clause: Partition) -> None:
        now = self.sim.now
        sides: Dict[str, int] = {}

        def activate() -> None:
            # deterministic split: sorted census, seeded sample
            endpoints = sorted(self.transport._endpoints)
            isolated = round(clause.fraction * len(endpoints))
            chosen = self._partition_stream.sample(endpoints, isolated)
            sides.clear()
            sides.update({endpoint_id: 1 for endpoint_id in chosen})
            self._partition_sides.append(sides)
            self._count("partition")

        def heal() -> None:
            if sides in self._partition_sides:
                self._partition_sides.remove(sides)

        self.sim.at(max(clause.start_s, now), activate,
                    label="fault:partition")
        self.sim.at(max(clause.end_s, now), heal, label="fault:partition")

    def _crash(self, clause: PeerCrash) -> None:
        protected = set(self.protect)
        candidates = [endpoint_id
                      for endpoint_id in sorted(self.transport._endpoints)
                      if endpoint_id not in protected
                      and endpoint_id not in self._crashed
                      and endpoint_id not in self._blackholed]
        count = round(clause.fraction * len(candidates))
        for endpoint_id in self._crash_stream.sample(candidates, count):
            if clause.blackhole:
                self._blackholed[endpoint_id] = True
                self._count("blackhole")
            else:
                self._crashed[endpoint_id] = True
                # through the guarded wrapper, which lets False pass
                self.transport.set_online(endpoint_id, False)
                self._count("crash")

    def _intercept(self, envelope: Envelope) -> bool:
        """True when the envelope dies here instead of being delivered."""
        if envelope.src in self._blackholed or \
                envelope.dst in self._blackholed:
            self._drop("blackhole-drop")
            return True
        for sides in self._partition_sides:
            if sides.get(envelope.src, 0) != sides.get(envelope.dst, 0):
                self._drop("partition-drop")
                return True
        for burst in self._active_loss:
            if self._loss_stream.bernoulli(burst.loss_rate):
                self._drop("loss")
                return True
        return False


@dataclass
class FetchIntervention:
    """What the fetch-path injector decided for one download attempt."""

    stall_s: float = 0.0
    tamper: Optional[str] = None  # "truncate" | "corrupt" | None

    def tamper_blob(self, blob: Blob) -> Blob:
        """Apply the tamper decision to a fetched blob.

        Tampered blobs are rebuilt from scratch (never ``replace``-d)
        so the identity caches cannot leak the original hashes -- the
        whole point is that the bytes no longer match the advertised
        content id.
        """
        if self.tamper == "truncate":
            # the connection died mid-body: shorter payload, members
            # (archive tails) lost
            return Blob(content_key=blob.content_key + "#truncated",
                        extension=blob.extension,
                        size=max(0, blob.size // 3),
                        markers=(), members=())
        if self.tamper == "corrupt":
            # bit rot in transit: same shape, different bytes
            return Blob(content_key=blob.content_key + "#corrupt",
                        extension=blob.extension, size=blob.size,
                        markers=blob.markers, members=blob.members)
        return blob


class FetchFaults:
    """Per-attempt fetch-path faults (slow serves and tampering).

    The downloader consults :meth:`on_fetch` once per attempt; with no
    active clause it returns None and the attempt proceeds exactly as
    an uninjected one (no draws, no extra events).
    """

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 registry=None) -> None:
        self.sim = sim
        self.slow_clauses = tuple(clause for clause in plan.fetch_clauses
                                  if isinstance(clause, SlowServe))
        self.tamper_clauses = tuple(clause for clause in plan.fetch_clauses
                                    if isinstance(clause, Tamper))
        self._stream = sim.stream("faults:fetch")
        self.injected: Dict[str, int] = {}
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                "faults_injected_total",
                "Fault actions performed by the chaos injectors.",
                labels=("kind",))

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self._counter is not None:
            self._counter.labels(kind).inc()

    def on_fetch(self, record, attempt: int) -> Optional[FetchIntervention]:
        """Decide this attempt's fate; None means hands-off."""
        now = self.sim.now
        stall_s = 0.0
        for clause in self.slow_clauses:
            if clause.start_s <= now < clause.end_s and \
                    self._stream.bernoulli(clause.probability):
                stall_s = self._stream.uniform(clause.stall_min_s,
                                               clause.stall_max_s)
                self._count("stall")
                break
        tamper = None
        for clause in self.tamper_clauses:
            if clause.start_s <= now < clause.end_s:
                draw = self._stream.random()
                if draw < clause.truncate_probability:
                    tamper = "truncate"
                    self._count("truncate")
                elif draw < (clause.truncate_probability
                             + clause.corrupt_probability):
                    tamper = "corrupt"
                    self._count("corrupt")
                if tamper is not None:
                    break
        if stall_s == 0.0 and tamper is None:
            return None
        return FetchIntervention(stall_s=stall_s, tamper=tamper)


class HostIOFaults:
    """Chaotic host IO: enforce a plan's ``io_clauses`` on artifact writes.

    This shim implements the duck-typed hook interface of
    :mod:`repro.resilience.store` (``apply_write`` / ``on_fsync``)
    without that module ever importing this layer.  Like every other
    injector, all randomness comes from one named seeded stream, so
    which write ordinal gets torn -- and at which byte -- is a pure
    function of (seed, write order): the crash-recovery tests can
    replay the exact same carnage twice.

    Unlike the simulated-time injectors this one acts on *real* disk
    writes; a :class:`~repro.faults.plan.SlowFsync` clause therefore
    burns real wall-clock time, which is the point (it models the
    overloaded artifact disk, not the overlay).
    """

    def __init__(self, plan: FaultPlan, seed: int, registry=None) -> None:
        self.torn_clauses = tuple(clause for clause in plan.io_clauses
                                  if isinstance(clause, TornWrite))
        self.disk_full_clauses = tuple(clause for clause in plan.io_clauses
                                       if isinstance(clause, DiskFull))
        self.fsync_clauses = tuple(clause for clause in plan.io_clauses
                                   if isinstance(clause, SlowFsync))
        self._stream = SeededStream(seed, "faults:io")
        # tear lengths come from their own stream so an at_ops-only
        # firing never advances the fire-decision draws
        self._len_stream = SeededStream(seed, "faults:io:len")
        #: write ordinal, incremented per apply_write call
        self.ops = 0
        self.injected: Dict[str, int] = {}
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                "faults_injected_total",
                "Fault actions performed by the chaos injectors.",
                labels=("kind",))

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self._counter is not None:
            self._counter.labels(kind).inc()

    def _fires(self, clause, op: int) -> bool:
        # the bernoulli draw is unconditional so the stream advances
        # identically whether or not at_ops short-circuits: adding an
        # explicit ordinal must not reshuffle later probabilistic tears
        drew = self._stream.bernoulli(clause.probability) \
            if clause.probability else False
        return op in clause.at_ops or drew

    def apply_write(self, path, data: bytes):
        """Decide one write's fate: (bytes actually written, error).

        DiskFull wins over TornWrite when both fire: it is strictly
        nastier (partial bytes *and* an exception).
        """
        op = self.ops
        self.ops += 1
        for clause in self.disk_full_clauses:
            if self._fires(clause, op):
                keep = self._len_stream.randint(0, max(0, len(data) - 1))
                self._count("disk-full")
                import errno
                return data[:keep], OSError(
                    errno.ENOSPC, "injected: no space left on device",
                    str(path))
        for clause in self.torn_clauses:
            if self._fires(clause, op):
                keep = self._len_stream.randint(0, max(0, len(data) - 1))
                self._count("torn-write")
                return data[:keep], None
        return data, None

    def on_fsync(self, path) -> None:
        import time
        for clause in self.fsync_clauses:
            if self._stream.bernoulli(clause.probability):
                self._count("slow-fsync")
                time.sleep(clause.delay_s)
