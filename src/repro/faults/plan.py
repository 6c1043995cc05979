"""Declarative fault schedules.

A :class:`FaultPlan` is a tuple of fault *clauses*, each describing one
window (or instant) of induced hostility.  Plans are plain frozen
dataclasses: picklable (they ride into replication worker processes
inside ``CampaignConfig``), comparable, and cheap to construct.  The
plan carries **no randomness** -- which messages a loss burst eats or
which peers a crash clause kills is drawn by the injectors from named
seeded streams at run time, so the realized fault timeline is a pure
function of (campaign seed, plan).

``FaultPlan.envelope`` builds the graded severity presets experiment R1
sweeps; :data:`SEVERITIES` orders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = ["LossBurst", "LatencyStorm", "Partition", "PeerCrash",
           "SlowServe", "Tamper", "WorkerCrash", "WorkerHang",
           "WorkerStall", "TornWrite", "DiskFull", "SlowFsync",
           "InjectedWorkerCrash", "FaultPlan", "SEVERITIES"]


class InjectedWorkerCrash(RuntimeError):
    """Raised inside a replication worker by a ``WorkerCrash`` clause."""


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0 or end_s <= start_s:
        raise ValueError(f"need 0 <= start_s < end_s, "
                         f"got [{start_s!r}, {end_s!r})")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class LossBurst:
    """Drop a fraction of deliveries during a window (congestion burst)."""

    start_s: float
    end_s: float
    loss_rate: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_probability("loss_rate", self.loss_rate)


@dataclass(frozen=True)
class LatencyStorm:
    """Add a uniform delay surcharge to every send during a window."""

    start_s: float
    end_s: float
    extra_min_s: float
    extra_max_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 <= self.extra_min_s <= self.extra_max_s:
            raise ValueError("need 0 <= extra_min_s <= extra_max_s")


@dataclass(frozen=True)
class Partition:
    """Split the overlay in two; cross-partition traffic is dropped.

    ``fraction`` of endpoints (drawn deterministically at activation)
    land on the isolated side; the window's end heals the partition.
    """

    start_s: float
    end_s: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_probability("fraction", self.fraction)


@dataclass(frozen=True)
class PeerCrash:
    """Permanently kill a fraction of peers at one instant.

    A *crash* is dirtier than churn's clean up/down: the peer never
    comes back, and its churn process keeps trying to revive it in
    vain.  With ``blackhole=True`` the peer instead stays nominally
    online but silently swallows all traffic to and from it -- the
    half-dead NAT box every 2006 crawler knew well.
    """

    at_s: float
    fraction: float
    blackhole: bool = False

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s!r}")
        _check_probability("fraction", self.fraction)


@dataclass(frozen=True)
class SlowServe:
    """Responders stall a fraction of fetch attempts during a window.

    A stalled attempt takes ``stall_min_s..stall_max_s`` virtual
    seconds to serve; stalls past the downloader's per-attempt timeout
    resolve as ``timeout`` outcomes instead of successes.
    """

    start_s: float
    end_s: float
    probability: float
    stall_min_s: float
    stall_max_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_probability("probability", self.probability)
        if not 0.0 < self.stall_min_s <= self.stall_max_s:
            raise ValueError("need 0 < stall_min_s <= stall_max_s")


@dataclass(frozen=True)
class Tamper:
    """Truncate or corrupt a fraction of fetched payloads in a window.

    Tampered bytes no longer hash to the advertised content id; the
    downloader's integrity verification turns them into ``truncated`` /
    ``corrupt`` outcomes rather than feeding them to the scanner.
    """

    start_s: float
    end_s: float
    truncate_probability: float = 0.0
    corrupt_probability: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        _check_probability("truncate_probability", self.truncate_probability)
        _check_probability("corrupt_probability", self.corrupt_probability)
        if self.truncate_probability + self.corrupt_probability > 1.0:
            raise ValueError("truncate + corrupt probabilities exceed 1")


@dataclass(frozen=True)
class WorkerCrash:
    """Pipeline-level chaos: named replication seeds crash their worker.

    ``attempts`` is how many attempts fail before the seed succeeds;
    the default 1 means the first attempt dies and the retry survives,
    2 kills the retry too (forcing quarantine).  Enforced by
    ``run_replications``, not the simulator.
    """

    seeds: Tuple[int, ...]
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def should_crash(self, seed: int, attempt: int) -> bool:
        """True when the worker for ``seed`` must die on ``attempt``."""
        return seed in self.seeds and attempt < self.attempts


@dataclass(frozen=True)
class WorkerHang:
    """Pipeline-level chaos: named seeds' workers wedge instead of working.

    A hung worker sleeps silently -- no heartbeats, no result, no exit.
    Only the supervisor's stall watchdog can unstick the run, which is
    exactly what this clause exists to prove.  ``attempts`` counts how
    many attempts hang before the seed computes normally (2 = the retry
    hangs too, forcing quarantine).  Enforced by the supervised pool's
    worker shim, never inside the simulator: an unsupervised run must
    not be able to wedge itself.
    """

    seeds: Tuple[int, ...]
    attempts: int = 1
    #: how long the wedged worker would sleep if nothing killed it
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def should_hang(self, seed: int, attempt: int) -> bool:
        """True when the worker for ``seed`` must wedge on ``attempt``."""
        return seed in self.seeds and attempt < self.attempts


@dataclass(frozen=True)
class WorkerStall:
    """Named seeds' workers freeze for ``stall_s`` before computing.

    Unlike :class:`WorkerHang` the worker eventually recovers on its
    own -- but it does not heartbeat while frozen, so a stall longer
    than the watchdog's patience still draws a kill.  The boundary
    between the two is the experiment.
    """

    seeds: Tuple[int, ...]
    attempts: int = 1
    stall_s: float = 5.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.stall_s <= 0:
            raise ValueError(f"stall_s must be positive, "
                             f"got {self.stall_s!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def should_stall(self, seed: int, attempt: int) -> bool:
        return seed in self.seeds and attempt < self.attempts


@dataclass(frozen=True)
class TornWrite:
    """Chaotic IO: truncate a fraction of artifact appends mid-record.

    A selected write commits only a seeded-length byte prefix -- the
    on-disk shape a power cut leaves.  ``at_ops`` additionally names
    exact write ordinals (0-based, per injector) to tear, for
    byte-precise crash-recovery tests.
    """

    probability: float = 0.0
    at_ops: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        object.__setattr__(self, "at_ops", tuple(self.at_ops))


@dataclass(frozen=True)
class DiskFull:
    """Chaotic IO: a write commits partial bytes then raises ENOSPC.

    The dirtiest failure a journal can meet: the torn bytes are on
    disk *and* the writer sees an exception.
    """

    probability: float = 0.0
    at_ops: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        object.__setattr__(self, "at_ops", tuple(self.at_ops))


@dataclass(frozen=True)
class SlowFsync:
    """Chaotic IO: fsync takes ``delay_s`` of real time.

    Models the overloaded spinning disk under the 2006 crawler; used to
    verify durable appends slow down but never reorder or tear.
    """

    probability: float = 1.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s!r}")


TransportClause = Union[LossBurst, LatencyStorm, Partition, PeerCrash]
FetchClause = Union[SlowServe, Tamper]
IOClause = Union[TornWrite, DiskFull, SlowFsync]

#: R1's graded severity scale, mildest first ("off" = no plan at all).
SEVERITIES = ("off", "mild", "moderate", "severe", "extreme")


@dataclass(frozen=True)
class FaultPlan:
    """One campaign's complete fault schedule."""

    clauses: Tuple[object, ...] = ()
    worker_crash: Optional[WorkerCrash] = None
    worker_hang: Optional[WorkerHang] = None
    worker_stall: Optional[WorkerStall] = None
    #: chaotic-IO clauses enforced against artifact writes on the host
    io_clauses: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        known = (LossBurst, LatencyStorm, Partition, PeerCrash,
                 SlowServe, Tamper)
        object.__setattr__(self, "clauses", tuple(self.clauses))
        for clause in self.clauses:
            if not isinstance(clause, known):
                raise TypeError(f"unknown fault clause {clause!r}")
        known_io = (TornWrite, DiskFull, SlowFsync)
        object.__setattr__(self, "io_clauses", tuple(self.io_clauses))
        for clause in self.io_clauses:
            if not isinstance(clause, known_io):
                raise TypeError(f"unknown IO fault clause {clause!r}")

    def __bool__(self) -> bool:
        return bool(self.clauses) or bool(self.io_clauses) or any(
            clause is not None for clause in
            (self.worker_crash, self.worker_hang, self.worker_stall))

    @property
    def transport_clauses(self) -> Tuple[object, ...]:
        """Clauses the transport-level injector enforces."""
        return tuple(clause for clause in self.clauses
                     if isinstance(clause, (LossBurst, LatencyStorm,
                                            Partition, PeerCrash)))

    @property
    def fetch_clauses(self) -> Tuple[object, ...]:
        """Clauses the fetch-path injector enforces."""
        return tuple(clause for clause in self.clauses
                     if isinstance(clause, (SlowServe, Tamper)))

    def scientific_key(self) -> str:
        """Stable identity of the *simulated* faults (checkpoint key).

        Deliberately excludes every host-level clause (``worker_crash``,
        ``worker_hang``, ``worker_stall``, ``io_clauses``): killing,
        wedging, or starving the *host* never changes a seed's measured
        results, so a checkpoint written under pipeline chaos stays
        valid when resuming without it -- and vice versa.
        """
        return repr(self.clauses)

    def describe(self) -> str:
        """One line per clause, for chaos-run banners."""
        host = [clause for clause in
                (self.worker_crash, self.worker_hang, self.worker_stall)
                if clause is not None]
        if not self.clauses and not host and not self.io_clauses:
            return "(empty plan)"
        lines = [repr(clause) for clause in self.clauses]
        lines.extend(repr(clause) for clause in host)
        lines.extend(repr(clause) for clause in self.io_clauses)
        return "\n".join(lines)

    @classmethod
    def envelope(cls, severity: str, horizon_s: float) -> "FaultPlan":
        """The graded R1 stress presets over a ``horizon_s`` campaign.

        Severity scales every axis at once -- loss, latency, partition,
        crash/blackhole, stalls, tampering -- so the sweep exercises
        their interactions, not one fault at a time.  ``"off"`` returns
        an empty plan (useful for uniform sweep code).
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s!r}")
        if severity == "off":
            return cls()
        grades = {
            # loss, extra latency (s), partition frac, crash frac,
            # blackhole frac, stall prob, stall max (s), tamper prob
            "mild": (0.02, (0.05, 0.25), 0.0, 0.01, 0.00, 0.03, 120.0, 0.02),
            "moderate": (0.05, (0.10, 0.50), 0.0, 0.03, 0.01, 0.08,
                         300.0, 0.06),
            "severe": (0.12, (0.25, 1.00), 0.25, 0.06, 0.03, 0.15,
                       900.0, 0.16),
            "extreme": (0.30, (0.50, 2.50), 0.50, 0.15, 0.08, 0.35,
                        2400.0, 0.45),
        }
        if severity not in grades:
            raise ValueError(f"unknown severity {severity!r}; "
                             f"choose from {SEVERITIES}")
        (loss, (lat_lo, lat_hi), part_frac, crash_frac, hole_frac,
         stall_p, stall_max, tamper_p) = grades[severity]
        h = horizon_s
        clauses = [
            # two loss bursts, early and late, each a fifth of the run
            LossBurst(0.10 * h, 0.30 * h, loss),
            LossBurst(0.60 * h, 0.80 * h, loss),
            LatencyStorm(0.35 * h, 0.55 * h, lat_lo, lat_hi),
            SlowServe(0.0, h, stall_p, 5.0, stall_max),
            Tamper(0.0, h, tamper_p / 2.0, tamper_p / 2.0),
            PeerCrash(0.50 * h, crash_frac),
        ]
        if hole_frac:
            clauses.append(PeerCrash(0.25 * h, hole_frac, blackhole=True))
        if part_frac:
            clauses.append(Partition(0.40 * h, 0.50 * h, part_frac))
        return cls(clauses=tuple(clauses))
