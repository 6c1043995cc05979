"""Deterministic fault injection for the measurement pipeline.

The paper's month-long crawl ran against a hostile network: peers
churned mid-download, served truncated or corrupted bytes, stalled,
rate-limited and partitioned.  This package reproduces that hostility
*on demand and deterministically*: a :class:`FaultPlan` declares a
schedule of fault windows, and the injectors replay it from named
``SeededStream``s, so identical seeds produce identical fault timelines
(``EventDigest``-stable) and a campaign's behaviour under stress is as
reproducible as its behaviour without.

Two injection surfaces:

* :class:`FaultInjector` taps the transport delivery chain (the same
  tap mechanism ``TransportTrace`` uses) for loss bursts, latency
  storms, network partitions and peer crash/blackhole;
* :class:`FetchFaults` rides the downloader's fetch path for
  slow-serve stalls and payload truncation/corruption.

Host-level chaos is declared here too but enforced elsewhere: worker
crashes (:class:`WorkerCrash`) by ``run_replications``, worker
hangs/stalls (:class:`WorkerHang` / :class:`WorkerStall`) by the
supervised pool in :mod:`repro.resilience.supervisor`, and chaotic IO
(:class:`TornWrite` / :class:`DiskFull` / :class:`SlowFsync`) by
:class:`HostIOFaults` hooking the crash-safe artifact store.
"""

from .injectors import (FaultInjector, FetchFaults, FetchIntervention,
                        HostIOFaults)
from .plan import (DiskFull, FaultPlan, InjectedWorkerCrash, LatencyStorm,
                   LossBurst, Partition, PeerCrash, SlowFsync, SlowServe,
                   Tamper, TornWrite, WorkerCrash, WorkerHang, WorkerStall,
                   SEVERITIES)

__all__ = [
    "FaultPlan", "LossBurst", "LatencyStorm", "Partition", "PeerCrash",
    "SlowServe", "Tamper", "WorkerCrash", "WorkerHang", "WorkerStall",
    "TornWrite", "DiskFull", "SlowFsync", "InjectedWorkerCrash",
    "SEVERITIES", "FaultInjector", "FetchFaults", "FetchIntervention",
    "HostIOFaults",
]
