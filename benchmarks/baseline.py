#!/usr/bin/env python3
"""Benchmark baseline runner: record the perf trajectory of the repo.

Times the hot paths the campaign fast-path and chaos-harness work
target --

* **events/sec**: raw kernel throughput over a churn-heavy timer
  program that cancels 3 of every 5 timers.  The plain and
  telemetry-attached legs run *interleaved in the same measurement
  window* over the *identical workload*, so ``events_per_sec`` and
  ``events_per_sec_telemetry`` are directly comparable and the
  overhead ratio is immune to machine-load drift (gated in CI via
  ``--assert-overhead``).  Timers land 1..1000 s out, so the leg
  exercises the tiered scheduler's wheel level 0 and the bulk
  slot-absorption path into the calendar window as the clock chases
  the horizon -- not the window alone;
* **data-plane msgs/sec**: framed Gnutella fan-out through the
  transport -- encode-once + header re-stamp per hop, ``send_many``
  delivery -- with the frame-cache hit rate and the
  tracemalloc-measured in-flight envelope footprint;
* **scans/sec**: the scan engine over a duplicate-heavy blob workload
  (the paper's: a handful of malware instances dominate responses), with
  the verdict-cache hit rate -- both sourced from the engine's telemetry
  registry, the same instruments a campaign exports;
* **fault-harness overhead**: the same campaign run with
  ``fault_plan=None`` vs an armed-but-idle :class:`FaultPlan` (all
  probabilities zero), proving the chaos taps cost nothing when no
  fault fires and the faults-off hot path is untouched;
* **replication wall-clock**: a multi-seed `run_replications` campaign,
  serial vs process-pool parallel;
* **supervision overhead**: the same multi-seed campaign under the
  plain pool vs the watchdogged ``supervised_map`` pool (per-seed
  heartbeats, stall/deadline watchdogs), reports asserted identical,
  gated in CI via ``--assert-overhead resilience_overhead_pct=10``;

-- and writes the numbers to ``benchmarks/BENCH_<rev>.json`` so
``scripts/bench_compare.py`` can diff any two revisions.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py [--quick] [--out DIR]
                                                 [--workers W] [--rev R]
                                                 [--assert-overhead PCT]

Every leg runs with the determinism sanitizer OFF (there is no flag to
turn it on here, deliberately): ``DeterminismSanitizer`` patches module
attributes on hot paths, so a sanitized leg would time the tripwires
rather than the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def _detect_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True,
                             cwd=Path(__file__).resolve().parent)
        return out.stdout.strip() or "dev"
    except (OSError, subprocess.CalledProcessError):
        return "dev"


def bench_kernel(total: int) -> dict:
    """Kernel throughput, plain and with telemetry, same window.

    One workload -- schedule ``total`` timers 1..1000 s out, cancel 3
    of every 5 (peers going offline), time the drain -- run twice per
    repetition: once plain, once with a ``KernelTelemetry`` attached.
    The legs alternate inside the same measurement window and take
    best-of-5 each, so the overhead ratio sees the same machine-load
    drift on both sides and ``events_per_sec_telemetry`` can never
    beat ``events_per_sec`` just because it ran a friendlier program
    (the pre-PR6 anomaly: the telemetry leg used to time a cancel-free
    workload).
    """
    from repro.simnet.kernel import Simulator
    from repro.telemetry import KernelTelemetry, MetricRegistry

    def one_run(telemetry):
        sim = Simulator(seed=7, telemetry=telemetry)
        counter = [0]

        def fire() -> None:
            counter[0] += 1

        events = [sim.at(float(i % 1000) + 1.0, fire, label="bench")
                  for i in range(total)]
        # churn: cancel 3 of every 5 timers -- past the 50% dead
        # fraction, so tombstone purging kicks in on both twins
        for index, event in enumerate(events):
            if index % 5 < 3:
                sim.cancel(event)
        start = time.perf_counter()
        sim.run_all()
        return time.perf_counter() - start, counter[0], sim

    registry = MetricRegistry()
    plain_times, telemetry_times = [], []
    fired = compactions = 0
    for _ in range(5):
        elapsed, fired, sim = one_run(None)
        plain_times.append(elapsed)
        compactions = sim.queue.compactions
        elapsed, fired_telemetry, _ = one_run(KernelTelemetry(registry))
        telemetry_times.append(elapsed)
        if fired_telemetry != fired:
            raise AssertionError(
                f"telemetry leg fired {fired_telemetry} events, "
                f"plain leg fired {fired}: workloads drifted apart")
    plain_s = min(plain_times)
    telemetry_s = min(telemetry_times)
    sampled = registry.get("sim_callback_wall_seconds")
    return {
        "events_per_sec": fired / plain_s if plain_s else 0.0,
        "events_fired": fired,
        "events_cancelled": total - fired,
        "queue_compactions": compactions,
        "events_per_sec_telemetry": (fired / telemetry_s
                                     if telemetry_s else 0.0),
        "telemetry_overhead_pct": ((telemetry_s - plain_s) / plain_s
                                   * 100.0 if plain_s else 0.0),
        "telemetry_sampled_callbacks": sampled.count if sampled else 0,
    }


def bench_dataplane(messages: int) -> dict:
    """Data-plane throughput: encode-once fan-out through the transport.

    A ring of peers relays framed Gnutella queries the way a flooding
    servent does: each message is framed once at its origin (one
    frame-cache miss) and re-stamped per forwarding hop (hits), then
    fanned out to several peers with ``send_many``.  Reports messages/s
    through the full frame+schedule+deliver pipeline, the frame-cache
    hit rate, and the per-message in-flight envelope footprint measured
    with tracemalloc (untimed side leg, so tracing never skews the
    throughput number).
    """
    import tracemalloc

    from repro.gnutella.messages import FrameCache, Query
    from repro.simnet.kernel import Simulator
    from repro.simnet.transport import LatencyModel, Transport

    peers = 16
    fan_out = 7
    hops = 3
    query = Query(min_speed_kbps=0, criteria="popular title")

    def build():
        sim = Simulator(seed=13)
        transport = Transport(sim, LatencyModel())
        ids = [f"p{i}" for i in range(peers)]
        return sim, transport, ids

    def send_round(transport, ids, cache, index):
        """One message: origin frame + ``hops`` re-stamped forwards."""
        guid = index.to_bytes(16, "little")
        queued = 0
        for hop in range(hops + 1):
            raw = cache.frame(guid, query, ttl=7 - hop, hops=hop)
            src = ids[(index + hop) % peers]
            dsts = [ids[(index + hop + k) % peers]
                    for k in range(1, fan_out + 1)]
            queued += transport.send_many(src, dsts, raw)
        return queued

    def run_leg(count):
        sim, transport, ids = build()
        for endpoint_id in ids:
            transport.attach(endpoint_id, lambda e: None)
        cache = FrameCache(capacity=512)
        queued = 0
        for index in range(count):
            queued += send_round(transport, ids, cache, index)
        sim.run_all()
        return queued, cache

    # timed leg (no tracing)
    rounds = max(1, messages // ((hops + 1) * fan_out))
    start = time.perf_counter()
    queued, cache = run_leg(rounds)
    elapsed = time.perf_counter() - start

    # footprint leg: queue a slice, snapshot while everything is in
    # flight, attribute the allocations made by transport.py (envelopes
    # plus their scheduling)
    tracemalloc.start()
    sim, transport, ids = build()
    for endpoint_id in ids:
        transport.attach(endpoint_id, lambda e: None)
    probe_cache = FrameCache(capacity=512)
    before = tracemalloc.take_snapshot()
    probed = 0
    for index in range(200):
        probed += send_round(transport, ids, probe_cache, index)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    envelope_bytes = sum(
        stat.size_diff for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename.endswith("transport.py"))

    return {
        "dataplane_msgs_per_sec": queued / elapsed if elapsed else 0.0,
        "dataplane_messages": queued,
        "dataplane_frame_cache_hit_rate": cache.hit_rate,
        "dataplane_envelope_bytes_per_msg": (envelope_bytes / probed
                                             if probed else 0.0),
    }


def bench_scans(scans: int) -> dict:
    """Scan throughput over a duplicate-heavy corpus (cache + matcher).

    The reported scans/cache-hit numbers come from the engine's
    telemetry registry -- the same instruments a campaign run exports --
    so the bench and the metrics endpoint cannot drift apart.
    """
    import random

    from repro.files.payload import Blob
    from repro.malware.corpus import limewire_strains
    from repro.malware.infection import strain_body_blob
    from repro.scanner.database import database_for_strains
    from repro.scanner.engine import ScanEngine
    from repro.telemetry import MetricRegistry

    strains = limewire_strains()
    registry = MetricRegistry()
    engine = ScanEngine(database_for_strains(strains), registry=registry)
    infected = [strain_body_blob(strain) for strain in strains]
    clean = [Blob(content_key=f"clean-{i}", extension="mp3",
                  size=3_000_000 + i) for i in range(200)]
    # paper-shaped workload: the top strains dominate, clean files are
    # drawn from a modest pool -- lots of byte-identical repeats
    rng = random.Random(42)
    corpus = []
    for _ in range(scans):
        if rng.random() < 0.65:
            corpus.append(infected[min(rng.randrange(len(infected)),
                                       rng.randrange(len(infected)))])
        else:
            corpus.append(clean[rng.randrange(len(clean))])

    start = time.perf_counter()
    detected = sum(1 for blob in corpus if not engine.scan(blob).clean)
    elapsed = time.perf_counter() - start
    cache_requests = registry.get("scanner_cache_requests_total")
    hits = cache_requests.labels("hit").value
    return {
        "scans_per_sec": (cache_requests.value / elapsed
                          if elapsed else 0.0),
        "scans": int(cache_requests.value),
        "scan_detected": detected,
        "scans_full": int(registry.get("scanner_scans_total").value),
        "cache_hit_rate": (hits / cache_requests.value
                           if cache_requests.value else 0.0),
    }


def bench_chaos(days: float) -> dict:
    """Fault-harness overhead: a campaign with an idle plan armed.

    Two legs over the same seed: ``fault_plan=None`` (no chaos code on
    any hot path) vs an *idle* plan -- every injector tap installed and
    consulted per delivery/fetch, but all probabilities zero so no
    fault ever fires.  The legs must produce identical headline
    metrics (asserted); the wall-clock delta is the standing cost of
    arming the harness, gated in CI via ``--assert-overhead``.
    """
    from repro.core.experiments import replicate_one
    from repro.core.measure.campaign import CampaignConfig
    from repro.faults import (FaultPlan, LatencyStorm, LossBurst,
                              SlowServe, Tamper)
    from repro.peers.profiles import GnutellaProfile
    from repro.simnet.clock import days as days_to_seconds

    profile = GnutellaProfile().scaled(0.5)
    horizon_s = days_to_seconds(days)
    idle_plan = FaultPlan(clauses=(
        LossBurst(0.0, horizon_s, 0.0),
        LatencyStorm(0.0, horizon_s, 0.0, 0.0),
        SlowServe(0.0, horizon_s, 0.0, 5.0, 5.0),
        Tamper(0.0, horizon_s, 0.0, 0.0),
    ))

    def one_run(plan) -> float:
        config = CampaignConfig(seed=11, duration_days=days,
                                fault_plan=plan)
        start = time.perf_counter()
        metrics = replicate_one("limewire", config, profile, seed=11)
        return time.perf_counter() - start, metrics

    # same interleaving rationale as bench_telemetry: overhead is a
    # ratio of two similar numbers, so let load drift hit both legs
    off_times, armed_times = [], []
    off_metrics = armed_metrics = None
    for _ in range(3):
        elapsed, off_metrics = one_run(None)
        off_times.append(elapsed)
        elapsed, armed_metrics = one_run(idle_plan)
        armed_times.append(elapsed)
    if off_metrics != armed_metrics:
        raise AssertionError(
            f"idle fault plan perturbed the measurement: "
            f"{off_metrics!r} != {armed_metrics!r}")
    off_s = min(off_times)
    armed_s = min(armed_times)
    return {
        "chaos_off_s": off_s,
        "chaos_armed_s": armed_s,
        "chaos_idle_overhead_pct": ((armed_s - off_s) / off_s * 100.0
                                    if off_s else 0.0),
    }


def bench_observability(days: float) -> dict:
    """Observability-plane overhead: a served campaign vs a plain one.

    Two legs over the same seed, interleaved in one measurement window
    like every other A/B in this file: server off (plain instrumented
    campaign) vs server on -- a :class:`TelemetryServer` attached to
    the campaign's telemetry bundle with a background thread scraping
    ``/metrics`` throughout the run.  The measurement stores must be
    byte-identical (sha256) between the legs: the server is read-only,
    so watching a campaign cannot change what it measures.  The
    wall-clock delta is the standing cost of being observable, gated in
    CI via ``--assert-overhead observability_overhead_pct=10``.

    Unlike the throughput benches (best-of-N), the gated overhead here
    is the *median of per-rep overheads* across 7 interleaved pairs,
    alternating which leg runs first each rep: each on-rep is paired
    with the off-rep that ran right next to it and the alternation
    cancels monotone drift, so a CPU-frequency wobble skews one pair,
    not the min of one whole leg -- measured to hold the gate within
    +-5% on a noisy 1-core box where min-vs-min swings past 15%.
    """
    import threading
    import urllib.request

    from repro.core.measure.campaign import (CampaignConfig,
                                             run_limewire_campaign)
    from repro.peers.profiles import GnutellaProfile
    from repro.telemetry import CampaignTelemetry

    profile = GnutellaProfile().scaled(0.5)
    config = CampaignConfig(seed=17, duration_days=days)

    def one_run(serve: bool):
        telemetry = CampaignTelemetry()
        server = None
        scrapes = [0]
        stop = threading.Event()
        if serve:
            server = telemetry.serve(port=0, name="bench")

            def scrape_loop() -> None:
                # scrape at 1 Hz: still ~15x more aggressive than a
                # stock Prometheus interval, without turning the gate
                # into a measurement of single-core thread-wakeup
                # contention (a scrape itself costs ~0.3 ms)
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                                server.url + "metrics",
                                timeout=5) as response:
                            if response.status == 200:
                                scrapes[0] += 1
                    except OSError:
                        pass
                    stop.wait(1.0)

            scraper = threading.Thread(target=scrape_loop, daemon=True)
            scraper.start()
        start = time.perf_counter()
        try:
            result = run_limewire_campaign(config, profile=profile,
                                           telemetry=telemetry)
        finally:
            elapsed = time.perf_counter() - start
            stop.set()
            if server is not None:
                server.stop()
        return elapsed, result.store.content_digest(), scrapes[0]

    off_times, on_times = [], []
    off_sha = on_sha = None
    scrapes = 0
    for rep in range(7):
        legs = [False, True] if rep % 2 == 0 else [True, False]
        for serve in legs:
            elapsed, sha, scraped = one_run(serve=serve)
            if serve:
                on_times.append(elapsed)
                on_sha = sha
                scrapes += scraped
            else:
                off_times.append(elapsed)
                off_sha = sha
        if off_sha != on_sha:
            raise AssertionError(
                "serving a campaign changed its measurement store: "
                f"{off_sha} != {on_sha}")
    overheads = sorted((on - off) / off * 100.0
                       for off, on in zip(off_times, on_times) if off)
    return {
        "observability_off_s": min(off_times),
        "observability_on_s": min(on_times),
        "observability_overhead_pct": (
            overheads[len(overheads) // 2] if overheads else 0.0),
        "observability_scrapes": scrapes,
    }


def bench_replications(seeds: int, days: float, workers: int) -> dict:
    """Multi-seed campaign wall-clock, serial vs parallel."""
    from repro.core.experiments import run_replications
    from repro.core.measure.campaign import CampaignConfig
    from repro.peers.profiles import GnutellaProfile

    config = CampaignConfig(seed=0, duration_days=days)
    profile = GnutellaProfile().scaled(0.5)
    seed_list = tuple(range(1, seeds + 1))

    start = time.perf_counter()
    serial = run_replications("limewire", seed_list, config,
                              profile=profile, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_replications("limewire", seed_list, config,
                                profile=profile, workers=workers)
    parallel_s = time.perf_counter() - start

    for name in serial.metrics:
        if serial.metrics[name].values != parallel.metrics[name].values:
            raise AssertionError(
                f"parallel metrics diverged from serial for {name!r}")
    return {
        "replication_seeds": seeds,
        "replication_days": days,
        "replication_workers": workers,
        "replication_serial_s": serial_s,
        "replication_parallel_s": parallel_s,
        "replication_speedup": serial_s / parallel_s if parallel_s else 0.0,
    }


def bench_resilience(seeds: int, days: float, workers: int) -> dict:
    """Supervision overhead: watchdogged fan-out vs the plain pool.

    The same multi-seed campaign runs under the trusting process pool
    and under :func:`repro.resilience.supervised_map` (per-seed
    heartbeats, stall + deadline watchdogs, kill-and-requeue).  Legs
    alternate in one measurement window, which order flipped each rep,
    and the gated number is the median of per-rep overheads -- the
    same drift-cancelling discipline as the observability bench.  The
    two reports must agree metric-for-metric, bit for bit: supervision
    may only change *when* a seed's worker is killed, never what a
    surviving seed measures.  Gated in CI via
    ``--assert-overhead resilience_overhead_pct=10``.
    """
    from repro.core.experiments import run_replications
    from repro.core.measure.campaign import CampaignConfig
    from repro.peers.profiles import GnutellaProfile
    from repro.resilience import SupervisionPolicy

    config = CampaignConfig(seed=0, duration_days=days)
    profile = GnutellaProfile().scaled(0.5)
    seed_list = tuple(range(1, seeds + 1))
    policy = SupervisionPolicy(deadline_s=600.0, stall_timeout_s=60.0)

    def one_run(supervised: bool):
        start = time.perf_counter()
        report = run_replications(
            "limewire", seed_list, config, profile=profile,
            workers=workers,
            supervision=policy if supervised else None)
        return time.perf_counter() - start, report

    plain_times, supervised_times = [], []
    plain_report = supervised_report = None
    for rep in range(3):
        legs = [False, True] if rep % 2 == 0 else [True, False]
        for supervised in legs:
            elapsed, report = one_run(supervised)
            if supervised:
                supervised_times.append(elapsed)
                supervised_report = report
            else:
                plain_times.append(elapsed)
                plain_report = report
    for name in plain_report.metrics:
        if (plain_report.metrics[name].values
                != supervised_report.metrics[name].values):
            raise AssertionError(
                f"supervised metrics diverged from plain for {name!r}")
    overheads = sorted((sup - plain) / plain * 100.0
                       for plain, sup in zip(plain_times, supervised_times)
                       if plain)
    return {
        "resilience_plain_s": min(plain_times),
        "resilience_supervised_s": min(supervised_times),
        "resilience_overhead_pct": (
            overheads[len(overheads) // 2] if overheads else 0.0),
    }


def run(quick: bool, workers: int) -> dict:
    results = {}
    print("benchmarking kernel events (plain + telemetry, interleaved)...",
          flush=True)
    results.update(bench_kernel(20_000 if quick else 200_000))
    print(f"  {results['events_per_sec']:,.0f} events/sec plain, "
          f"{results['events_per_sec_telemetry']:,.0f} with telemetry "
          f"(overhead {results['telemetry_overhead_pct']:+.1f}%, "
          f"{results['queue_compactions']} compactions, "
          f"{results['telemetry_sampled_callbacks']} sampled callbacks)")
    print("benchmarking data plane...", flush=True)
    results.update(bench_dataplane(5_000 if quick else 50_000))
    print(f"  {results['dataplane_msgs_per_sec']:,.0f} msgs/sec "
          f"(frame cache hit rate "
          f"{results['dataplane_frame_cache_hit_rate']:.1%}, "
          f"{results['dataplane_envelope_bytes_per_msg']:.0f} B/msg "
          f"in flight)")
    print("benchmarking scan engine...", flush=True)
    results.update(bench_scans(5_000 if quick else 50_000))
    print(f"  {results['scans_per_sec']:,.0f} scans/sec "
          f"(cache hit rate {results['cache_hit_rate']:.1%}, "
          f"registry-sourced)")
    print("benchmarking fault-harness overhead...", flush=True)
    results.update(bench_chaos(days=0.05 if quick else 0.1))
    print(f"  off {results['chaos_off_s']:.2f}s, "
          f"armed-idle {results['chaos_armed_s']:.2f}s "
          f"(overhead {results['chaos_idle_overhead_pct']:+.1f}%, "
          f"metrics identical)")
    print("benchmarking observability plane (server off vs on, "
          "interleaved)...", flush=True)
    results.update(bench_observability(days=0.05 if quick else 0.1))
    print(f"  off {results['observability_off_s']:.2f}s, "
          f"served {results['observability_on_s']:.2f}s "
          f"(overhead {results['observability_overhead_pct']:+.1f}%, "
          f"{results['observability_scrapes']} concurrent scrapes, "
          f"store sha identical)")
    print("benchmarking replication campaign...", flush=True)
    results.update(bench_replications(
        seeds=2 if quick else 8, days=0.1 if quick else 0.25,
        workers=workers))
    print(f"  serial {results['replication_serial_s']:.2f}s, "
          f"parallel {results['replication_parallel_s']:.2f}s "
          f"(speedup {results['replication_speedup']:.2f}x)")
    print("benchmarking supervision overhead (plain vs watchdogged pool, "
          "interleaved)...", flush=True)
    results.update(bench_resilience(
        seeds=2 if quick else 4, days=0.1 if quick else 0.25,
        workers=workers))
    print(f"  plain {results['resilience_plain_s']:.2f}s, "
          f"supervised {results['resilience_supervised_s']:.2f}s "
          f"(overhead {results['resilience_overhead_pct']:+.1f}%, "
          f"metrics identical)")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent,
                        help="directory for BENCH_<rev>.json")
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)),
                        help="workers for the parallel replication leg")
    parser.add_argument("--rev", default=None,
                        help="revision label (default: git short hash)")
    parser.add_argument("--assert-overhead", action="append",
                        default=None, metavar="PCT|NAME=PCT",
                        help="exit non-zero when any *_overhead_pct "
                             "metric exceeds its budget (CI gate).  A "
                             "bare number sets the default budget; "
                             "NAME=PCT overrides one metric (repeat "
                             "the flag to combine, e.g. 30 plus "
                             "observability_overhead_pct=10)")
    args = parser.parse_args(argv)

    rev = args.rev or _detect_rev()
    results = run(quick=args.quick, workers=args.workers)
    payload = {
        "rev": rev,
        "quick": args.quick,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{rev}.json"
    # atomic: a benchmark interrupted mid-dump must not leave a torn
    # JSON file that bench_compare then chokes on
    from repro.resilience import atomic_write_text
    atomic_write_text(path,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if args.assert_overhead:
        default_budget, per_metric = _parse_overhead_budgets(
            args.assert_overhead)
        over = {}
        for name, value in sorted(results.items()):
            if not name.endswith("_overhead_pct"):
                continue
            budget = per_metric.get(name, default_budget)
            if budget is not None and value > budget:
                over[name] = (value, budget)
        if over:
            detail = ", ".join(
                f"{name} {value:.1f}% (budget {budget:g}%)"
                for name, (value, budget) in over.items())
            print(f"FAIL: overhead budget exceeded: {detail} "
                  f"({results['events_per_sec']:,.0f} events/sec plain "
                  f"vs {results['events_per_sec_telemetry']:,.0f} "
                  f"events/sec with telemetry)", file=sys.stderr)
            return 1
    return 0


def _parse_overhead_budgets(specs):
    """(default budget, per-metric overrides) from repeated flag values.

    A bare number is the default budget for every ``*_overhead_pct``
    metric; ``NAME=PCT`` pins one metric.  With only overrides given,
    un-named metrics are not gated.
    """
    default_budget = None
    per_metric = {}
    for spec in specs:
        spec = str(spec)
        if "=" in spec:
            name, _, value = spec.partition("=")
            per_metric[name.strip()] = float(value)
        else:
            default_budget = float(spec)
    return default_budget, per_metric


if __name__ == "__main__":
    sys.exit(main())
