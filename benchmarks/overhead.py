#!/usr/bin/env python3
"""Overhead gate: what watching a campaign costs, as a verdict that
holds from one rerun to the next.

    PYTHONPATH=src python benchmarks/overhead.py

Each leg times one small Limewire campaign (seed 11, 0.25 virtual days,
half the default population) without and with one observer:

* ``telemetry``: an in-memory :class:`CampaignTelemetry` attached
  (registry, spans and kernel hook, no journal file);
* ``faults``: an armed-but-idle :class:`FaultPlan`, every tap installed
  and every probability zero;
* ``serve``: the telemetry bundle served over HTTP with a 1 Hz
  ``/metrics`` scraper, against the same bundle unserved.

Every run is a fresh interpreter, and only the campaign call is timed,
in reference seconds: perfbench's ``Pace`` samples the host's speed
while the campaign runs and scales the time to a fixed speed, so a slow
phase of a shared VM moves both runs of a pair alike.  A leg runs
off/on pairs, alternating which goes first; a pair's overhead is
``on / off - 1``, and its two stores must be byte-identical.  After
:data:`START_PAIRS` pairs a leg passes when the upper quartile of its
overheads is under budget and fails when the median is over it;
otherwise it runs one more pair, and at :data:`MAX_PAIRS` the median
decides.  The exit status is 1 when a leg fails.  Nothing is written.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: pairs every leg runs; the most a leg runs before its median decides;
#: each leg's budget in percent of the unwatched campaign's time
START_PAIRS = 6
MAX_PAIRS = 16
BUDGETS_PCT = {"telemetry": 30.0, "faults": 30.0, "serve": 10.0}

SEED = 11
DAYS = 0.25
SCALE = 0.5

#: what a child interpreter runs: one campaign, one JSON line out
_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
          "import overhead; "
          "print(json.dumps(overhead.campaign(sys.argv[2], "
          "sys.argv[3] == 'on')))")


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """Lower quartile, median and upper quartile (linear interpolation)."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def verdict(overheads: List[float], budget: float) -> Optional[str]:
    """``"pass"``, ``"fail"``, or ``None`` while a leg needs more pairs."""
    _q1, median, q3 = quartiles(overheads)
    if q3 < budget:
        return "pass"
    if median > budget:
        return "fail"
    # at the cap the median decides, and it is within budget here
    return "pass" if len(overheads) >= MAX_PAIRS else None


def campaign(leg: str, on: bool) -> dict:
    """Run one campaign of ``leg`` in this process and time it."""
    import threading
    import urllib.request
    from dataclasses import replace

    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from pace import Pace

    from repro.core.measure.campaign import (CampaignConfig,
                                             run_limewire_campaign)
    from repro.faults import (FaultPlan, LatencyStorm, LossBurst,
                              SlowServe, Tamper)
    from repro.peers.profiles import GnutellaProfile
    from repro.simnet.clock import days as days_to_seconds
    from repro.telemetry import CampaignTelemetry

    config = CampaignConfig(seed=SEED, duration_days=DAYS)
    profile = GnutellaProfile().scaled(SCALE)
    telemetry = (CampaignTelemetry()
                 if leg == "serve" or (leg == "telemetry" and on) else None)
    if leg == "faults" and on:
        horizon = days_to_seconds(DAYS)
        config = replace(config, fault_plan=FaultPlan(clauses=(
            LossBurst(0.0, horizon, 0.0),
            LatencyStorm(0.0, horizon, 0.0, 0.0),
            SlowServe(0.0, horizon, 0.0, 5.0, 5.0),
            Tamper(0.0, horizon, 0.0, 0.0))))
    server = scraper = None
    scrapes = 0
    stop = threading.Event()
    if leg == "serve" and on:
        server = telemetry.serve(name="overhead")

        def scrape() -> None:
            nonlocal scrapes
            while True:
                try:
                    with urllib.request.urlopen(server.url + "metrics",
                                                timeout=5) as response:
                        scrapes += response.status == 200
                except OSError:
                    pass
                if stop.wait(1.0):
                    return

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
    try:
        with Pace() as pace:
            started = time.perf_counter()
            result = run_limewire_campaign(config, profile=profile,
                                           telemetry=telemetry)
            ended = time.perf_counter()
    finally:
        stop.set()
        if server is not None:
            scraper.join()
            server.stop()
    return {"seconds": pace.scaled(started, ended),
            "store": result.store.content_digest(),
            "scrapes": scrapes}


def _child(leg: str, on: bool) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(HERE), leg, "on" if on else "off"],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED=str(SEED)))
    if done.returncode != 0:
        raise SystemExit(f"{leg} leg, observer {'on' if on else 'off'}: "
                         f"exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_leg(leg: str, budget: float) -> str:
    """Run pairs of ``leg`` until the verdict rule decides; print it."""
    overheads: List[float] = []
    scrapes: List[int] = []
    decided = None
    while decided is None:
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        runs = {on: _child(leg, on) for on in order}
        if runs[False]["store"] != runs[True]["store"]:
            raise SystemExit(f"{leg} leg, pair {len(overheads) + 1}: the "
                             f"observer changed the store")
        overheads.append((runs[True]["seconds"] / runs[False]["seconds"]
                          - 1.0) * 100.0)
        scrapes.append(runs[True]["scrapes"])
        if len(overheads) >= START_PAIRS:
            decided = verdict(overheads, budget)
    q1, median, q3 = quartiles(overheads)
    line = (f"{leg:<10s} {len(overheads):2d} pairs  median {median:+6.1f}%  "
            f"[q1 {q1:+6.1f}%, q3 {q3:+6.1f}%]  budget {budget:g}%  "
            f"stores identical  {decided.upper()}")
    if leg == "serve":
        if min(scrapes) < 1:
            raise SystemExit("serve leg: a served run was never scraped")
        line += f"  ({sum(scrapes)} scrapes)"
    print(line, flush=True)
    return decided


def main() -> int:
    started = time.perf_counter()
    verdicts = [run_leg(leg, budget) for leg, budget in BUDGETS_PCT.items()]
    print(f"overhead gate: {time.perf_counter() - started:.0f} s, "
          f"{'FAIL' if 'fail' in verdicts else 'pass'}")
    return 1 if "fail" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
