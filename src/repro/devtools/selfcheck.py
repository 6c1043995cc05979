"""``repro-study selfcheck``: prove the determinism contract end to end.

For every seed it runs the same campaign **twice** with (a) the runtime
sanitizer armed, so any forbidden entropy source aborts the run, and
(b) an :class:`~repro.devtools.sanitizer.EventDigest` attached to the
kernel, reducing each run's full event stream to one sha256.  The two
runs must produce identical digests and identical headline metrics;
digests across *different* seeds must differ (a constant digest would
mean the hook is dead).  Finally it proves the tripwires themselves
work by injecting a bare ``random.random()`` under the sanitizer and
demanding the :class:`EntropyViolation`.

This is the runtime counterpart of ``repro-study lint``: the linter
says the code *cannot* misbehave, the selfcheck shows one concrete
campaign actually *did not*.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.experiments import HEADLINE_METRICS
from ..core.measure.campaign import (CampaignConfig, campaign_runner,
                                     default_profile)
from ..telemetry.runtime import CampaignTelemetry
from .sanitizer import (DeterminismSanitizer, EntropyViolation, EventDigest,
                        LockOrderRecorder)

__all__ = ["SeedCheck", "SelfcheckReport", "LockOrderReport",
           "run_digest_campaign", "run_lock_order_check", "run_selfcheck"]


@dataclass(frozen=True)
class SeedCheck:
    """Twin-run comparison for one seed."""

    network: str
    seed: int
    digest_first: str
    digest_second: str
    events: int
    metrics_first: Dict[str, float]
    metrics_second: Dict[str, float]

    @property
    def digests_match(self) -> bool:
        return self.digest_first == self.digest_second

    @property
    def metrics_match(self) -> bool:
        return self.metrics_first == self.metrics_second

    @property
    def ok(self) -> bool:
        return self.digests_match and self.metrics_match


@dataclass(frozen=True)
class SelfcheckReport:
    """Everything ``repro-study selfcheck`` asserts, as data."""

    checks: Tuple[SeedCheck, ...]
    cross_seed_distinct: bool
    sanitizer_armed: bool  # the injected random.random() was caught

    @property
    def ok(self) -> bool:
        return (all(check.ok for check in self.checks)
                and self.cross_seed_distinct and self.sanitizer_armed)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "OK" if check.ok else "MISMATCH"
            lines.append(
                f"seed {check.seed:>3d} ({check.network}): "
                f"{check.events} events, digest "
                f"{check.digest_first[:16]}... x2 -> {verdict}")
            if not check.digests_match:
                lines.append(f"    second run digest: "
                             f"{check.digest_second[:16]}...")
            if not check.metrics_match:
                lines.append(f"    metrics diverged: "
                             f"{check.metrics_first} != "
                             f"{check.metrics_second}")
        lines.append("cross-seed digests distinct: "
                     + ("yes" if self.cross_seed_distinct else
                        "NO (digest hook looks dead)"))
        lines.append("sanitizer tripwire test: "
                     + ("caught injected random.random()"
                        if self.sanitizer_armed else
                        "FAILED to catch injected random.random()"))
        lines.append("selfcheck: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_digest_campaign(network: str, seed: int, days: float = 0.1,
                        scale: float = 0.35, sanitize: bool = True,
                        ) -> Tuple[str, int, Dict[str, float], str]:
    """One campaign with digest attached.

    Returns ``(digest, events, metrics, store sha256)``.  The digest
    rides the telemetry slot: a stock :class:`CampaignTelemetry` bundle
    is built (no journal) and the per-event hook is bound onto its
    kernel instrumentation, so the check exercises the same
    instrumented kernel loop production telemetry uses.
    """
    profile = default_profile(network, scale)  # rejects unknown networks
    runner = campaign_runner(network)
    digest = EventDigest()
    telemetry = CampaignTelemetry()
    telemetry.kernel.on_event = digest.on_event  # per-event kernel hook
    config = CampaignConfig(seed=seed, duration_days=days)
    if sanitize:
        with DeterminismSanitizer(mode="raise"):
            result = runner(config, profile=profile, telemetry=telemetry)
    else:
        result = runner(config, profile=profile, telemetry=telemetry)
    metrics = {name: fn(result)
               for name, fn in HEADLINE_METRICS[network].items()}
    return (digest.hexdigest(), digest.events, metrics,
            result.store.content_digest())


def _probe_sanitizer() -> bool:
    """Does the armed sanitizer actually catch a bare random draw?"""
    try:
        with DeterminismSanitizer(mode="raise"):
            random.random()  # the deliberate injection
    except EntropyViolation:
        return True
    return False


def run_selfcheck(network: str = "limewire",
                  seeds: Optional[Sequence[int]] = None,
                  days: float = 0.1, scale: float = 0.35,
                  sanitize: bool = True) -> SelfcheckReport:
    """Run the full determinism selfcheck; see the module docstring."""
    seeds = tuple(seeds) if seeds else (1, 2)
    checks: List[SeedCheck] = []
    for seed in seeds:
        digest_a, events_a, metrics_a, _ = run_digest_campaign(
            network, seed, days=days, scale=scale, sanitize=sanitize)
        digest_b, _events_b, metrics_b, _ = run_digest_campaign(
            network, seed, days=days, scale=scale, sanitize=sanitize)
        checks.append(SeedCheck(
            network=network, seed=seed, digest_first=digest_a,
            digest_second=digest_b, events=events_a,
            metrics_first=metrics_a, metrics_second=metrics_b))
    first_digests = {check.digest_first for check in checks}
    cross_distinct = len(first_digests) == len(checks)
    return SelfcheckReport(checks=tuple(checks),
                           cross_seed_distinct=cross_distinct,
                           sanitizer_armed=_probe_sanitizer())


@dataclass(frozen=True)
class LockOrderReport:
    """Result of the runtime lock-order check (``selfcheck --lock-order``)."""

    network: str
    seed: int
    locks_tracked: int
    edge_count: int
    scrapes: int
    cycles: Tuple[Tuple[str, ...], ...]
    detail: str

    @property
    def ok(self) -> bool:
        # zero tracked locks would mean the recorder never saw the
        # telemetry plane get built -- that is a broken check, not a pass
        return self.locks_tracked > 0 and self.scrapes > 0 \
            and not self.cycles

    def render(self) -> str:
        lines = [f"lock-order check ({self.network}, seed {self.seed}): "
                 f"{self.scrapes} live scrapes during the campaign",
                 self.detail,
                 "lock-order: " + ("PASS" if self.ok else "FAIL")]
        return "\n".join(lines)


def run_lock_order_check(network: str = "limewire", seed: int = 1,
                         days: float = 0.05,
                         scale: float = 0.35) -> LockOrderReport:
    """Record every lock acquisition while scraping a live campaign.

    The runtime counterpart of detlint's static CONC002 pass: under a
    :class:`LockOrderRecorder`, build the full telemetry plane (hub +
    HTTP server), hammer it from a scrape thread over real HTTP while
    an instrumented campaign runs on the mainline, and fail on any
    cycle in the observed lock-acquisition graph.
    """
    from urllib.error import URLError
    from urllib.request import urlopen

    from ..telemetry.httpd import ObservatoryHub, TelemetryServer

    runner = campaign_runner(network)  # rejects unknown networks
    profile = default_profile(network, scale)

    scrapes = [0]
    with LockOrderRecorder() as recorder:
        hub = ObservatoryHub(title="lock-order selfcheck")
        telemetry = CampaignTelemetry()
        hub.add_campaign(network, telemetry)
        server = TelemetryServer(hub).start()
        url = server.url
        stop = threading.Event()

        def scrape() -> None:
            while not stop.is_set():
                for endpoint in ("/metrics", "/healthz", "/snapshot.json"):
                    try:
                        with urlopen(url + endpoint, timeout=1) as response:
                            response.read()
                        scrapes[0] += 1
                    except (OSError, URLError):  # pragma: no cover
                        pass

        scraper = threading.Thread(target=scrape, name="lock-order-scraper",
                                   daemon=True)
        scraper.start()
        try:
            config = CampaignConfig(seed=seed, duration_days=days)
            runner(config, profile=profile, telemetry=telemetry)
        finally:
            stop.set()
            scraper.join(timeout=5.0)
            server.stop()
    return LockOrderReport(
        network=network, seed=seed, locks_tracked=recorder.locks_created,
        edge_count=len(recorder.edges), scrapes=scrapes[0],
        cycles=tuple(recorder.cycles()), detail=recorder.render())
