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
from ..core.measure.campaign import (CampaignConfig, run_limewire_campaign,
                                     run_openft_campaign)
from ..telemetry.runtime import CampaignTelemetry
from .sanitizer import (DeterminismSanitizer, EntropyViolation, EventDigest,
                        LockOrderRecorder)

__all__ = ["SeedCheck", "SelfcheckReport", "ShardEquivalenceCheck",
           "LockOrderReport", "run_digest_campaign",
           "run_shard_equivalence_check", "run_lock_order_check",
           "run_selfcheck"]


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
    profile = _scaled_profile(network, scale)  # rejects unknown networks
    runner = (run_limewire_campaign if network == "limewire"
              else run_openft_campaign)
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


def _scaled_profile(network: str, scale: float):
    if network == "limewire":
        from ..peers.profiles import GnutellaProfile
        return GnutellaProfile().scaled(scale)
    if network == "openft":
        from ..peers.profiles import OpenFTProfile
        return OpenFTProfile().scaled(scale)
    raise ValueError(f"unknown network {network!r}")


def _sharded_campaign(network: str, seed: int, days: float, scale: float,
                      shards: int = 1, force_windows: bool = False,
                      with_telemetry: bool = True, sanitize: bool = True,
                      ) -> Tuple[Optional[str], Dict[str, float], str, int]:
    """One serial sharded campaign.

    Returns ``(digest, metrics, store sha, windows)``; the digest is
    None on the telemetry-less legs (matching the plain runner, whose
    kernel is uninstrumented without telemetry).
    """
    from ..core.sharded import run_sharded_campaign

    profile = _scaled_profile(network, scale)
    config = CampaignConfig(seed=seed, duration_days=days, shards=shards)
    telemetry = CampaignTelemetry() if with_telemetry else None
    kwargs = dict(profile=profile, telemetry=telemetry, executor="serial",
                  collect_digest=with_telemetry,
                  force_windows=force_windows)
    if sanitize:
        with DeterminismSanitizer(mode="raise"):
            result = run_sharded_campaign(network, config, **kwargs)
    else:
        result = run_sharded_campaign(network, config, **kwargs)
    metrics = {name: fn(result)
               for name, fn in HEADLINE_METRICS[network].items()}
    return (result.shards.digest, metrics, result.store.content_digest(),
            result.shards.windows)


@dataclass(frozen=True)
class ShardEquivalenceCheck:
    """Sharded-kernel determinism evidence for one (network, seed).

    Three claims, each checked directly:

    * ``shards=1`` is bit-identical to the plain kernel -- event digest,
      store sha256 and headline metrics all match, with telemetry on
      *and* off;
    * the window loop itself preserves that identity -- a ``shards=1``
      run forced through the full conservative-window machinery
      (``force_windows``) still matches the plain digest exactly;
    * N-shard results are invariant in N -- the ``MeasurementStore``
      content digests of the two N-shard legs (default N=2 and N=3)
      are identical.
    """

    network: str
    seed: int
    plain_digest: str
    single_digest: str
    windowed_digest: str
    plain_store_sha256: str
    single_store_sha256: str
    windowed_store_sha256: str
    bare_plain_store_sha256: str
    bare_single_store_sha256: str
    nshard_store_sha256: str
    nshard_alt_store_sha256: str
    nshards: Tuple[int, int]
    windows: int
    metrics_plain: Dict[str, float]
    metrics_single: Dict[str, float]
    metrics_nshard: Dict[str, float]

    @property
    def single_shard_identical(self) -> bool:
        return (self.plain_digest == self.single_digest == self.windowed_digest
                and self.plain_store_sha256 == self.single_store_sha256
                == self.windowed_store_sha256
                and self.bare_plain_store_sha256
                == self.bare_single_store_sha256
                and self.metrics_plain == self.metrics_single)

    @property
    def n_invariant(self) -> bool:
        return self.nshard_store_sha256 == self.nshard_alt_store_sha256

    @property
    def ok(self) -> bool:
        return self.single_shard_identical and self.n_invariant

    def render(self) -> str:
        verdict = "OK" if self.ok else "DIVERGED"
        lines = [f"seed {self.seed:>3d} ({self.network}): sharded kernel "
                 f"-> {verdict}",
                 f"    shards=1 == plain: "
                 + ("yes" if self.single_shard_identical else "NO"),
                 f"    windowed shards=1 ({self.windows} windows) digest: "
                 f"{self.windowed_digest[:16]}...",
                 f"    shards={self.nshards[0]} vs shards={self.nshards[1]} "
                 f"stores: "
                 + ("identical" if self.n_invariant else
                    f"DIFFER ({self.nshard_store_sha256[:16]}... != "
                    f"{self.nshard_alt_store_sha256[:16]}...)")]
        if self.plain_digest != self.single_digest:
            lines.append(f"    digests: plain {self.plain_digest[:16]}... "
                         f"!= shards=1 {self.single_digest[:16]}...")
        if self.metrics_plain != self.metrics_single:
            lines.append(f"    metrics diverged: {self.metrics_plain} != "
                         f"{self.metrics_single}")
        return "\n".join(lines)


def run_shard_equivalence_check(network: str, seed: int, days: float = 0.05,
                                scale: float = 0.35, sanitize: bool = True,
                                nshards: Tuple[int, int] = (2, 3),
                                ) -> ShardEquivalenceCheck:
    """Prove the sharded kernel's determinism contract for one seed."""
    plain = run_digest_campaign(network, seed, days, scale, sanitize)
    single = _sharded_campaign(network, seed, days, scale, shards=1,
                               sanitize=sanitize)
    windowed = _sharded_campaign(network, seed, days, scale, shards=1,
                                 force_windows=True, sanitize=sanitize)

    profile = _scaled_profile(network, scale)
    config = CampaignConfig(seed=seed, duration_days=days)
    runner = (run_limewire_campaign if network == "limewire"
              else run_openft_campaign)
    bare_plain = runner(config, profile=profile).store.content_digest()
    bare_single = _sharded_campaign(network, seed, days, scale, shards=1,
                                    with_telemetry=False, sanitize=False)

    nshard = _sharded_campaign(network, seed, days, scale,
                               shards=nshards[0], sanitize=sanitize)
    nshard_alt = _sharded_campaign(network, seed, days, scale,
                                   shards=nshards[1], sanitize=sanitize)
    return ShardEquivalenceCheck(
        network=network, seed=seed,
        plain_digest=plain[0], single_digest=single[0],
        windowed_digest=windowed[0],
        plain_store_sha256=plain[3], single_store_sha256=single[2],
        windowed_store_sha256=windowed[2],
        bare_plain_store_sha256=bare_plain,
        bare_single_store_sha256=bare_single[2],
        nshard_store_sha256=nshard[2],
        nshard_alt_store_sha256=nshard_alt[2],
        nshards=nshards, windows=windowed[3],
        metrics_plain=plain[2], metrics_single=single[1],
        metrics_nshard=nshard[1])


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

    if network == "limewire":
        runner = run_limewire_campaign
        from ..peers.profiles import GnutellaProfile
        profile = GnutellaProfile().scaled(scale)
    elif network == "openft":
        runner = run_openft_campaign
        from ..peers.profiles import OpenFTProfile
        profile = OpenFTProfile().scaled(scale)
    else:
        raise ValueError(f"unknown network {network!r}")

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
