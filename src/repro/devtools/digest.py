"""Event-stream digest: a whole campaign reduced to one comparable hash.

:class:`EventDigest` is a sha256 over ``(time, label, seq)`` of every
kernel event executed, fed through the simulator's telemetry slot (the
kernel calls ``telemetry.on_event(time, label)`` when the hook exists).
Two same-seed campaigns are bit-identical iff their event streams are;
the digest reduces that comparison to one hash.

:func:`run_digest_campaign` runs one campaign with the digest attached.
The golden fixtures pin its output against committed values, and the
tier-1 replay tests compare it run against run, in one process and
across fresh interpreters under different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Tuple

from ..core.experiments import HEADLINE_METRICS
from ..core.measure.campaign import (CampaignConfig, campaign_runner,
                                     default_profile)
from ..telemetry.runtime import CampaignTelemetry

__all__ = ["EventDigest", "run_digest_campaign"]


class EventDigest:
    """Order-sensitive sha256 of the executed event stream.

    Each event contributes ``(virtual time, label, sequence number)``;
    the sequence number makes re-ordered but otherwise identical event
    sets distinguishable.  Equal digests => the kernels executed the
    same events at the same virtual times in the same order, which is
    the reproduction's definition of "the same run".
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def on_event(self, time: float, label: str) -> None:
        """Fold one executed kernel event into the digest."""
        self._hash.update(struct.pack("<d", time))
        self._hash.update(label.encode("utf-8"))
        self._hash.update(struct.pack("<Q", self.events))
        self.events += 1

    def hexdigest(self) -> str:
        """Digest so far (the stream can keep growing afterwards)."""
        return self._hash.hexdigest()


def run_digest_campaign(network: str, seed: int, days: float = 0.1,
                        scale: float = 0.35,
                        ) -> Tuple[str, int, Dict[str, float], str]:
    """One campaign with the digest attached.

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
    result = runner(config, profile=profile, telemetry=telemetry)
    metrics = {name: fn(result)
               for name, fn in HEADLINE_METRICS[network].items()}
    return (digest.hexdigest(), digest.events, metrics,
            result.store.content_digest())
