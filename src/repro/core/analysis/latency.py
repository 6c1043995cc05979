"""Extension analysis: response latency.

How long after a query do responses arrive?  Latency is overlay depth
made visible: leaf answers attached to the crawler's own shields arrive
in a couple of hundred milliseconds, flood-edge responders take longer,
and (with dynamic querying) probe pacing stretches the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..measure.store import MeasurementStore

__all__ = ["LatencySummary", "latency_summary"]


@dataclass(frozen=True)
class LatencySummary:
    """Percentiles of response latency (seconds of virtual time)."""

    count: int
    p10: float
    p50: float
    p90: float
    p99: float
    mean: float

    def render(self, network: str) -> str:
        """One-line text summary."""
        return (f"latency ({network}, n={self.count}): "
                f"p10={self.p10:.2f}s p50={self.p50:.2f}s "
                f"p90={self.p90:.2f}s p99={self.p99:.2f}s "
                f"mean={self.mean:.2f}s")


def latency_summary(store: MeasurementStore,
                    malicious_only: bool = False,
                    ) -> Optional[LatencySummary]:
    """Latency percentiles over all (or only malicious) responses.

    Returns None when no record carries a known query time.
    """
    records = (store.malicious_responses() if malicious_only
               else store.records())
    latencies: List[float] = [record.latency for record in records
                              if record.latency is not None]
    if not latencies:
        return None
    # imported here: no campaign command calls this, so none loads numpy
    import numpy as np

    values = np.asarray(latencies)
    p10, p50, p90, p99 = np.percentile(values, [10, 50, 90, 99])
    return LatencySummary(count=len(latencies), p10=float(p10),
                          p50=float(p50), p90=float(p90), p99=float(p99),
                          mean=float(values.mean()))
