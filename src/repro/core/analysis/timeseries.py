"""F3: the campaign's daily time series.

The paper collected over a month of data; the per-day series shows the
malicious share is a stable property of the network (with a gentle rise
as passive worms recruit hosts), not an artifact of a lucky day.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List

from ..measure.store import MeasurementStore

__all__ = ["DailyPoint", "daily_series"]


@dataclass(frozen=True)
class DailyPoint:
    """One virtual day's aggregate."""

    day: int
    responses: int
    downloadable: int
    malicious: int

    @property
    def malicious_share(self) -> float:
        """Malicious fraction of that day's downloadable responses."""
        return self.malicious / self.downloadable if self.downloadable else 0.0


def daily_series(store: MeasurementStore) -> List[DailyPoint]:
    """Compute F3 (one point per virtual day, gaps filled with zeros)."""
    responses = Counter(record.day for record in store)
    if not responses:
        return []
    downloadable: Counter = Counter()
    malicious: Counter = Counter()
    for record in store.downloadable_responses():
        downloadable[record.day] += 1
        if record.is_malicious:
            malicious[record.day] += 1
    return [DailyPoint(day=day, responses=responses[day],
                       downloadable=downloadable[day],
                       malicious=malicious[day])
            for day in range(max(responses) + 1)]
