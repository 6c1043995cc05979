"""Statistical uncertainty for the headline metrics.

The paper reports point estimates; a reproduction should say how firm
they are.  Two tools:

* :func:`bootstrap_ci` -- a percentile bootstrap over response records
  for any statistic of a store (prevalence, top-N share, private share);
* :func:`wilson_interval` -- the closed-form Wilson score interval for
  plain proportions, used as a cross-check and for small counts where
  resampling is noisy.

Resampling draws records with replacement using numpy for speed; the
randomness is seeded explicitly so reported intervals are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..measure.records import ResponseRecord
from ..measure.store import MeasurementStore

__all__ = ["ConfidenceInterval", "wilson_interval", "bootstrap_ci",
           "prevalence_statistic", "private_share_statistic",
           "top_share_statistic"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with its interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width (diagnostic of estimate stability)."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts {successes}/{trials}")
    if trials == 0:
        return ConfidenceInterval(0.0, 0.0, 1.0, confidence)
    # z for the two-sided confidence level (0.95 -> 1.959964...)
    z = math.sqrt(2.0) * _erfinv(confidence)
    p = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denominator
    margin = (z * math.sqrt(p * (1 - p) / trials
                            + z * z / (4 * trials * trials))
              / denominator)
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    if low < 1e-12:
        low = 0.0  # snap float dust at the boundary
    if high > 1.0 - 1e-12:
        high = 1.0
    return ConfidenceInterval(estimate=p, low=low, high=high,
                              confidence=confidence)


def _erfinv(confidence: float) -> float:
    """Inverse error function at ``confidence`` via numpy-free iteration.

    Uses the Newton refinement of the Giles initial approximation --
    accurate to ~1e-9 over the confidence levels used here.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    x = confidence
    w = -math.log((1.0 - x) * (1.0 + x))
    if w < 5.0:
        w -= 2.5
        p = 2.81022636e-08
        for coefficient in (3.43273939e-07, -3.5233877e-06, -4.39150654e-06,
                            0.00021858087, -0.00125372503, -0.00417768164,
                            0.246640727, 1.50140941):
            p = p * w + coefficient
    else:
        w = math.sqrt(w) - 3.0
        p = -0.000200214257
        for coefficient in (0.000100950558, 0.00134934322, -0.00367342844,
                            0.00573950773, -0.0076224613, 0.00943887047,
                            1.00167406, 2.83297682):
            p = p * w + coefficient
    result = p * x
    # one Newton step: erf(result) ~ x
    for _ in range(2):
        error = math.erf(result) - x
        result -= error / (2.0 / math.sqrt(math.pi)
                           * math.exp(-result * result))
    return result


StatisticFn = Callable[[Sequence[ResponseRecord]], float]


def prevalence_statistic(records: Sequence[ResponseRecord]) -> float:
    """Malicious share of downloadable archive/exe responses."""
    downloadable = [record for record in records
                    if record.counts_as_downloadable_type
                    and record.downloaded]
    if not downloadable:
        return 0.0
    malicious = sum(1 for record in downloadable if record.is_malicious)
    return malicious / len(downloadable)


def private_share_statistic(records: Sequence[ResponseRecord]) -> float:
    """Private-address share of malicious responses."""
    from ...simnet.addresses import classify_address
    malicious = [record for record in records
                 if record.downloaded and record.is_malicious
                 and record.counts_as_downloadable_type]
    if not malicious:
        return 0.0
    private = sum(1 for record in malicious
                  if classify_address(record.responder_host) == "private")
    return private / len(malicious)


def top_share_statistic(n: int) -> StatisticFn:
    """Statistic factory: top-``n`` strain share of malicious responses."""
    def statistic(records: Sequence[ResponseRecord]) -> float:
        from collections import Counter
        counts = Counter(record.malware_name for record in records
                         if record.downloaded and record.is_malicious
                         and record.counts_as_downloadable_type)
        total = sum(counts.values())
        if not total:
            return 0.0
        return sum(count for _, count in counts.most_common(n)) / total
    return statistic


def bootstrap_ci(store: MeasurementStore, statistic: StatisticFn,
                 resamples: int = 500, confidence: float = 0.95,
                 seed: int = 0) -> ConfidenceInterval:
    """Percentile bootstrap of ``statistic`` over the store's records."""
    if resamples <= 0:
        raise ValueError(f"resamples must be positive, got {resamples!r}")
    records = store.records()
    if not records:
        return ConfidenceInterval(0.0, 0.0, 0.0, confidence)
    # imported here: no campaign command calls this, so none loads numpy
    import numpy as np

    rng = np.random.default_rng(seed)
    count = len(records)
    values: List[float] = []
    for _ in range(resamples):
        indices = rng.integers(0, count, size=count)
        sample = [records[index] for index in indices]
        values.append(statistic(sample))
    lower_q = (1.0 - confidence) / 2.0
    low, high = np.quantile(values, [lower_q, 1.0 - lower_q])
    return ConfidenceInterval(estimate=statistic(records),
                              low=float(low), high=float(high),
                              confidence=confidence)
