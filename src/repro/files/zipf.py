"""Bulk Zipf sampling over catalog ranks.

Content popularity in file-sharing networks is classically Zipf-like (with
the fetch-at-most-once flattening noted by Gummadi et al.); we use a plain
truncated Zipf for the *sharing* distribution, which is what shapes how
many replicas of each work exist and therefore how many responses a query
gets.  The cumulative distribution is built once per sampler as a
plain list of floats; each draw is a ``bisect`` over it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from ..simnet.rng import SeededStream

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Inverse-CDF sampler for a truncated Zipf(alpha) law over n ranks."""

    def __init__(self, n: int, alpha: float) -> None:
        if n <= 0:
            raise ValueError(f"need at least one rank, got {n!r}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha!r}")
        self.n = n
        self.alpha = alpha
        # summed left to right, then divided by the total, as numpy's
        # cumsum did: the pinned stores rest on these exact floats
        sums = list(accumulate(1.0 / float(rank) ** alpha
                               for rank in range(1, n + 1)))
        total = sums[-1]
        self._cdf = [partial / total for partial in sums]

    def probability(self, rank: int) -> float:
        """P(rank); ranks are 1-based."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank!r} out of range 1..{self.n}")
        previous = self._cdf[rank - 2] if rank > 1 else 0.0
        return self._cdf[rank - 1] - previous

    def sample(self, stream: SeededStream, k: int) -> list:
        """Draw ``k`` 1-based ranks (with replacement)."""
        if k < 0:
            raise ValueError(f"negative sample count {k!r}")
        cdf = self._cdf
        return [bisect_left(cdf, stream.random()) + 1 for _ in range(k)]

    def sample_one(self, stream: SeededStream) -> int:
        """Draw a single 1-based rank."""
        return bisect_left(self._cdf, stream.random()) + 1
