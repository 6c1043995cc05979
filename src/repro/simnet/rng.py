"""Deterministic random-number streams for the simulator.

Every stochastic subsystem in the reproduction (topology wiring, file
catalogs, malware placement, churn, query workloads...) draws from its own
named stream derived from a single campaign seed.  This keeps experiments
reproducible while allowing one subsystem's draw count to change without
perturbing the others -- the property the paper's month-long measurement
obviously had (the network did not reshuffle because the crawler asked one
more query) and the one regression tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["derive_seed", "SeededStream", "StreamRegistry"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 so that nearby master seeds or similar names do not produce
    correlated child seeds (Python's ``random.Random(seed)`` is sensitive to
    low-entropy seeds).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStream:
    """A named, independently seeded wrapper around :class:`random.Random`.

    Only the operations the simulator needs are exposed; this keeps call
    sites honest about what randomness they consume and makes it easy to
    audit determinism.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self.name = name
        self.seed = derive_seed(master_seed, name)
        self._random = random.Random(self.seed)

    # -- draws ------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given ``rate``."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw."""
        return self._random.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normal draw (natural parameters)."""
        return self._random.lognormvariate(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def choices(self, seq: Sequence[T], weights: Optional[Sequence[float]] = None,
                k: int = 1) -> list:
        """``k`` weighted choices with replacement."""
        return self._random.choices(seq, weights=weights, k=k)

    def sample(self, seq: Sequence[T], k: int) -> list:
        """``k`` choices without replacement."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def bytes(self, n: int) -> bytes:
        """``n`` random bytes (used for synthetic payload content)."""
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        count = 1
        while not self.bernoulli(p):
            count += 1
        return count

    def zipf_rank(self, n: int, alpha: float) -> int:
        """Draw a 1-based rank from a truncated Zipf(alpha) law over ``n`` items.

        Inverse-CDF sampling over the normalized harmonic weights; O(n) setup
        is avoided by callers that need bulk draws (see ``files.zipf``), this
        helper is for incidental draws.
        """
        total = sum(1.0 / (rank ** alpha) for rank in range(1, n + 1))
        target = self.random() * total
        cumulative = 0.0
        for rank in range(1, n + 1):
            cumulative += 1.0 / (rank ** alpha)
            if cumulative >= target:
                return rank
        return n


class StreamRegistry:
    """Registry handing out :class:`SeededStream` objects by name.

    A campaign creates one registry from its master seed; all subsystems ask
    it for their stream.  Asking twice for the same name returns the *same*
    stream object, so a subsystem's state is shared across its components.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, SeededStream] = {}

    def stream(self, name: str) -> SeededStream:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = SeededStream(self.master_seed, name)
        return self._streams[name]

    def names(self) -> list:
        """Names of all streams created so far (sorted, for reporting)."""
        return sorted(self._streams)
