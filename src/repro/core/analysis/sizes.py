"""T6/F2: the size fingerprints of prevalent malware.

The paper's filtering insight rests on an empirical fact this module
surfaces: each prevalent strain occurs at a *tiny* number of exact byte
sizes (a worm mails copies of itself), while clean content sizes are
spread over a continuous distribution.  ``size_dictionary`` extracts, per
top strain, the most common sizes covering a target share of its
responses -- exactly the dictionary the size-based filter blocks on.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..measure.store import MeasurementStore
from .concentration import top_malware

__all__ = ["StrainSizeProfile", "size_dictionary", "distinct_size_counts"]


@dataclass(frozen=True)
class StrainSizeProfile:
    """The observed size distribution of one strain's responses."""

    name: str
    responses: int
    size_counts: Tuple[Tuple[int, int], ...]  # (size, responses) desc
    common_sizes: Tuple[int, ...]             # sizes covering the target

    @property
    def distinct_sizes(self) -> int:
        """How many exact sizes the strain occurred at."""
        return len(self.size_counts)

    def coverage(self, sizes: Tuple[int, ...]) -> float:
        """Share of this strain's responses covered by ``sizes``."""
        covered = sum(count for size, count in self.size_counts
                      if size in sizes)
        return covered / self.responses if self.responses else 0.0


def size_dictionary(store: MeasurementStore, top_n: int = 3,
                    coverage: float = 0.95) -> List[StrainSizeProfile]:
    """Per top-``top_n`` strain: the most common sizes covering ``coverage``.

    This is T6, and its union of ``common_sizes`` is the block list the
    size-based filter uses.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n!r}")
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage!r}")
    per_strain: Dict[str, Counter] = defaultdict(Counter)
    for record in store.malicious_responses():
        per_strain[record.malware_name][record.size] += 1

    profiles: List[StrainSizeProfile] = []
    for row in top_malware(store)[:top_n]:
        counts = per_strain[row.name]
        total = sum(counts.values())
        chosen: List[int] = []
        covered = 0
        for size, count in counts.most_common():
            chosen.append(size)
            covered += count
            if covered / total >= coverage:
                break
        profiles.append(StrainSizeProfile(
            name=row.name, responses=total,
            size_counts=tuple(counts.most_common()),
            common_sizes=tuple(chosen)))
    return profiles


def distinct_size_counts(store: MeasurementStore) -> Dict[str, int]:
    """F2: for every strain seen, how many exact sizes it occurred at."""
    per_strain: Dict[str, set] = defaultdict(set)
    for record in store.malicious_responses():
        per_strain[record.malware_name].add(record.size)
    return {name: len(sizes) for name, sizes in per_strain.items()}
