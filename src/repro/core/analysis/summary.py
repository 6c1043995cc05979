"""T1: the data-collection summary table.

Mirrors the paper's overview of what a month of instrumented crawling
gathered: queries issued, responses, the archive/executable subset, how
many could actually be downloaded, and the host/content diversity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..measure.store import MeasurementStore

__all__ = ["CollectionSummary", "summarize_collection"]


@dataclass(frozen=True)
class CollectionSummary:
    """One network's collection overview."""

    network: str
    duration_days: float
    queries_issued: int
    responses: int
    downloadable_type_responses: int   # archives+executables advertised
    downloaded_responses: int          # of those, downloads that succeeded
    malicious_responses: int
    unique_hosts: int
    unique_contents: int

    @property
    def responses_per_query(self) -> float:
        """Average responses per issued query."""
        return self.responses / self.queries_issued if self.queries_issued else 0.0

    @property
    def download_success_rate(self) -> float:
        """Fraction of archive/exe responses that were downloadable."""
        if not self.downloadable_type_responses:
            return 0.0
        return self.downloaded_responses / self.downloadable_type_responses


def summarize_collection(store: MeasurementStore,
                         duration_days: float) -> CollectionSummary:
    """Compute T1 for one campaign's store."""
    typed = store.downloadable_type_responses()
    downloaded = [record for record in typed if record.downloaded]
    malicious = [record for record in downloaded if record.is_malicious]
    return CollectionSummary(
        network=store.network,
        duration_days=duration_days,
        queries_issued=store.queries_issued,
        responses=len(store),
        downloadable_type_responses=len(typed),
        downloaded_responses=len(downloaded),
        malicious_responses=len(malicious),
        unique_hosts=store.unique_hosts(),
        unique_contents=store.unique_contents(),
    )
