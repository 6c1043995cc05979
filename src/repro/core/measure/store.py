"""The measurement store: an append-only log of response records.

Holds everything a campaign observed, with the query/filter helpers the
analysis layer is built on, and JSON-lines persistence so long campaigns
can be collected once and analysed many times (the paper's month of data
was similarly a log post-processed offline).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .records import ResponseRecord

__all__ = ["MeasurementStore"]


class MeasurementStore:
    """In-memory collection of :class:`ResponseRecord` with persistence."""

    def __init__(self, network: str) -> None:
        self.network = network
        self._records: List[ResponseRecord] = []
        self.queries_issued = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResponseRecord]:
        return iter(self._records)

    def add(self, record: ResponseRecord) -> None:
        """Append one response."""
        if record.network != self.network:
            raise ValueError(
                f"record network {record.network!r} does not match store "
                f"{self.network!r}")
        self._records.append(record)

    def note_query(self) -> None:
        """Count one issued query (T1 reports this)."""
        self.queries_issued += 1

    # -- selections ---------------------------------------------------------
    def records(self, predicate: Optional[Callable[[ResponseRecord], bool]]
                = None) -> List[ResponseRecord]:
        """All records, optionally filtered."""
        if predicate is None:
            return list(self._records)
        return [record for record in self._records if predicate(record)]

    def downloadable_responses(self) -> List[ResponseRecord]:
        """The paper's denominator: archive/executable responses whose
        download succeeded."""
        return [record for record in self._records
                if record.counts_as_downloadable_type and record.downloaded]

    def malicious_responses(self) -> List[ResponseRecord]:
        """Downloadable responses that scanned dirty."""
        return [record for record in self.downloadable_responses()
                if record.is_malicious]

    def clean_downloadable_responses(self) -> List[ResponseRecord]:
        """Downloadable responses that scanned clean."""
        return [record for record in self.downloadable_responses()
                if not record.is_malicious]

    def unique_hosts(self) -> int:
        """Distinct responder keys seen."""
        return len({record.responder_key for record in self._records})

    def unique_contents(self) -> int:
        """Distinct content identities seen."""
        return len({record.content_id for record in self._records})

    def by_day(self) -> Dict[int, List[ResponseRecord]]:
        """Records grouped by virtual day."""
        days: Dict[int, List[ResponseRecord]] = {}
        for record in self._records:
            days.setdefault(record.day, []).append(record)
        return days

    def content_digest(self) -> str:
        """sha256 over the store's serialized form, without touching disk.

        Hashes exactly the bytes :meth:`save` would write, so two stores
        with the same digest persist identically -- the golden campaign
        fixtures pin collected measurements bit for bit with it.
        """
        import hashlib

        hasher = hashlib.sha256()
        header = (f'{{"store_network":"{self.network}",'
                  f'"queries_issued":{self.queries_issued}}}')
        hasher.update(header.encode("utf-8") + b"\n")
        for record in self._records:
            hasher.update(record.to_json().encode("utf-8") + b"\n")
        return hasher.hexdigest()

    # -- persistence ------------------------------------------------------
    def save(self, path: Path) -> int:
        """Write JSON-lines (first line is a header); returns record count."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            header = (f'{{"store_network":"{self.network}",'
                      f'"queries_issued":{self.queries_issued}}}')
            handle.write(header + "\n")
            for record in self._records:
                handle.write(record.to_json() + "\n")
        return len(self._records)

    @staticmethod
    def load(path: Path) -> "MeasurementStore":
        """Read a store back from JSON-lines."""
        import json

        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            store = MeasurementStore(header["store_network"])
            store.queries_issued = header["queries_issued"]
            for line in handle:
                line = line.strip()
                if line:
                    store.add(ResponseRecord.from_json(line))
        return store

    def extend(self, records: Iterable[ResponseRecord]) -> None:
        """Bulk append."""
        for record in records:
            self.add(record)
