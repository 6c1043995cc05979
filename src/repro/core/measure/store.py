"""The measurement store: an append-only log of response records.

Holds everything a campaign observed, with the query/filter helpers the
analysis layer is built on, and JSON-lines persistence so long campaigns
can be collected once and analysed many times (the paper's month of data
was similarly a log post-processed offline).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ...resilience.store import atomic_writer
from .records import ResponseRecord

__all__ = ["MeasurementStore"]


class MeasurementStore:
    """In-memory collection of :class:`ResponseRecord` with persistence."""

    def __init__(self, network: str) -> None:
        self.network = network
        self._records: List[ResponseRecord] = []
        #: the archive/executable records, in arrival order.  Only the
        #: type verdict is kept: it depends on the filename alone, while
        #: the downloader sets ``downloaded`` and ``malware_name`` after
        #: ``add``, so the selections below read those when called.
        self._typed: List[ResponseRecord] = []
        #: the strings :meth:`add` shares, freed with the store
        self._strings: Dict[str, str] = {}
        self.queries_issued = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResponseRecord]:
        return iter(self._records)

    def add(self, record: ResponseRecord) -> None:
        """Append one response.

        A responder's key and host, a popular file's name and hash, a
        vendor code and a query each recur across many responses, so
        those six fields are swapped for the equal string the store
        already holds: each distinct value is kept once per store.
        """
        if record.network != self.network:
            raise ValueError(
                f"record network {record.network!r} does not match store "
                f"{self.network!r}")
        share = self._strings.setdefault
        record.query = share(record.query, record.query)
        record.responder_host = share(record.responder_host,
                                      record.responder_host)
        record.responder_key = share(record.responder_key,
                                     record.responder_key)
        record.filename = share(record.filename, record.filename)
        record.content_id = share(record.content_id, record.content_id)
        record.vendor = share(record.vendor, record.vendor)
        self._records.append(record)
        if record.counts_as_downloadable_type:
            self._typed.append(record)

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

    def downloadable_type_responses(self) -> List[ResponseRecord]:
        """Archive/executable responses, downloaded or not (T1)."""
        return list(self._typed)

    def downloadable_responses(self) -> List[ResponseRecord]:
        """The paper's denominator: archive/executable responses whose
        download succeeded."""
        return [record for record in self._typed if record.downloaded]

    def malicious_responses(self) -> List[ResponseRecord]:
        """Downloadable responses that scanned dirty."""
        return [record for record in self._typed
                if record.downloaded and record.malware_name is not None]

    def clean_downloadable_responses(self) -> List[ResponseRecord]:
        """Downloadable responses that scanned clean."""
        return [record for record in self._typed
                if record.downloaded and record.malware_name is None]

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

    def _lines(self) -> Iterator[bytes]:
        """The serialized form, one line at a time (header first)."""
        yield (f'{{"store_network":"{self.network}",'
               f'"queries_issued":{self.queries_issued}}}\n'
               ).encode("utf-8")
        for record in self._records:
            yield (record.to_json() + "\n").encode("utf-8")

    def content_digest(self) -> str:
        """sha256 over the store's serialized form, without touching disk.

        Hashes exactly the bytes :meth:`save` would write, so two stores
        with the same digest persist identically -- the golden campaign
        fixtures pin collected measurements bit for bit with it.
        """
        hasher = hashlib.sha256()
        for line in self._lines():
            hasher.update(line)
        return hasher.hexdigest()

    # -- persistence ------------------------------------------------------
    def save(self, path: Path) -> int:
        """Write JSON-lines (first line is a header); returns record count.

        The lines stream into a temp file that replaces ``path`` only
        once complete, so a run killed mid-save leaves the previous file
        (or none), never a shorter store that would analyse as a shorter
        campaign.  Streaming keeps the serialized store out of memory:
        a save is where a Limewire study peaks.
        """
        with atomic_writer(Path(path)) as handle:
            handle.writelines(self._lines())
        return len(self._records)

    @staticmethod
    def load(path: Path) -> "MeasurementStore":
        """Read a store back from JSON-lines.

        A malformed store -- empty, torn mid-line, a header without its
        fields, a line that is not a record -- raises ``ValueError``
        naming the path and the 1-based line.
        """
        path = Path(path)
        number = 1
        try:
            # bytes in, one line decoded at a time: a decode error is
            # charged to its own line, not to the start of a read chunk
            with path.open("rb") as handle:
                header = json.loads(handle.readline().decode("utf-8"))
                store = MeasurementStore(header["store_network"])
                store.queries_issued = header["queries_issued"]
                for number, raw in enumerate(handle, start=2):
                    line = raw.decode("utf-8").strip()
                    if line:
                        store.add(ResponseRecord.from_json(line))
        except (KeyError, TypeError, ValueError) as error:
            detail = (f"missing field {error}" if isinstance(error, KeyError)
                      else str(error))
            raise ValueError(
                f"malformed store {path}, line {number}: {detail}"
            ) from error
        return store

    def extend(self, records: Iterable[ResponseRecord]) -> None:
        """Bulk append."""
        for record in records:
            self.add(record)
