"""Measurement records: what the instrumented clients log.

A :class:`ResponseRecord` is one query response as the paper's
instrumentation saw it: only protocol-visible fields (self-reported host,
filename, size, content hash) plus the post-processing annotations
(download outcome, scan verdict).  Ground-truth fields the real study did
*not* have are deliberately absent -- analyses must work from the record
alone, with the simulator's ground truth used only by tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

from ...files.types import is_downloadable_type, type_for_extension

__all__ = ["ResponseRecord"]


@dataclass(slots=True)
class ResponseRecord:
    """One response row in the measurement store."""

    network: str               # "limewire" | "openft"
    time: float                # virtual seconds since campaign start
    query: str
    responder_host: str        # self-reported address (may be RFC 1918!)
    responder_port: int
    responder_key: str         # stable responder id visible on the wire
    #                            (servent GUID hex / host:port)
    filename: str
    size: int
    content_id: str            # urn:sha1 (Gnutella) or md5 (OpenFT)
    push_needed: bool = False
    busy: bool = False
    #: responder's QHD vendor code (Gnutella) or client name (OpenFT)
    vendor: str = ""
    #: when the query this response answers was issued (virtual seconds);
    #: negative means unknown (e.g. legacy stores)
    query_time: float = -1.0
    # -- post-processing annotations -------------------------------------
    download_attempted: bool = False
    downloaded: bool = False
    #: terminal downloader outcome: "" (never resolved) | "success" |
    #: "offline" | "timeout" | "truncated" | "corrupt"
    download_outcome: str = ""
    malware_name: Optional[str] = None

    @property
    def extension(self) -> str:
        """Extension of the advertised filename (lowercase, no dot)."""
        stem, dot, extension = self.filename.rpartition(".")
        return extension.lower() if dot else ""

    @property
    def file_type(self) -> str:
        """Coarse content class of the advertised file."""
        return type_for_extension(self.extension).value

    @property
    def counts_as_downloadable_type(self) -> bool:
        """True for the archive/executable subset (the paper's scope)."""
        return is_downloadable_type(self.extension)

    @property
    def is_malicious(self) -> bool:
        """True when the downloaded content scanned dirty."""
        return self.malware_name is not None

    @property
    def day(self) -> int:
        """Zero-based virtual day the response arrived."""
        return int(self.time // 86400)

    @property
    def latency(self) -> Optional[float]:
        """Seconds from query issue to this response (None if unknown)."""
        if self.query_time < 0:
            return None
        return self.time - self.query_time

    # -- persistence -----------------------------------------------------
    def to_json(self) -> str:
        """One JSON line (the store's on-disk format).

        The bytes are those of ``json.dumps(asdict(record),
        sort_keys=True, separators=(",", ":"))``: every field is a str,
        number, bool or None, so encoding the values in sorted key order
        skips ``asdict``'s deep copy and changes nothing on disk.
        """
        return _ENCODER.encode({name: getattr(self, name)
                                for name in _SORTED_FIELDS})

    @staticmethod
    def from_json(line: str) -> "ResponseRecord":
        """Parse a JSON line back into a record."""
        data = json.loads(line)
        return ResponseRecord(**data)


#: field names in the order ``sort_keys=True`` would emit them
_SORTED_FIELDS = tuple(sorted(field.name
                              for field in fields(ResponseRecord)))
_ENCODER = json.JSONEncoder(separators=(",", ":"))
