"""Synthetic file payloads.

Downloading every responded file at full size would need gigabytes, so
payloads are *sparse*: a :class:`Blob` carries the declared size, a real
header (first bytes, with a magic matching the extension), any embedded
marker strings (malware bodies hide their signature bytes here), and --
for archives -- a member table of nested blobs.  The scanner operates on
exactly this structure: sniff the header, search markers, recurse into
archive members; i.e. the same pipeline the paper ran over real downloads.

SHA-1 identity is computed over a canonical serialization of the spec, so
two peers sharing the same logical content produce the same urn, which is
what lets the collector de-duplicate downloads by hash like Limewire's
HUGE/urn:sha1 support allowed.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["MAGIC_BYTES", "Blob", "sha1_urn_for"]

#: File-format magics by extension; unknown extensions get a neutral header.
MAGIC_BYTES = {
    "mp3": b"ID3\x03\x00",
    "wma": b"\x30\x26\xb2\x75",
    "ogg": b"OggS",
    "wav": b"RIFF",
    "avi": b"RIFF",
    "mpg": b"\x00\x00\x01\xba",
    "wmv": b"\x30\x26\xb2\x75",
    "mov": b"\x00\x00\x00\x14ftyp",
    "zip": b"PK\x03\x04",
    "rar": b"Rar!\x1a\x07\x00",
    "tar": b"ustar",
    "ace": b"**ACE**",
    "exe": b"MZ",
    "msi": b"\xd0\xcf\x11\xe0",
    "scr": b"MZ",
    "com": b"\xe9",
    "jpg": b"\xff\xd8\xff",
    "gif": b"GIF89a",
    "png": b"\x89PNG",
    "pdf": b"%PDF-1.4",
    "doc": b"\xd0\xcf\x11\xe0",
    "txt": b"",
}


# A dataclass, not a NamedTuple: it caches its urn, md5 and scan body
# in fields set through ``object.__setattr__``.
@dataclass(frozen=True)
class Blob:
    """Sparse representation of one file's content.

    ``content_key`` is the logical identity of the content (same key ==
    bit-identical file everywhere); ``markers`` are byte strings embedded
    somewhere in the body, which is how synthetic malware carries its
    detectable signature.
    """

    content_key: str
    extension: str
    size: int
    markers: Tuple[bytes, ...] = ()
    members: Tuple["Blob", ...] = ()
    _urn: Optional[str] = field(default=None, compare=False, repr=False)
    _md5: Optional[str] = field(default=None, compare=False, repr=False)
    _scan_body: Optional[bytes] = field(default=None, compare=False,
                                        repr=False)

    def header(self, length: int = 64) -> bytes:
        """The first ``length`` bytes: format magic + deterministic filler."""
        magic = MAGIC_BYTES.get(self.extension.lower(), b"")
        filler_needed = max(0, length - len(magic))
        filler = hashlib.sha256(
            f"hdr:{self.content_key}".encode("utf-8")).digest()
        while len(filler) < filler_needed:
            filler += hashlib.sha256(filler).digest()
        return (magic + filler[:filler_needed])[:length]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization hashed for content identity."""
        parts = [
            b"blob|", self.content_key.encode("utf-8"),
            b"|", self.extension.encode("utf-8"),
            b"|", str(self.size).encode("ascii"),
        ]
        for marker in self.markers:
            parts.extend((b"|m:", marker))
        for member in self.members:
            parts.extend((b"|member:", member.canonical_bytes()))
        return b"".join(parts)

    def sha1_urn(self) -> str:
        """``urn:sha1:<base32>`` identity, Gnutella HUGE style.

        Cached after the first call: identities are immutable and the
        scanner's verdict cache looks this up on every download.
        """
        if self._urn is None:
            digest = hashlib.sha1(self.canonical_bytes()).digest()
            urn = "urn:sha1:" + base64.b32encode(digest).decode("ascii")
            object.__setattr__(self, "_urn", urn)
        return self._urn

    def scan_body(self) -> bytes:
        """The byte string the scanner pattern-matches against.

        Markers joined with ``|`` plus the header, cached so repeat
        scans of the same blob (downloads are duplicate-heavy) don't
        rebuild it.
        """
        if self._scan_body is None:
            body = b"|".join(self.markers) + b"#" + self.header()
            object.__setattr__(self, "_scan_body", body)
        return self._scan_body

    def md5_hex(self) -> str:
        """Hex MD5 identity (OpenFT's content hash).

        Cached after the first call, like :meth:`sha1_urn`: the
        downloader verifies every fetched OpenFT blob against the
        advertised md5, so repeat downloads must not re-hash.
        """
        if self._md5 is None:
            object.__setattr__(self, "_md5",
                               hashlib.md5(self.canonical_bytes()).hexdigest())
        return self._md5

    def contains_marker(self, marker: bytes) -> bool:
        """True if this blob or any nested member embeds ``marker``."""
        if marker in self.markers:
            return True
        return any(member.contains_marker(marker) for member in self.members)

    def iter_members(self):
        """Depth-first traversal of self and nested members."""
        yield self
        for member in self.members:
            yield from member.iter_members()


def sha1_urn_for(blob: Blob) -> str:
    """Module-level convenience mirroring :meth:`Blob.sha1_urn`."""
    return blob.sha1_urn()
