"""HTTP/1.1 codec for P2P file transfers.

Both measured networks moved file bytes over HTTP: Gnutella servents
served ``GET /get/<index>/<filename>`` and the HUGE form
``GET /uri-res/N2R?urn:sha1:<base32>``; giFT's HTTP layer served OpenFT
shares by hash.  The reproduction's downloads run through this codec so
the measurement layer parses real request/response heads, including the
status codes that distinguish "downloadable" from not (404 gone, 503
busy) -- the distinction the paper's denominator is built on.

Bodies are not materialized: a response carries ``Content-Length`` and
content identity headers, and the sparse :class:`~repro.files.payload.Blob`
travels out-of-band as the simulated byte stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = ["HttpError", "HttpRequest", "HttpResponse",
           "gnutella_urn_request", "gnutella_index_request",
           "openft_request", "received_request", "received_response"]

_CRLF = "\r\n"
#: distinct heads each round-trip memo remembers.  A 1.5-day Limewire
#: world sends ~265 distinct request heads and ~550 distinct response
#: heads in ~20,000 downloads, so every distinct head fits and 97-99%
#: of the round trips are answered from the memo
HEAD_MEMO_SIZE = 1024


class HttpError(ValueError):
    """Raised on malformed HTTP heads."""


def _encode_head(start_line: str, headers: Dict[str, str]) -> bytes:
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return (_CRLF.join(lines) + _CRLF + _CRLF).encode("latin-1")


def _parse_head(raw: bytes) -> Tuple[str, Dict[str, str]]:
    try:
        text = raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise HttpError("undecodable HTTP head") from exc
    if not text.endswith(_CRLF + _CRLF):
        raise HttpError("HTTP head not terminated by blank line")
    lines = text[:-4].split(_CRLF)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(f"malformed header line {line!r}")
        headers[name.strip()] = value.strip()
    return lines[0], headers


# The two heads are dataclasses, not NamedTuples: ``headers`` defaults
# to a fresh dict.
@dataclass(frozen=True)
class HttpRequest:
    """A download request head."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        return _encode_head(f"{self.method} {self.target} HTTP/1.1",
                            dict(self.headers))

    @staticmethod
    def decode(raw: bytes) -> "HttpRequest":
        start_line, headers = _parse_head(raw)
        parts = start_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(f"malformed request line {start_line!r}")
        return HttpRequest(method=parts[0], target=parts[1],
                           headers=headers)

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclass(frozen=True)
class HttpResponse:
    """A download response head."""

    status: int
    reason: str
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        return _encode_head(f"HTTP/1.1 {self.status} {self.reason}",
                            dict(self.headers))

    @staticmethod
    def decode(raw: bytes) -> "HttpResponse":
        start_line, headers = _parse_head(raw)
        parts = start_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError(f"malformed status line {start_line!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpError(f"bad status code in {start_line!r}") from exc
        reason = parts[2] if len(parts) == 3 else ""
        return HttpResponse(status=status, reason=reason, headers=headers)

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    @property
    def ok(self) -> bool:
        """True for 2xx."""
        return 200 <= self.status < 300

    def content_length(self) -> Optional[int]:
        """Parsed Content-Length, if present and valid."""
        value = self.header("Content-Length")
        if not value:
            return None
        try:
            return int(value)
        except ValueError as exc:
            raise HttpError(f"bad Content-Length {value!r}") from exc


def gnutella_urn_request(sha1_urn: str,
                         user_agent: str = "LimeWire/4.12.3") -> HttpRequest:
    """The HUGE download-by-hash request Limewire preferred."""
    return HttpRequest(method="GET", target=f"/uri-res/N2R?{sha1_urn}",
                       headers={"User-Agent": user_agent,
                                "Connection": "Keep-Alive"})


def gnutella_index_request(file_index: int, filename: str,
                           user_agent: str = "LimeWire/4.12.3",
                           ) -> HttpRequest:
    """The classic index/name download request."""
    return HttpRequest(method="GET",
                       target=f"/get/{file_index}/{filename}",
                       headers={"User-Agent": user_agent})


def openft_request(md5: str, user_agent: str = "giFT/0.11.8",
                   ) -> HttpRequest:
    """giFT's download-by-hash request."""
    return HttpRequest(method="GET", target=f"/?md5={md5}",
                       headers={"User-Agent": user_agent})


@functools.lru_cache(maxsize=HEAD_MEMO_SIZE)
def received_request(request_for: Callable[[str], HttpRequest],
                     key: str) -> HttpRequest:
    """The request a server parses when a client sends
    ``request_for(key)`` (say ``openft_request(md5)``).

    The head is encoded and decoded through the codec once per distinct
    (request function, content key) pair -- the function fixes the user
    agent -- and the parsed request is shared afterwards, so no caller
    may mutate its ``headers``.
    """
    return HttpRequest.decode(request_for(key).encode())


@functools.lru_cache(maxsize=HEAD_MEMO_SIZE)
def received_response(head: bytes) -> HttpResponse:
    """``HttpResponse.decode(head)``, parsed once per distinct head.

    The parsed response is shared, so no caller may mutate its
    ``headers``.  A malformed head raises on every call.
    """
    return HttpResponse.decode(head)
