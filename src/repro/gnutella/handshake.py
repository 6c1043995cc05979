"""The Gnutella 0.6 connection handshake.

Three HTTP-style header exchanges establish a connection and negotiate
roles:

1. initiator: ``GNUTELLA CONNECT/0.6`` + headers
2. acceptor:  ``GNUTELLA/0.6 200 OK`` + headers (or a rejection code)
3. initiator: ``GNUTELLA/0.6 200 OK`` + final headers

The headers that matter for the reproduction are ``X-Ultrapeer`` (role
claim), ``X-Ultrapeer-Needed`` (leaf-guidance), ``X-Query-Routing`` (QRP
support) and ``User-Agent`` (the servent census the analysis can report).
The codec is text-faithful so tests can exercise real header parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["HandshakeError", "HandshakeMessage", "connect_request",
           "accept_response", "reject_response", "final_ack",
           "negotiate_roles"]

_CONNECT_LINE = "GNUTELLA CONNECT/0.6"
_RESPONSE_PREFIX = "GNUTELLA/0.6"
_CRLF = "\r\n"


class HandshakeError(ValueError):
    """Raised on malformed or rejected handshakes."""


# A dataclass, not a NamedTuple: ``headers`` defaults to a fresh dict.
@dataclass(frozen=True)
class HandshakeMessage:
    """One leg of the handshake: a start line plus headers."""

    start_line: str
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        lines = [self.start_line]
        lines.extend(f"{name}: {value}" for name, value in
                     sorted(self.headers.items()))
        return (_CRLF.join(lines) + _CRLF + _CRLF).encode("ascii")

    @staticmethod
    def decode(raw: bytes) -> "HandshakeMessage":
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise HandshakeError("handshake is not ASCII") from exc
        if not text.endswith(_CRLF + _CRLF):
            raise HandshakeError("handshake not terminated by blank line")
        lines = text[:-len(_CRLF + _CRLF)].split(_CRLF)
        start_line, header_lines = lines[0], lines[1:]
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, separator, value = line.partition(":")
            if not separator:
                raise HandshakeError(f"malformed header line {line!r}")
            headers[name.strip()] = value.strip()
        return HandshakeMessage(start_line=start_line, headers=headers)

    @property
    def is_ok(self) -> bool:
        """True for a ``200`` response leg."""
        return self.start_line.startswith(f"{_RESPONSE_PREFIX} 200")

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


def connect_request(user_agent: str, ultrapeer: bool,
                    listen_ip: str, port: int) -> HandshakeMessage:
    """Build leg 1 (initiator's offer)."""
    return HandshakeMessage(_CONNECT_LINE, {
        "User-Agent": user_agent,
        "X-Ultrapeer": "True" if ultrapeer else "False",
        "X-Query-Routing": "0.1",
        "Listen-IP": f"{listen_ip}:{port}",
    })


def accept_response(user_agent: str, ultrapeer: bool,
                    ultrapeer_needed: Optional[bool] = None) -> HandshakeMessage:
    """Build leg 2 (acceptor's 200 OK)."""
    headers = {
        "User-Agent": user_agent,
        "X-Ultrapeer": "True" if ultrapeer else "False",
        "X-Query-Routing": "0.1",
    }
    if ultrapeer_needed is not None:
        headers["X-Ultrapeer-Needed"] = "True" if ultrapeer_needed else "False"
    return HandshakeMessage(f"{_RESPONSE_PREFIX} 200 OK", headers)


def reject_response(code: int, reason: str) -> HandshakeMessage:
    """Build a rejecting leg 2 (e.g. ``503 Shielded leaf node``)."""
    return HandshakeMessage(f"{_RESPONSE_PREFIX} {code} {reason}")


def final_ack(user_agent: str) -> HandshakeMessage:
    """Build leg 3 (initiator's confirmation)."""
    return HandshakeMessage(f"{_RESPONSE_PREFIX} 200 OK",
                            {"User-Agent": user_agent})


def negotiate_roles(request: HandshakeMessage,
                    response: HandshakeMessage) -> Tuple[str, str]:
    """Derive the (initiator_role, acceptor_role) of a completed handshake.

    Roles are ``"ultrapeer"`` or ``"leaf"``.  A leaf-guided initiator
    (``X-Ultrapeer-Needed: False`` from an ultrapeer acceptor) demotes to
    leaf, matching 0.6 leaf-guidance semantics.
    """
    if not response.is_ok:
        raise HandshakeError(f"connection rejected: {response.start_line!r}")
    initiator_up = request.header("X-Ultrapeer").lower() == "true"
    acceptor_up = response.header("X-Ultrapeer").lower() == "true"
    guidance = response.header("X-Ultrapeer-Needed").lower()
    if initiator_up and acceptor_up and guidance == "false":
        initiator_up = False
    return ("ultrapeer" if initiator_up else "leaf",
            "ultrapeer" if acceptor_up else "leaf")
