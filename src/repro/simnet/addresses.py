"""IPv4 address modelling: allocation pools, RFC 1918 classification, NAT.

The paper's most surprising source finding -- 28% of malicious Limewire
responses came from *private* address ranges -- is an artifact of how
Gnutella query hits carry a self-reported IPv4 address: a servent behind a
NAT that never learned its external address advertises its RFC 1918 one.
We model that directly: every simulated host has a *true* attachment
address, and NATed hosts self-report a private address in protocol
payloads.  The analysis layer then classifies reported addresses exactly as
the paper did.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

from .rng import SeededStream

__all__ = [
    "PRIVATE_NETWORKS", "is_private", "is_loopback", "is_reserved",
    "classify_address", "HostAddress", "AddressAllocator",
]

#: RFC 1918 private ranges plus link-local, matching the classification a
#: 2006 measurement study would apply to self-reported Gnutella addresses.
PRIVATE_NETWORKS = (
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
    ipaddress.ip_network("169.254.0.0/16"),
)

_LOOPBACK = ipaddress.ip_network("127.0.0.0/8")
_RESERVED = (
    ipaddress.ip_network("0.0.0.0/8"),
    ipaddress.ip_network("224.0.0.0/4"),
    ipaddress.ip_network("240.0.0.0/4"),
)


def is_private(address: str) -> bool:
    """True when ``address`` falls in RFC 1918 / link-local space."""
    ip = ipaddress.ip_address(address)
    return any(ip in network for network in PRIVATE_NETWORKS)


def is_loopback(address: str) -> bool:
    """True for 127.0.0.0/8."""
    return ipaddress.ip_address(address) in _LOOPBACK


def is_reserved(address: str) -> bool:
    """True for unroutable reserved space (0/8, multicast, class E)."""
    ip = ipaddress.ip_address(address)
    return any(ip in network for network in _RESERVED)


@functools.lru_cache(maxsize=1 << 14)
def classify_address(address: str) -> str:
    """Bucket an address the way the paper's source analysis does.

    Returns one of ``"private"``, ``"loopback"``, ``"reserved"``,
    ``"public"`` (the first of :func:`is_loopback`, :func:`is_private`,
    :func:`is_reserved` that holds).  The address is parsed once, and
    each distinct one is classified once per process: a store holds a
    few hundred responders behind tens of thousands of responses.  A
    malformed address raises ``ValueError`` on every call (an
    exception is never cached).
    """
    ip = ipaddress.ip_address(address)
    if ip in _LOOPBACK:
        return "loopback"
    if any(ip in network for network in PRIVATE_NETWORKS):
        return "private"
    if any(ip in network for network in _RESERVED):
        return "reserved"
    return "public"


@dataclass(frozen=True)
class HostAddress:
    """The two faces of a simulated host's addressing.

    ``attachment``: where the host actually sits (always unique, used for
    ground-truth host attribution).
    ``advertised``: what the host self-reports inside protocol payloads --
    equals ``attachment`` for well-connected hosts, a private address for
    NATed hosts that never learned their external IP.
    """

    attachment: str
    advertised: str

    @property
    def behind_nat(self) -> bool:
        """True when the host advertises a private address."""
        return self.advertised != self.attachment

    def advertised_class(self) -> str:
        """Paper-style classification of the advertised address."""
        return classify_address(self.advertised)


class AddressAllocator:
    """Hands out unique attachment addresses and NATed advertised ones.

    Public attachment addresses are drawn across many /8s to mimic the AS
    spread of a real swarm; private advertised addresses are drawn from the
    three RFC 1918 pools with the empirical skew towards 192.168/16 home
    routers.
    """

    _PUBLIC_FIRST_OCTETS = tuple(
        octet for octet in range(1, 224)
        if octet not in (10, 127, 169, 172, 192)
    )
    _PRIVATE_POOLS: Tuple[Tuple[str, float], ...] = (
        ("192.168.0.0/16", 0.62),
        ("10.0.0.0/8", 0.27),
        ("172.16.0.0/12", 0.11),
    )

    def __init__(self, stream: SeededStream) -> None:
        self._stream = stream
        self._used: Set[str] = set()

    def _unique(self, generator: Iterator[str]) -> str:
        for candidate in generator:
            if candidate not in self._used:
                self._used.add(candidate)
                return candidate
        raise RuntimeError("address pool exhausted")

    def _public_candidates(self) -> Iterator[str]:
        while True:
            first = self._stream.choice(self._PUBLIC_FIRST_OCTETS)
            rest = [self._stream.randint(0, 255) for _ in range(2)]
            last = self._stream.randint(1, 254)
            yield f"{first}.{rest[0]}.{rest[1]}.{last}"

    def _private_candidates(self) -> Iterator[str]:
        pools = [pool for pool, _ in self._PRIVATE_POOLS]
        weights = [weight for _, weight in self._PRIVATE_POOLS]
        while True:
            pool = ipaddress.ip_network(
                self._stream.choices(pools, weights=weights, k=1)[0])
            offset = self._stream.randint(1, pool.num_addresses - 2)
            yield str(pool[offset])

    def allocate(self, behind_nat: bool = False) -> HostAddress:
        """Allocate addressing for one host.

        NATed hosts get a unique public attachment address (their NAT's
        outside face) and a private advertised address.
        """
        attachment = self._unique(self._public_candidates())
        if behind_nat:
            advertised = self._unique(self._private_candidates())
        else:
            advertised = attachment
        return HostAddress(attachment=attachment, advertised=advertised)

    def allocate_public(self) -> HostAddress:
        """Convenience: allocate a host that is not behind NAT."""
        return self.allocate(behind_nat=False)

    @property
    def allocated_count(self) -> int:
        """Number of distinct addresses handed out so far."""
        return len(self._used)
