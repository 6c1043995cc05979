"""Tests for address modelling and classification."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.addresses import (AddressAllocator, classify_address,
                                    is_loopback, is_private, is_reserved)
from repro.simnet.rng import SeededStream


class TestClassification:
    @pytest.mark.parametrize("address", [
        "10.0.0.1", "10.255.255.254", "172.16.0.1", "172.31.9.9",
        "192.168.1.1", "169.254.10.20",
    ])
    def test_private(self, address):
        assert is_private(address)
        assert classify_address(address) == "private"

    @pytest.mark.parametrize("address", [
        "172.15.0.1", "172.32.0.1", "11.0.0.1", "192.169.0.1", "8.8.8.8",
    ])
    def test_public(self, address):
        assert not is_private(address)
        assert classify_address(address) == "public"

    def test_loopback(self):
        assert is_loopback("127.0.0.1")
        assert classify_address("127.1.2.3") == "loopback"

    @pytest.mark.parametrize("address", ["0.1.2.3", "224.0.0.1", "240.0.0.1"])
    def test_reserved(self, address):
        assert is_reserved(address)
        assert classify_address(address) == "reserved"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_classify_total_function(self, packed):
        address = str(ipaddress.ip_address(packed))
        assert classify_address(address) in {
            "private", "public", "loopback", "reserved"}


#: the networks whose boundaries the classification oracle draws
_EDGE_NETWORKS = [ipaddress.ip_network(network) for network in (
    "0.0.0.0/8", "127.0.0.0/8", "10.0.0.0/8", "172.16.0.0/12",
    "192.168.0.0/16", "169.254.0.0/16", "224.0.0.0/4", "240.0.0.0/4")]
#: each network's first and last address and its two outside neighbours
_EDGES = sorted({
    int(edge) + step
    for network in _EDGE_NETWORKS
    for edge, steps in ((network.network_address, (-1, 0, 1)),
                        (network.broadcast_address, (-1, 0, 1)))
    for step in steps
    if 0 <= int(edge) + step < 2 ** 32})


def _first_match(address: str) -> str:
    """Classification through the three predicates, in priority order."""
    if is_loopback(address):
        return "loopback"
    if is_private(address):
        return "private"
    if is_reserved(address):
        return "reserved"
    return "public"


class TestClassificationOracle:
    """``classify_address`` agrees with the predicates it summarizes."""

    @given(st.one_of(st.sampled_from(_EDGES),
                     st.integers(min_value=0, max_value=2 ** 32 - 1)))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_predicates(self, packed):
        address = str(ipaddress.IPv4Address(packed))
        assert classify_address(address) == _first_match(address)
        # a second call (a memo hit) gives the same answer
        assert classify_address(address) == _first_match(address)

    def test_every_edge(self):
        # the draws above may miss an edge; this pass may not
        for packed in _EDGES:
            address = str(ipaddress.IPv4Address(packed))
            assert classify_address(address) == _first_match(address)

    @pytest.mark.parametrize("address", [
        "", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d",
        "1.2.3.4 ", "example.org", "10.0.0.-1"])
    def test_malformed_raises_every_call(self, address):
        for _ in range(3):
            with pytest.raises(ValueError):
                classify_address(address)

    @given(st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_classifies_or_raises(self, text):
        try:
            expected = _first_match(text)
        except ValueError:
            for _ in range(2):
                with pytest.raises(ValueError):
                    classify_address(text)
        else:
            assert classify_address(text) == expected


class TestAllocator:
    def make(self):
        return AddressAllocator(SeededStream(5, "addr"))

    def test_public_allocation(self):
        allocator = self.make()
        host = allocator.allocate_public()
        assert not host.behind_nat
        assert host.attachment == host.advertised
        assert classify_address(host.advertised) == "public"

    def test_nat_allocation(self):
        allocator = self.make()
        host = allocator.allocate(behind_nat=True)
        assert host.behind_nat
        assert classify_address(host.advertised) == "private"
        assert classify_address(host.attachment) == "public"

    def test_uniqueness(self):
        allocator = self.make()
        seen = set()
        for index in range(500):
            host = allocator.allocate(behind_nat=index % 3 == 0)
            assert host.attachment not in seen
            assert host.advertised not in seen
            seen.add(host.attachment)
            seen.add(host.advertised)

    def test_allocated_count(self):
        allocator = self.make()
        allocator.allocate(behind_nat=True)   # two addresses
        allocator.allocate(behind_nat=False)  # one address
        assert allocator.allocated_count == 3

    def test_private_pools_skew_to_192168(self):
        allocator = self.make()
        hosts = [allocator.allocate(behind_nat=True) for _ in range(300)]
        in_192168 = sum(1 for host in hosts
                        if host.advertised.startswith("192.168."))
        assert in_192168 > 120  # ~62% expected

    def test_advertised_class_helper(self):
        allocator = self.make()
        assert allocator.allocate(True).advertised_class() == "private"
        assert allocator.allocate(False).advertised_class() == "public"
