"""Fuzz/robustness tests: hostile bytes must fail *cleanly*.

Both protocol stacks parse data from arbitrary peers, so every decoder
must either return a value or raise its module's typed error -- never an
unrelated exception -- and node message handlers must swallow garbage
while counting it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnutella.ggep import GgepError, decode_ggep
from repro.gnutella.handshake import HandshakeError, HandshakeMessage
from repro.gnutella.messages import MessageError, parse_frame
from repro.gnutella.qrp import (QrpPatch, QrpReset, QueryRouteTable,
                                decode_qrp, encode_qrp)
from repro.openft.packets import PacketError, decode_packet
from repro.transfer.http import HttpError, HttpRequest, HttpResponse

_settings = settings(max_examples=200, deadline=None)


@given(st.binary(max_size=200))
@_settings
def test_gnutella_frame_parser_total(data):
    try:
        parse_frame(data)
    except MessageError:
        pass


@given(st.binary(max_size=200))
@_settings
def test_openft_packet_parser_total(data):
    try:
        decode_packet(data)
    except PacketError:
        pass


@given(st.binary(max_size=200))
@_settings
def test_ggep_parser_total(data):
    try:
        decode_ggep(data)
    except GgepError:
        pass


@given(st.binary(max_size=200))
@_settings
def test_qrp_parser_total(data):
    try:
        decode_qrp(data)
    except ValueError:
        pass


_qrp_powers = st.integers(1, 16).map(lambda bits: 1 << bits)
_qrp_lengths = st.one_of(_qrp_powers, _qrp_powers, _qrp_powers,
                         st.integers(0, 1 << 17))
_qrp_patches = st.builds(
    QrpPatch,
    sequence_number=st.integers(0, 255), sequence_count=st.integers(0, 255),
    entry_bits=st.integers(0, 255), data=st.binary(max_size=300))


@st.composite
def _qrp_streams(draw):
    """RESET/PATCH lists, mostly well sequenced, with random defects: a
    stray leading patch, odd lengths, random sequence fields, entry_bits
    and entries."""
    messages = []
    if draw(st.integers(0, 9)) == 0:
        messages.append(draw(_qrp_patches))
    for _ in range(draw(st.integers(1, 2))):
        length = draw(_qrp_lengths)
        messages.append(QrpReset(length, draw(st.integers(0, 255))))
        count, free = draw(st.integers(0, 4)), length
        for number in range(1, count + 1):
            if draw(st.integers(0, 9)) == 0:
                messages.append(draw(_qrp_patches))
                continue
            size = draw(st.integers(0, max(0, min(free, 2048))))
            entry = draw(st.sampled_from([None, b"\x01", b"\xff"]))
            if entry is None and size <= 256:
                data = draw(st.binary(min_size=size, max_size=size))
            else:
                data = (entry or b"\x01") * size
            free -= size
            messages.append(QrpPatch(number, count, 8, data))
    return messages


@given(_qrp_streams())
@_settings
def test_qrp_stream_decoder_total(messages):
    """A RESET/PATCH stream is refused with ValueError, or rebuilds a table
    that survives its own wire round trip unchanged."""
    try:
        table = QueryRouteTable.from_messages(messages)
    except ValueError:
        return
    again = QueryRouteTable.from_messages(
        decode_qrp(encode_qrp(message)) for message in table.to_messages())
    assert again == table
    assert again.set_count == table.set_count


@given(st.binary(max_size=200))
@_settings
def test_handshake_parser_total(data):
    try:
        HandshakeMessage.decode(data)
    except HandshakeError:
        pass


@given(st.binary(max_size=200))
@_settings
def test_http_parsers_total(data):
    for parser in (HttpRequest.decode, HttpResponse.decode):
        try:
            parser(data)
        except HttpError:
            pass


class TestNodesSwallowGarbage:
    def test_gnutella_servent(self, sim):
        from repro.gnutella.servent import GnutellaServent
        from repro.simnet.addresses import AddressAllocator
        from repro.simnet.rng import SeededStream
        from repro.simnet.transport import Transport

        transport = Transport(sim)
        allocator = AddressAllocator(sim.stream("a"))
        servent = GnutellaServent(sim, transport, "victim",
                                  allocator.allocate(), role="ultrapeer")
        transport.attach("attacker", lambda env: None)
        stream = SeededStream(13, "fuzz")
        for _ in range(100):
            transport.send("attacker", "victim",
                           stream.bytes(stream.randint(0, 80)))
        sim.run_until(60.0)
        assert servent.stats.decode_errors == 100
        assert servent.is_online()

    def test_openft_node(self, sim):
        from repro.openft.constants import CLASS_SEARCH
        from repro.openft.nodes import OpenFTNode
        from repro.simnet.addresses import AddressAllocator
        from repro.simnet.rng import SeededStream
        from repro.simnet.transport import Transport

        transport = Transport(sim)
        allocator = AddressAllocator(sim.stream("a"))
        node = OpenFTNode(sim, transport, "victim", allocator.allocate(),
                          klass=CLASS_SEARCH)
        transport.attach("attacker", lambda env: None)
        stream = SeededStream(14, "fuzz")
        for _ in range(100):
            transport.send("attacker", "victim",
                           stream.bytes(stream.randint(0, 80)))
        sim.run_until(60.0)
        assert node.stats.decode_errors == 100
