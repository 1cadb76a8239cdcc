"""Packet codec tests, and the hop field a forwarding node rewrites."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from ringnet import routing
from ringnet.address import CLOCKWISE_ADDRESS, COUNTERCLOCKWISE_ADDRESS, MODULUS
from ringnet.connections import LEAF, Connection
from ringnet.node import OverlayConfig
from ringnet.packet import (
    DEFAULT_TTL,
    HEADER_LEN,
    PAYLOAD_APP,
    Packet,
    PacketHeader,
    TYPE_LINK,
    TYPE_ROUTED,
    TooShort,
    UnknownType,
    advance_hop,
    decode,
    encode,
    forwarded,
    make_link,
    make_routed,
    read_header,
)
from ringnet.simnet import SimConfig, SimNetwork
from ringnet.topology import seed_ring

headers = st.builds(
    PacketHeader,
    type=st.sampled_from([TYPE_LINK, TYPE_ROUTED]),
    hops=st.integers(0, 0xFFFF),
    ttl=st.integers(0, 0xFFFF),
    source=st.integers(0, MODULUS - 1),
    destination=st.integers(0, MODULUS - 1),
    payload_type=st.integers(0, 0xFF),
)
packets = st.builds(Packet, header=headers,
                    payload=st.binary(max_size=200))


def test_golden_layout():
    pkt = Packet(PacketHeader(TYPE_ROUTED, 1, 5, 1, 2, 0), b"hi")
    raw = encode(pkt)
    expected = (bytes([0x02])            # type at offset 0
                + b"\x00\x01"            # hops at 1..2
                + b"\x00\x05"            # ttl at 3..4
                + b"\x00" * 19 + b"\x01"  # source at 5..24
                + b"\x00" * 19 + b"\x02"  # destination at 25..44
                + b"\x00"                # payload type at 45
                + b"hi")
    assert raw == expected
    assert len(raw) == HEADER_LEN + 2


def test_routed_and_link_first_octet():
    assert encode(make_routed(0, 0, 0, b""))[0] == 0x02
    assert encode(make_link(0, 0, 0, b""))[0] == 0x01


def test_empty_payload_encodes_to_exactly_46_bytes():
    assert len(encode(make_routed(0, 0, 0, b""))) == 46


@given(packets)
def test_round_trip_identity(pkt):
    assert decode(encode(pkt)) == pkt


@given(packets)
def test_header_is_always_46_bytes(pkt):
    assert len(encode(pkt)) == HEADER_LEN + len(pkt.payload)


def test_bulk_random_round_trip():
    rng = Random(7)
    for _ in range(2000):
        pkt = Packet(
            PacketHeader(rng.choice((TYPE_LINK, TYPE_ROUTED)),
                         rng.randrange(1 << 16), rng.randrange(1 << 16),
                         rng.getrandbits(160), rng.getrandbits(160),
                         rng.randrange(256)),
            rng.randbytes(rng.randrange(64)))
        assert decode(encode(pkt)) == pkt


def test_too_short():
    with pytest.raises(TooShort):
        decode(b"\x02" + b"\x00" * 44)  # 45 bytes


def test_unknown_type():
    raw = bytearray(encode(make_routed(0, 0, 0, b"")))
    raw[0] = 0x7F
    with pytest.raises(UnknownType):
        decode(bytes(raw))


@given(packets)
def test_read_header_equals_decoded_header(pkt):
    assert read_header(encode(pkt)) == pkt.header == decode(encode(pkt)).header


@given(packets, st.integers(0, 0xFF).filter(lambda t: t not in (TYPE_LINK, TYPE_ROUTED)))
def test_read_header_rejects_what_decode_rejects(pkt, bad_type):
    data = encode(pkt)
    for cut in range(HEADER_LEN):
        for parse in (read_header, decode):
            with pytest.raises(TooShort):
                parse(data[:cut])
    unknown = bytes([bad_type]) + data[1:]
    for parse in (read_header, decode):
        with pytest.raises(UnknownType):
            parse(unknown)


def test_advance_hop_increments():
    pkt = make_routed(1, 2, 0, b"", ttl=5)
    stepped = advance_hop(pkt)
    assert stepped.header.hops == 1
    assert stepped.header.ttl == 5
    assert stepped.payload == pkt.payload


def test_advance_hop_expires_at_ttl():
    pkt = Packet(PacketHeader(TYPE_ROUTED, 5, 5, 1, 2, 0), b"")
    assert advance_hop(pkt) is None


def test_default_ttl():
    assert make_routed(0, 1, 0, b"").header.ttl == DEFAULT_TTL


# ----------------------------------------------------------------------
# forwarding: the hop field is the only byte pair that changes

@st.composite
def unexpired_packets(draw):
    ttl = draw(st.integers(1, 0xFFFF))
    header = PacketHeader(
        draw(st.sampled_from([TYPE_LINK, TYPE_ROUTED])),
        draw(st.integers(0, ttl - 1)),
        ttl,
        draw(st.one_of(st.sampled_from([0, MODULUS - 1]), st.integers(0, MODULUS - 1))),
        draw(st.one_of(st.sampled_from([0, MODULUS - 1]), st.integers(0, MODULUS - 1))),
        draw(st.integers(0, 0xFF)),
    )
    return Packet(header, draw(st.binary(max_size=300)))


@given(unexpired_packets())
def test_forwarded_bytes_equal_reencoded_advanced_packet(pkt):
    data = encode(pkt)
    assert forwarded(data, pkt.header.hops) == encode(advance_hop(decode(data)))


def _forwarding_node(monkeypatch):
    """A node of a pre-wired 16-node ring, the datagrams its network is asked
    to send, and a destination the node forwards toward."""
    net = SimNetwork(SimConfig(seed=6))
    nodes = seed_ring(net, 16, Random(6), OverlayConfig(status_interval=None,
                                                        k_shortcuts=0))
    ring = sorted(nodes)
    sent = []
    monkeypatch.setattr(net, "transmit", lambda src, ta, data: sent.append(data))
    return nodes[ring[0]], sent, ring[8]


def test_node_forwards_the_received_bytes_with_only_hops_bumped(monkeypatch):
    node, sent, far = _forwarding_node(monkeypatch)
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    rng = Random(7)
    expected = []
    for size in (0, 1, 16, 300):
        ttl = rng.randint(1, 0xFFFF)
        data = encode(make_routed(rng.getrandbits(160), far, PAYLOAD_APP,
                                  rng.randbytes(size), ttl=ttl,
                                  hops=rng.randrange(ttl)))
        node.on_datagram(edge, data)
        expected.append(encode(advance_hop(decode(data))))
    assert sent == expected
    assert node.stats["expired_packets"] == 0


def test_node_drops_a_routed_packet_whose_hops_reached_ttl(monkeypatch):
    node, sent, far = _forwarding_node(monkeypatch)
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    node.on_datagram(edge, encode(make_routed(12345, far, PAYLOAD_APP, bytes(16),
                                              ttl=5, hops=5)))
    assert sent == []
    assert node.stats["expired_packets"] == 1
    node.on_datagram(edge, encode(make_routed(12345, far, PAYLOAD_APP, bytes(16),
                                              ttl=5, hops=4)))
    assert len(sent) == 1


def _record_sends(monkeypatch, node):
    """(remote ta, bytes) of each datagram ``node``'s network is asked to send."""
    sent = []
    monkeypatch.setattr(node.host.network, "transmit",
                        lambda src, ta, data: sent.append((ta, data)))
    return sent


def test_node_counts_a_next_hop_missing_from_its_table(monkeypatch):
    node, sent, far = _forwarding_node(monkeypatch)
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    stranger = (far + 2) % MODULUS
    assert node.table.get(stranger) is None
    monkeypatch.setattr(routing, "greedy_next_hop", lambda *args: stranger)
    node.on_datagram(edge, encode(make_routed(12345, far, PAYLOAD_APP, bytes(16))))
    assert sent == []
    assert node.stats["forward_no_edge"] == 1


def test_an_unjoined_node_passes_routed_packets_up_its_proxy_leaf(monkeypatch):
    node, _, far = _forwarding_node(monkeypatch)
    sent = _record_sends(monkeypatch, node)
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    data = encode(make_routed(12345, far, PAYLOAD_APP, bytes(16), ttl=9, hops=3))
    node.joined = False
    node.on_datagram(edge, data)
    assert sent == []
    assert node.stats["unroutable"] == 1
    proxy_ta = "ring.udp:10.9.9.8:7000"
    node.table.add(Connection(24680, node.host.dial(proxy_ta), frozenset({LEAF}),
                              initiated_by_me=True))
    node.on_datagram(edge, data)
    assert sent == [(proxy_ta, encode(advance_hop(decode(data))))]
    assert node.stats["unroutable"] == 1


@pytest.mark.parametrize("direction", [CLOCKWISE_ADDRESS, COUNTERCLOCKWISE_ADDRESS])
def test_a_directional_packet_walks_the_ring_until_hops_reach_ttl(monkeypatch, direction):
    node, _, far = _forwarding_node(monkeypatch)
    sent = _record_sends(monkeypatch, node)
    got = []
    node.app_handler = lambda n, pkt: got.append(pkt)
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    # The node holds the smallest address, so its ring successor is its
    # smallest peer and its predecessor its largest.
    peers = node.table.structured_peers()
    neighbor = peers[0] if direction == CLOCKWISE_ADDRESS else peers[-1]
    data = encode(make_routed(far, direction, PAYLOAD_APP, bytes(16), ttl=5, hops=2))
    node.on_datagram(edge, data)
    assert sent == [(node.table.get(neighbor).edge.remote_ta,
                     encode(advance_hop(decode(data))))]
    assert got == []
    last = encode(make_routed(far, direction, PAYLOAD_APP, bytes(16), ttl=5, hops=5))
    node.on_datagram(edge, last)
    assert len(sent) == 1
    assert got == [decode(last)]
    assert node.stats["expired_packets"] == 0


def test_a_packet_for_the_node_itself_reaches_its_app_handler_intact(monkeypatch):
    node, sent, far = _forwarding_node(monkeypatch)
    got = []
    node.app_handler = lambda n, pkt: got.append((n, pkt))
    edge = node.host.dial("ring.udp:10.9.9.9:7000")
    data = encode(make_routed(far, node.address, PAYLOAD_APP, b"lookup body",
                              ttl=9, hops=4))
    node.on_datagram(edge, data)
    assert sent == []
    assert got == [(node, decode(data))]
    pkt = got[0][1]
    assert pkt.header == read_header(data) == PacketHeader(
        TYPE_ROUTED, 4, 9, far, node.address, PAYLOAD_APP)
    assert pkt.payload == b"lookup body"
    assert node.stats["app_delivered"] == 1
