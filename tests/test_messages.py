"""Protocol body codec tests."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ringnet import messages as m
from ringnet.address import MODULUS
from ringnet.connections import NEAR, Connection
from ringnet.node import NodeState, OverlayConfig
from ringnet.packet import (
    HEADER_LEN,
    PAYLOAD_APP,
    PAYLOAD_CONNECT,
    PAYLOAD_LINK,
    PAYLOAD_STATUS,
    encode,
    make_link,
    make_routed,
)
from ringnet.simnet import SimConfig, SimNetwork
from ringnet.topology import seed_ring

addr = st.integers(0, MODULUS - 1)
# Any text: transport addresses are UTF-8 on the wire, not ASCII.
ta = st.text(max_size=40)
ta_list = st.lists(ta, max_size=4).map(tuple)
neighbors = st.lists(st.tuples(addr, ta_list), max_size=5).map(tuple)
conn_types = st.sampled_from([m.CT_LEAF, m.CT_NEAR, m.CT_SHORTCUT])

link_messages = st.builds(
    m.LinkMessage,
    kind=st.sampled_from([m.LINK_REQUEST, m.LINK_RESPONSE]),
    token=st.integers(0, 0xFFFFFFFF),
    sender=addr,
    conn_type=conn_types,
    status=st.integers(0, 255),  # the codec carries any status byte
    req_token=st.integers(0, 0xFFFFFFFF),
    observed_remote=ta,
    transport_addresses=ta_list,
)

status_messages = st.builds(
    m.StatusMessage,
    kind=st.sampled_from([m.STATUS_REQUEST, m.STATUS_RESPONSE]),
    token=st.integers(0, 0xFFFFFFFF),
    neighbors=neighbors,
)

connects = st.builds(
    m.ConnectionRequest,
    kind=st.sampled_from([m.CONNECT_REQUEST, m.CONNECT_RESPONSE]),
    token=st.integers(0, 0xFFFFFFFF),
    sender=addr,
    conn_type=conn_types,
    transport_addresses=ta_list,
    via=st.one_of(st.just(0), addr),
)

roles = st.builds(m.RoleChange, token=st.integers(0, 0xFFFFFFFF),
                  conn_type=conn_types)
closes = st.builds(m.CloseMessage, reason=st.integers(0, 0xFF))

# (encoded body, its decoder) for every kind of body.
encoded_bodies = st.one_of(
    link_messages.map(lambda msg: (m.encode_link(msg), m.decode_link_body)),
    status_messages.map(lambda msg: (m.encode_status(msg), m.decode_link_body)),
    roles.map(lambda msg: (m.encode_role(msg), m.decode_link_body)),
    closes.map(lambda msg: (m.encode_close(msg), m.decode_link_body)),
    connects.map(lambda msg: (m.encode_connect(msg), m.decode_connect_body)),
)


@given(link_messages)
def test_link_round_trip(msg):
    assert m.decode_link_body(m.encode_link(msg)) == msg


@given(status_messages)
def test_status_round_trip(msg):
    assert m.decode_link_body(m.encode_status(msg)) == msg


class CapturingEdge:
    peer_address = None

    def __init__(self):
        self.sent = []

    def send(self, data):
        self.sent.append(data)


@settings(max_examples=200, deadline=None)
@given(addr, addr, st.sampled_from([m.STATUS_REQUEST, m.STATUS_RESPONSE]),
       st.integers(0, 0xFFFFFFFF), st.dictionaries(addr, ta_list, max_size=6))
def test_status_datagram_is_the_encoded_status_packet(me, peer, kind, token, near):
    node = NodeState(me, SimNetwork().new_host(), OverlayConfig(), Random(0))
    for a, tas in near.items():
        node.table.add(Connection(a, None, frozenset({NEAR}), tas))
    edge = CapturingEdge()
    node._send_status(edge, peer, kind, token)
    listing = node.table.neighbor_listing()
    assert edge.sent == [encode(make_link(me, peer, PAYLOAD_STATUS, m.encode_status(
        m.StatusMessage(kind, token, listing))))]


@given(connects)
def test_connect_round_trip(msg):
    assert m.decode_connect_body(m.encode_connect(msg)) == msg


def test_role_and_close_round_trip():
    role = m.RoleChange(17, m.CT_SHORTCUT)
    assert m.decode_link_body(m.encode_role(role)) == role
    close = m.CloseMessage(2)
    assert m.decode_link_body(m.encode_close(close)) == close


@given(connects)
def test_peek_matches_full_decode(msg):
    raw = m.encode_connect(msg)
    peeked = m.peek_connect_type(raw)
    if msg.kind == m.CONNECT_REQUEST:
        assert peeked == msg.conn_type
    else:
        assert peeked is None


def test_truncated_body_raises():
    raw = m.encode_link(m.LinkMessage(m.LINK_REQUEST, 1, 2, m.CT_NEAR,
                                      m.LINK_OK, 0, "x", ("y",)))
    with pytest.raises(m.MessageError):
        m.decode_link_body(raw[:-3])


def test_unknown_kind_raises():
    with pytest.raises(m.MessageError):
        m.decode_link_body(b"\x7f\x00\x00")
    with pytest.raises(m.MessageError):
        m.decode_connect_body(b"\x7f")


def test_trailing_bytes_after_the_last_field_are_ignored():
    role = m.RoleChange(3, m.CT_NEAR)
    assert m.decode_link_body(m.encode_role(role) + b"\x00\x01") == role


# ----------------------------------------------------------------------
# hostile input: decoders raise MessageError and nothing else


def status_body_with_ta(raw_ta: bytes) -> bytes:
    return (bytes([m.STATUS_REQUEST]) + (7).to_bytes(4, "big") + b"\x01"
            + (5).to_bytes(20, "big") + b"\x01"
            + len(raw_ta).to_bytes(2, "big") + raw_ta)


def test_invalid_utf8_ta_raises_message_error():
    with pytest.raises(m.MessageError):
        m.decode_link_body(status_body_with_ta(b"\xff\xfe"))
    link = m.encode_link(m.LinkMessage(m.LINK_REQUEST, 1, 2, m.CT_NEAR,
                                       m.LINK_OK, 0, "\u00e9", ()))
    with pytest.raises(m.MessageError):
        m.decode_link_body(link.replace("\u00e9".encode(), b"\xff\xfe"))
    connect = m.encode_connect(m.ConnectionRequest(
        m.CONNECT_REQUEST, 1, 2, m.CT_NEAR, ("\u00e9",)))
    with pytest.raises(m.MessageError):
        m.decode_connect_body(connect.replace("\u00e9".encode(), b"\xff\xfe"))


def test_unknown_connection_type_is_rejected_at_decode():
    link = m.encode_link(m.LinkMessage(m.LINK_REQUEST, 1, 2, 7, m.LINK_OK, 0,
                                       "x", ()))
    role = m.encode_role(m.RoleChange(1, 7))
    connect = m.encode_connect(m.ConnectionRequest(m.CONNECT_REQUEST, 1, 2, 7, ()))
    for raw, decode in ((link, m.decode_link_body), (role, m.decode_link_body),
                        (connect, m.decode_connect_body)):
        with pytest.raises(m.MessageError, match="connection type"):
            decode(raw)


@st.composite
def framed_status_bodies(draw):
    """Status bodies framed correctly around arbitrary ta bytes."""
    entries = draw(st.lists(st.tuples(addr, st.lists(st.binary(max_size=6), max_size=3)),
                            max_size=4))
    out = bytes([m.STATUS_REQUEST]) + draw(st.binary(min_size=4, max_size=4))
    out += bytes([len(entries)])
    for a, tas in entries:
        out += a.to_bytes(20, "big") + bytes([len(tas)])
        out += b"".join(len(t).to_bytes(2, "big") + t for t in tas)
    return out


any_conn_type = st.integers(0, 0xFF)
hostile_link_bodies = st.one_of(
    st.binary(max_size=120),
    framed_status_bodies(),
    link_messages.flatmap(lambda msg: any_conn_type.map(
        lambda ct: m.encode_link(m.LinkMessage(msg.kind, msg.token, msg.sender, ct,
                                               msg.status, msg.req_token,
                                               msg.observed_remote,
                                               msg.transport_addresses)))),
    st.builds(m.RoleChange, st.integers(0, 0xFFFFFFFF), any_conn_type).map(m.encode_role),
)
hostile_connect_bodies = st.one_of(
    st.binary(max_size=120),
    st.builds(m.ConnectionRequest, st.sampled_from([m.CONNECT_REQUEST, m.CONNECT_RESPONSE]),
              st.integers(0, 0xFFFFFFFF), addr, any_conn_type, ta_list,
              via=addr).map(m.encode_connect),
)


@given(hostile_link_bodies, hostile_connect_bodies)
def test_hostile_bodies_decode_or_raise_message_error(link_body, connect_body):
    for data in (link_body, connect_body):
        for decode in (m.decode_link_body, m.decode_connect_body):
            try:
                msg = decode(data)
            except m.MessageError:
                continue
            if hasattr(msg, "conn_type"):
                assert msg.conn_type in (m.CT_LEAF, m.CT_NEAR, m.CT_SHORTCUT)


@given(encoded_bodies)
def test_every_proper_prefix_of_a_body_raises(encoded):
    raw, decode = encoded
    for cut in range(len(raw)):
        with pytest.raises(m.MessageError):
            decode(raw[:cut])


# ----------------------------------------------------------------------
# hostile datagrams never raise out of a node


def small_ring():
    net = SimNetwork(SimConfig(seed=4))
    cfg = OverlayConfig(k_shortcuts=1, status_interval=1.0)
    nodes = seed_ring(net, 6, Random(4), cfg, k=1)
    ring = sorted(nodes)
    node, peer = nodes[ring[0]], nodes[ring[1]]
    edge = node.host.dial(peer.host.ta)
    edge.peer_address = peer.address
    return net, node, peer, edge


# The node ``small_ring`` feeds datagrams to; its ring is seeded, so this
# is its address in every call.
RECEIVER = small_ring()[1].address

link_bodies = st.one_of(
    hostile_link_bodies,
    link_messages.map(m.encode_link),
    status_messages.map(m.encode_status),
    roles.map(m.encode_role),
    closes.map(m.encode_close),
)
connect_bodies = st.one_of(hostile_connect_bodies, connects.map(m.encode_connect))


@st.composite
def hostile_datagrams(draw):
    """Raw bytes, or a well-formed packet around a random or valid body.

    Routed packets also come addressed to the receiving node, whose
    payload it reads only on delivery, cut to any length there, and with
    their hop budget spent."""
    kind = draw(st.sampled_from(["raw", "link", "status", "routed", "to_receiver",
                                 "spent"]))
    if kind == "raw":
        return draw(st.binary(max_size=120))
    if kind == "routed":
        body = draw(connect_bodies)
        return encode(make_routed(draw(addr), draw(addr), PAYLOAD_CONNECT, body,
                                  ttl=draw(st.integers(0, 5))))
    if kind in ("to_receiver", "spent"):
        body = draw(st.one_of(connect_bodies, st.binary(min_size=8, max_size=24)))
        body = body[:draw(st.integers(0, len(body)))]
        ptype = draw(st.sampled_from([PAYLOAD_APP, PAYLOAD_CONNECT, PAYLOAD_LINK]))
        ttl = draw(st.integers(0, 5))
        if kind == "to_receiver":
            return encode(make_routed(draw(addr), RECEIVER, ptype, body, ttl=ttl,
                                      hops=draw(st.integers(0, ttl))))
        return encode(make_routed(draw(addr), draw(st.one_of(addr, st.just(RECEIVER))),
                                  ptype, body, ttl=ttl, hops=ttl))
    ptype = PAYLOAD_LINK if kind == "link" else PAYLOAD_STATUS
    return encode(make_link(draw(addr), draw(addr), ptype, draw(link_bodies)))


@settings(max_examples=150, deadline=None)
@given(st.lists(hostile_datagrams(), min_size=1, max_size=4))
def test_on_datagram_never_raises(datagrams):
    net, node, peer, edge = small_ring()
    for data in datagrams:
        node.on_datagram(edge, data)
    net.run_until(net.now + 3)  # timers and replies the datagrams set off


def test_bad_bodies_are_counted_not_raised():
    net, node, peer, edge = small_ring()
    # A link request with an unknown conn_type, then the status request
    # that would commit it; and a status listing a ta that is not UTF-8.
    link = m.encode_link(m.LinkMessage(m.LINK_REQUEST, 9, 12345, 7,
                                       m.LINK_OK, 0, "x", ()))
    status = m.encode_status(m.StatusMessage(m.STATUS_REQUEST, 9, ()))
    for ptype, body in ((PAYLOAD_LINK, link), (PAYLOAD_STATUS, status),
                        (PAYLOAD_STATUS, status_body_with_ta(b"\xff\xfe"))):
        node.on_datagram(edge, encode(make_link(peer.address, node.address,
                                                ptype, body)))
    net.run_until(net.now + 3)
    assert node.stats["bad_body"] == 2
    assert node.table.get(12345) is None


def test_short_link_packets_count_as_a_header_parse_would():
    """45 bytes cannot hold a header (``bad_packet``); 46 bytes is a header
    with an empty body (``bad_body``), and the peer was still heard from."""
    net, node, peer, edge = small_ring()
    conn = node.table.get(peer.address)
    conn.last_seen = -1.0
    header = encode(make_link(peer.address, node.address, PAYLOAD_STATUS, b""))
    assert len(header) == HEADER_LEN
    node.on_datagram(edge, header[:-1])
    assert (node.stats["bad_packet"], node.stats["bad_body"]) == (1, 0)
    assert conn.last_seen == -1.0
    node.on_datagram(edge, header)
    assert (node.stats["bad_packet"], node.stats["bad_body"]) == (1, 1)
    assert conn.last_seen == net.now
    node.on_datagram(edge, header + b"\x7f")  # an unknown body kind
    assert (node.stats["bad_packet"], node.stats["bad_body"]) == (1, 2)
