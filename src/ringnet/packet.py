"""Wire codec for overlay packets.

Every packet starts with a fixed 46-byte header followed by an opaque
payload.  Layout, all integers big-endian:

    offset  size  field
    0       1     type          (0x01 link-local, 0x02 routed)
    1       2     hops
    3       2     ttl
    5       20    source address
    25      20    destination address
    45      1     payload type

A node that forwards a routed packet reads only its header, rewrites
only the 2-byte ``hops`` field (bytes 1-2) and relays every other byte
unchanged: per hop, one ``PacketHeader`` tuple (``read_header``), read
once, and one rewritten ``bytes`` (``forwarded``).  The payload is
copied out (``decode``) only for a packet delivered to the node itself.
``PacketHeader`` and ``Packet`` are named tuples.

There is deliberately no checksum: edges are required to deliver whole,
uncorrupted packets, so integrity lives a layer down.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .address import address_to_bytes

HEADER_LEN = 46

TYPE_LINK = 0x01
TYPE_ROUTED = 0x02

# Payload type registry.
PAYLOAD_APP = 0x00
PAYLOAD_LINK = 0x01
PAYLOAD_STATUS = 0x02
PAYLOAD_CONNECT = 0x03

DEFAULT_TTL = 100

_HEADER = struct.Struct(">BHH20s20sB")
assert _HEADER.size == HEADER_LEN
_unpack_header, _int, _new_tuple = _HEADER.unpack_from, int.from_bytes, tuple.__new__
# The type octet and the hops field: the bytes a forward rewrites.
_HOPS = struct.Struct(">BH")


class PacketError(ValueError):
    pass


class TooShort(PacketError):
    """Fewer bytes than one header; indicates a framing bug upstream."""


class UnknownType(PacketError):
    """First octet is not a known packet type; protocol mismatch."""


class PacketHeader(NamedTuple):
    type: int
    hops: int
    ttl: int
    source: int
    destination: int
    payload_type: int


class Packet(NamedTuple):
    header: PacketHeader
    payload: bytes = b""


def make_routed(source: int, destination: int, payload_type: int, payload: bytes,
                ttl: int = DEFAULT_TTL, hops: int = 0) -> Packet:
    return Packet(PacketHeader(TYPE_ROUTED, hops, ttl, source, destination, payload_type), payload)


def make_link(source: int, destination: int, payload_type: int, payload: bytes) -> Packet:
    return Packet(PacketHeader(TYPE_LINK, 0, 0, source, destination, payload_type), payload)


def encode(p: Packet) -> bytes:
    h = p.header
    return _HEADER.pack(
        h.type,
        h.hops,
        h.ttl,
        address_to_bytes(h.source),
        address_to_bytes(h.destination),
        h.payload_type,
    ) + p.payload


def read_header(data: bytes) -> PacketHeader:
    """The header of the packet ``data``, leaving its payload unread."""
    if len(data) < HEADER_LEN:
        raise TooShort(f"packet is {len(data)} bytes, header needs {HEADER_LEN}")
    ptype, hops, ttl, src, dst, payload_type = _unpack_header(data)
    if ptype != TYPE_ROUTED and ptype != TYPE_LINK:
        raise UnknownType(f"unknown packet type 0x{ptype:02x}")
    # Built without PacketHeader's Python-level __new__.
    return _new_tuple(PacketHeader, (ptype, hops, ttl, _int(src, "big"),
                                     _int(dst, "big"), payload_type))


def decode(data: bytes) -> Packet:
    return Packet(read_header(data), bytes(data[HEADER_LEN:]))


def forwarded(data: bytes, hops: int) -> bytes:
    """The packet ``data``, whose header says ``hops``, as the next hop gets
    it: ``encode(advance_hop(decode(data)))`` without the decode and
    encode.  The caller checks that ``hops < ttl``."""
    return _HOPS.pack(data[0], hops + 1) + data[3:]


def advance_hop(p: Packet) -> Packet | None:
    """Copy with hops+1, or None once the hop budget is spent."""
    if p.header.hops >= p.header.ttl:
        return None
    return p._replace(header=p.header._replace(hops=p.header.hops + 1))
