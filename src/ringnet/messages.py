"""Protocol message bodies carried as packet payloads.

All bodies start with a kind byte; variable-length fields are
length-prefixed.  Byte layout (integers big-endian):

    ta        := u16 length | utf-8 text
    ta_list   := u8 count | ta...
    neighbor  := 20-byte address | ta_list
    link      := kind u8 | token u32 | address 20 | conn_type u8 |
                 status u8 | req_token u32 | observed ta | ta_list
    status    := kind u8 | token u32 | u8 count | neighbor...
    connect   := kind u8 | token u32 | address 20 | conn_type u8 |
                 via address 20 | ta_list
    role      := kind u8 | token u32 | conn_type u8
    close     := kind u8 | reason u8
    relay     := kind u8 | whole packet

``via`` is the ring address of a proxy that can courier the response to
a sender not yet in the ring, or 0.  Decoders read each body from its
start and ignore any bytes after its last field.  They raise
``MessageError`` for a body that ends early, a kind or conn_type they do
not know, or a ta that is not valid UTF-8.  ``decode_status_at`` reads a
status body where it lies in a whole datagram and returns its token and
neighbors with no message object; the node decodes every status
datagram with it, and ``decode_link_body`` decodes a status body with it.

Link, status, role and close bodies travel link-local (payload type
0x01/0x02); connect request/response bodies are routed (payload type
0x03).  The connect request keeps its conn_type at a fixed offset so
forwarding nodes can pick a routing mode without a full decode.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

from .address import ADDRESS_BYTES, address_to_bytes

# Body kinds for payload type 0x01 (link) and 0x02 (status).
LINK_REQUEST = 0x01
LINK_RESPONSE = 0x02
STATUS_REQUEST = 0x03
STATUS_RESPONSE = 0x04
ROLE_ADD = 0x05
CLOSE = 0x06

# Body kinds for payload type 0x03 (connect).
CONNECT_REQUEST = 0x01
CONNECT_RESPONSE = 0x02
# Courier envelope: the rest of the payload is a whole packet to hand to
# a leaf peer (how a response reaches a joiner that is not yet routable).
CONNECT_RELAY = 0x03

# Link status codes; a node reads any other status as a rejection.
LINK_OK = 0x00
LINK_COLLISION = 0x01

# Connection type codes (see connections.py for the label strings).
CT_LEAF = 0x00
CT_NEAR = 0x01
CT_SHORTCUT = 0x02
_CONN_TYPES = frozenset((CT_LEAF, CT_NEAR, CT_SHORTCUT))

# Fixed-size leading fields of each body.
_HEAD = struct.Struct(">BI")                # kind | token
_LINK = struct.Struct(">BI20sBBI")          # ... | status | req_token
_CONNECT = struct.Struct(">BI20sB20s")      # ... | conn_type | via
_ROLE = struct.Struct(">BIB")
_CLOSE = struct.Struct(">BB")
_U16 = struct.Struct(">H")

# conn_type position inside an encoded connect body, for mode peeking.
_CONNECT_CTYPE_OFFSET = 1 + 4 + ADDRESS_BYTES

_TRUNCATED = "truncated message body"


class MessageError(ValueError):
    pass


@dataclass(frozen=True)
class LinkMessage:
    kind: int
    token: int
    sender: int
    conn_type: int
    status: int
    req_token: int
    observed_remote: str
    transport_addresses: tuple[str, ...]


@dataclass(frozen=True)
class StatusMessage:
    kind: int
    token: int
    neighbors: tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True)
class ConnectionRequest:
    kind: int
    token: int
    sender: int
    conn_type: int
    transport_addresses: tuple[str, ...]
    # Ring address of a proxy that can relay the response to the sender
    # while it is still outside the ring; 0 when the sender is routable.
    via: int = 0


@dataclass(frozen=True)
class RoleChange:
    token: int
    conn_type: int


@dataclass(frozen=True)
class CloseMessage:
    reason: int = 0


# ----------------------------------------------------------------------
# encoding


def _put_ta(parts: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MessageError("text field too long")
    parts.append(_U16.pack(len(raw)))
    parts.append(raw)


def _put_ta_list(parts: list[bytes], tas: tuple[str, ...]) -> None:
    if len(tas) > 0xFF:
        raise MessageError("too many transport addresses")
    parts.append(bytes((len(tas),)))
    for text in tas:
        _put_ta(parts, text)


def encode_link(msg: LinkMessage) -> bytes:
    parts = [_LINK.pack(msg.kind, msg.token, address_to_bytes(msg.sender),
                        msg.conn_type, msg.status, msg.req_token)]
    _put_ta(parts, msg.observed_remote)
    _put_ta_list(parts, msg.transport_addresses)
    return b"".join(parts)


def encode_neighbors(neighbors: tuple[tuple[int, tuple[str, ...]], ...]) -> bytes:
    """The tail of a status body after kind and token: count | neighbor..."""
    if len(neighbors) > 0xFF:
        raise MessageError("too many neighbors")
    parts = [bytes((len(neighbors),))]
    for addr, tas in neighbors:
        parts.append(address_to_bytes(addr))
        _put_ta_list(parts, tas)
    return b"".join(parts)


def encode_status(msg: StatusMessage) -> bytes:
    """Encode a status body.

    A node does not call this to send: it packs the link header, kind
    and token in one go before its cached ``encode_neighbors`` bytes
    (``NodeState._send_status``), and the tests hold its bytes equal to
    this function's.
    """
    return _HEAD.pack(msg.kind, msg.token) + encode_neighbors(msg.neighbors)


def encode_connect(msg: ConnectionRequest) -> bytes:
    parts = [_CONNECT.pack(msg.kind, msg.token, address_to_bytes(msg.sender),
                           msg.conn_type, address_to_bytes(msg.via))]
    _put_ta_list(parts, msg.transport_addresses)
    return b"".join(parts)


def encode_relay(inner_packet: bytes) -> bytes:
    return bytes([CONNECT_RELAY]) + inner_packet


def encode_role(msg: RoleChange) -> bytes:
    return _ROLE.pack(ROLE_ADD, msg.token, msg.conn_type)


def encode_close(msg: CloseMessage) -> bytes:
    return _CLOSE.pack(CLOSE, msg.reason)


# ----------------------------------------------------------------------
# decoding: each helper reads at an offset and returns the next offset


def _ta_at(data: bytes, pos: int) -> tuple[str, int]:
    start = pos + 2
    if start > len(data):
        raise MessageError(_TRUNCATED)
    end = start + ((data[pos] << 8) | data[pos + 1])
    if end > len(data):
        raise MessageError(_TRUNCATED)
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise MessageError(f"transport address is not utf-8: {exc.reason}") from None


def _ta_list_at(data: bytes, pos: int) -> tuple[tuple[str, ...], int]:
    if pos >= len(data):
        raise MessageError(_TRUNCATED)
    tas = []
    count = data[pos]
    pos += 1
    for _ in range(count):
        ta, pos = _ta_at(data, pos)
        tas.append(ta)
    return tuple(tas), pos


def _check_conn_type(conn_type: int) -> None:
    if conn_type not in _CONN_TYPES:
        raise MessageError(f"unknown connection type 0x{conn_type:02x}")


def decode_status_at(data: bytes, pos: int
                     ) -> tuple[int, tuple[tuple[int, tuple[str, ...]], ...]]:
    """Token and neighbors of the status body that starts at ``data[pos]``,
    read in place: a node hands it the whole datagram and the header
    length.  The kind byte is not checked."""
    start = pos + _HEAD.size
    if len(data) <= start:
        raise MessageError(_TRUNCATED)
    _, token = _HEAD.unpack_from(data, pos)
    return token, _decode_neighbors(bytes(data[start:]))


@functools.lru_cache(maxsize=256)
def _decode_neighbors(data: bytes) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """Decode ``count | neighbor...``, the tail of a status body.

    A node sends the same listing until its near set changes, so most
    status bodies repeat a recent tail; the cache hands back the
    (immutable) tuple already decoded.  Errors are not cached.
    """
    pos = 1
    neighbors = []
    for _ in range(data[0]):
        start = pos
        pos += ADDRESS_BYTES
        if pos > len(data):
            raise MessageError(_TRUNCATED)
        tas, after = _ta_list_at(data, pos)
        neighbors.append((int.from_bytes(data[start:pos], "big"), tas))
        pos = after
    return tuple(neighbors)


def _decode_link(data: bytes) -> LinkMessage:
    if len(data) < _LINK.size:
        raise MessageError(_TRUNCATED)
    kind, token, sender, conn_type, status, req_token = _LINK.unpack_from(data)
    _check_conn_type(conn_type)
    observed, pos = _ta_at(data, _LINK.size)
    tas, _ = _ta_list_at(data, pos)
    return LinkMessage(kind, token, int.from_bytes(sender, "big"), conn_type,
                       status, req_token, observed, tas)


def decode_link_body(data: bytes) -> LinkMessage | StatusMessage | RoleChange | CloseMessage:
    """Decode a body carried link-local (payload types 0x01 and 0x02)."""
    if not data:
        raise MessageError(_TRUNCATED)
    kind = data[0]
    if kind == STATUS_REQUEST or kind == STATUS_RESPONSE:
        return StatusMessage(kind, *decode_status_at(data, 0))
    if kind == LINK_REQUEST or kind == LINK_RESPONSE:
        return _decode_link(data)
    if kind == ROLE_ADD:
        if len(data) < _ROLE.size:
            raise MessageError(_TRUNCATED)
        _, token, conn_type = _ROLE.unpack_from(data)
        _check_conn_type(conn_type)
        return RoleChange(token, conn_type)
    if kind == CLOSE:
        if len(data) < _CLOSE.size:
            raise MessageError(_TRUNCATED)
        return CloseMessage(data[1])
    raise MessageError(f"unknown link body kind 0x{kind:02x}")


def decode_connect_body(data: bytes) -> ConnectionRequest | bytes:
    """Decode a connect body; a relay envelope yields the inner packet."""
    if not data:
        raise MessageError(_TRUNCATED)
    kind = data[0]
    if kind == CONNECT_RELAY:
        return data[1:]
    if kind not in (CONNECT_REQUEST, CONNECT_RESPONSE):
        raise MessageError(f"unknown connect body kind 0x{kind:02x}")
    if len(data) < _CONNECT.size:
        raise MessageError(_TRUNCATED)
    _, token, sender, conn_type, via = _CONNECT.unpack_from(data)
    _check_conn_type(conn_type)
    tas, _ = _ta_list_at(data, _CONNECT.size)
    return ConnectionRequest(kind, token, int.from_bytes(sender, "big"),
                             conn_type, tas, via=int.from_bytes(via, "big"))


def peek_connect_type(data: bytes) -> int | None:
    """conn_type of an encoded connect body, without a full decode."""
    if len(data) > _CONNECT_CTYPE_OFFSET and data[0] == CONNECT_REQUEST:
        return data[_CONNECT_CTYPE_OFFSET]
    return None
