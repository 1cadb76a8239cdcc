"""Per-node protocol state machine.

A ``NodeState`` owns one ring position: its connection table, the link
handshakes in flight, routed connection requests it has issued, and the
periodic maintenance pass that repairs ring neighborhoods, prunes
surplus connections and keeps the shortcut set stocked.

The node is transport-agnostic.  Its environment ("host") must provide::

    host.network.now -> float                        simulated or wall seconds
    host.network.call_later(delay, fn, *args) -> t   fires fn(*args) unless t.cancel()
    host.dial(ta) -> edge | None                     start opening an edge
    host.local_tas() -> list[str]

and edges must provide ``send(bytes)``, ``close()``, ``remote_ta`` and
a writable ``peer_address`` that starts as None.  ``transport.Host`` is
the core the simulated and real hosts share: the network, node attachment
and one datagram edge per remote endpoint.  A TCP edge also carries
``dialed``: False when the peer opened it, so that its ``remote_ta``
names the peer's ephemeral source port, which nobody can dial.  Incoming
datagrams are fed to ``on_datagram(edge, data)``.  All events for one
node must be delivered serially; distinct nodes may run concurrently.

``stop()`` ends a node's life on every host: it cancels every timer the
node holds, and ``on_datagram`` drops what is still in flight to it.  A
host therefore need not guard the node's timers.

Connection establishment is a two round trip handshake over a fresh
edge: a link request/response that exchanges addresses, transport
addresses (including each side's view of the other, which is how a node
behind a NAT discovers its translated address) and the connection type,
then a status request/response that exchanges neighbor lists.  The
connection enters the table only when round two completes, on both ends.
Each round is sent ``HANDSHAKE_RETRIES`` (4) times, ``handshake_timeout``
apart at first and doubling (0.5, 1, 2, 4 s); then the attempt dials its
next transport address or fails.  A status probe is sent ``probe_retries``
(3) times from ``probe_timeout`` (0.75 s), doubling; then the connection
is dropped.  Routed connect requests and a responder's half-open
handshakes are forgotten at the first tick after their deadline.

Ring membership is bootstrapped by routing a connection request toward
the joining node's own address in annealing mode through a leaf proxy;
the nodes adjacent to that address connect back.  Neighbor lists then
"zip" the ring together: any listed address strictly closer than a
current near neighbor triggers a direct connection to it, which is also
what merges two formerly separate rings once a single node bridges them.
"""

from __future__ import annotations

import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Callable

from .address import (
    ADDRESS_BYTES,
    Direction,
    HALF_MODULUS,
    MODULUS,
    direction_of,
    directed_distance,
    directional_address,
    format_address,
)
from . import messages
from .connections import (
    Connection,
    ConnectionTable,
    LEAF,
    NEAR,
    NEAR_PER_SIDE,
    SHORTCUT,
    label_for,
)
from .messages import (
    CT_LEAF,
    CT_NEAR,
    CT_SHORTCUT,
    CloseMessage,
    ConnectionRequest,
    LinkMessage,
    RoleChange,
)
from .packet import (
    DEFAULT_TTL,
    HEADER_LEN,
    PAYLOAD_APP,
    PAYLOAD_CONNECT,
    PAYLOAD_LINK,
    PAYLOAD_STATUS,
    Packet,
    PacketHeader,
    TYPE_LINK,
    PacketError,
    decode,
    encode,
    forwarded,
    make_link,
    make_routed,
    read_header,
)
from . import routing
from .transport import MAX_TA_LEN, MalformedTA, Timer, normal_ta

log = logging.getLogger(__name__)

# The trace's name of a routing decision, keyed by (deliver, forward?).
_ROUTE_NAMES = {(False, True): "forward", (True, False): "deliver_local",
                (True, True): "deliver_and_forward", (False, False): "drop"}
# Both directions, iterated on every tick without the Enum's class iterator.
_DIRECTIONS = (Direction.CLOCKWISE, Direction.COUNTERCLOCKWISE)

# Cap on the density-sized shortcut count (k_shortcuts = None).
K_MAX = 16
JOIN_RETRIES = 4
HANDSHAKE_RETRIES = 4
# Ticks a dialer keeps its leaf links after its first near link.
LEAF_GRACE_TICKS = 1
# A required neighbor candidate farther than this many mean gaps is
# treated as "no plausible candidate known" and triggers discovery.
REPAIR_HORIZON_GAPS = 8.0
# Resample a shortcut when the density estimate has moved by more than
# this factor since it was drawn.  In a static network the two values
# coincide, so refresh traffic only appears while the local density is
# actually shifting.
SHORTCUT_STALE_FACTOR = 2.0
GAP_EWMA_ALPHA = 0.25
MAX_ADVERTISED_TAS = 4

# The head of a status datagram: the link header (packet.py), then the
# status body's kind and token (messages.py).  The encoded listing follows.
_STATUS_FRAME = struct.Struct(">BHH20s20sBBI")
assert _STATUS_FRAME.size == HEADER_LEN + 5


def shortcut_distance_from_uniform(d_ave: int, x: float) -> int:
    """Map a uniform draw x in [0, 1] to a shortcut distance.

    d = d_ave * (d_max / d_ave) ** x with d_max = MODULUS, which gives Prob(d <= L) =
    log(L / d_ave) / log(d_max / d_ave), i.e. density proportional to 1/d
    over [d_ave, d_max].
    """
    if d_ave < 1:
        raise ValueError("d_ave must be at least 1")
    if x <= 0.0:
        return d_ave
    if x >= 1.0:
        return MODULUS
    d = int(d_ave * (MODULUS / d_ave) ** x)
    return min(max(d, d_ave), MODULUS)


def sample_shortcut_distance(d_ave: int, rng: Random) -> int:
    return shortcut_distance_from_uniform(d_ave, rng.random())


def _dialable_remote(edge) -> str:
    """The peer's endpoint as ``edge`` sees it, or "" for a TCP edge the
    peer opened, whose ``remote_ta`` is an ephemeral port."""
    return edge.remote_ta if getattr(edge, "dialed", True) else ""


@dataclass
class OverlayConfig:
    # None picks k from the local density estimate (about log2 N), capped
    # at K_MAX.
    k_shortcuts: int | None = None
    tick_interval: float = 1.0
    # None disables idle probing entirely (quiet networks).
    status_interval: float | None = 5.0
    probe_timeout: float = 0.75
    probe_retries: int = 3
    handshake_timeout: float = 0.5
    join_retry_timeout: float = 4.0
    connreq_timeout: float = 6.0
    push_status_debounce: float = 0.25
    trace: bool = False


_WAIT_LINK = "wait_link"
_WAIT_STATUS = "wait_status"


@dataclass
class _LinkAttempt:
    token: int
    tas: list[str]
    conn_type: int
    expect_addr: int | None
    req_token: int
    ta_index: int = 0
    state: str = _WAIT_LINK
    timer: object | None = None
    edge: object | None = None
    peer: int | None = None
    peer_tas: tuple[str, ...] = ()
    on_established: Callable | None = None
    on_failed: Callable | None = None


@dataclass
class _Provisional:
    peer: int
    conn_type: int
    tas: list[str]
    req_token: int
    edge: object
    expires: float


@dataclass
class _PendingRequest:
    kind: str  # join | anchor | probe | shortcut
    expires: float
    probe_dir: Direction | None = None
    sampled_gap: int | None = None


class NodeState:
    def __init__(self, address: int, host, config: OverlayConfig, rng: Random) -> None:
        self.address = address
        self._address_bytes = address.to_bytes(ADDRESS_BYTES, "big")
        self.host = host
        self.cfg = config
        self.rng = rng
        self.table = ConnectionTable(address)
        self.alive = True
        self.joined = False
        self.join_started_at: float | None = None
        # Set once the ring position is held on both sides and the first
        # shortcut is up: the node is fully established.
        self.established_at: float | None = None

        self.pending_links: dict[int, _LinkAttempt] = {}
        self.provisional: dict[tuple[str, int], _Provisional] = {}
        self.pending_requests: dict[int, _PendingRequest] = {}
        self.pending_probes: dict[int, Timer] = {}  # token -> its next step

        self.learned_tas: list[str] = []
        self.gap_ewma: float | None = None
        self.sides_converged = False
        self.stats: Counter = Counter()
        self.trace: list[tuple] = []
        self.app_handler: Callable | None = None
        self.on_join_failed: Callable | None = None

        self._token_seq = 0
        self._tick_count = 0
        self._first_near_tick: int | None = None
        self._join_timer = None
        self._join_attempts_left = 0
        self._push_timer = None
        # (table version, closest (address, tas) clockwise, the same
        # counterclockwise, whether a pass found every one of them a near
        # peer) for _near_repair; None once a listing changes.
        self._repair_cache: tuple | None = None
        self._tick_timer = host.network.call_later(
            rng.uniform(0.0, config.tick_interval), self.tick)

    # ------------------------------------------------------------------
    # lifecycle

    def stop(self) -> None:
        self.alive = False
        for t in (self._tick_timer, self._join_timer, self._push_timer,
                  *self.pending_probes.values(),
                  *(at.timer for at in self.pending_links.values())):
            if t is not None:
                t.cancel()

    def _retry(self, rec: _LinkAttempt, retries: int, wait: float,
               send: Callable, give_up: Callable) -> None:
        """``send(rec)`` up to ``retries`` times, ``wait`` seconds apart at
        first and each wait twice the last, then ``give_up(rec)`` one wait
        after the last send.  Whatever ends ``rec`` sooner cancels
        ``rec.timer``."""
        send(rec)
        rec.timer = self.host.network.call_later(wait, self._retry_due, rec, retries - 1,
                                                 wait * 2, send, give_up)

    def _retry_due(self, rec, retries: int, wait: float, send, give_up) -> None:
        if retries > 0:
            self._retry(rec, retries, wait, send, give_up)
        else:
            give_up(rec)

    def _next_token(self) -> int:
        self._token_seq = (self._token_seq + 1) & 0xFFFFFFFF
        return self._token_seq or 1

    def _trace(self, *event) -> None:
        if self.cfg.trace:
            self.trace.append(event)

    def advertised_tas(self) -> list[str]:
        tas = list(self.learned_tas)
        for ta in self.host.local_tas():
            if ta not in tas:
                tas.append(ta)
        return tas[: MAX_ADVERTISED_TAS]

    def _learn_self_ta(self, ta: str) -> None:
        # The peer writes this string.  Keep only a well-formed TA, in its
        # one spelling, so no peer can push this node's advertised TA list
        # past one frame or fill it with aliases.  An echo of a kept TA,
        # the usual case, is not parsed.
        if ta in self.learned_tas or ta in self.host.local_tas():
            return
        try:
            ta = normal_ta(ta)
        except MalformedTA:
            return
        if (len(ta) <= MAX_TA_LEN and ta not in self.learned_tas
                and ta not in self.host.local_tas()):
            self.learned_tas.append(ta)
            del self.learned_tas[: -MAX_ADVERTISED_TAS]

    # ------------------------------------------------------------------
    # joining

    def start_join(self, proxy_ta: str) -> None:
        """Bootstrap into the ring through a proxy reachable at proxy_ta."""
        self.join_started_at = self.host.network.now
        self._join_attempts_left = JOIN_RETRIES
        self.initiate_link([proxy_ta], CT_LEAF,
                           on_established=self._leaf_ready,
                           on_failed=self._join_failed)

    def add_bootstrap(self, proxy_ta: str) -> None:
        """Attach a further leaf proxy (e.g. to bridge a second ring)."""
        self.initiate_link([proxy_ta], CT_LEAF, on_established=self._leaf_ready)

    def _leaf_ready(self, conn: Connection) -> None:
        self._send_join_request(conn)
        if self._join_timer is None and not self.joined:
            self._join_timer = self.host.network.call_later(
                self.cfg.join_retry_timeout, self._join_check)

    def _send_join_request(self, leaf: Connection) -> None:
        token = self._next_token()
        self.pending_requests[token] = _PendingRequest(
            "join", self.host.network.now + self.cfg.connreq_timeout)
        # The proxy's address rides along so the response can be couriered
        # back through it: we are not routable until the ring knows us.
        req = ConnectionRequest(messages.CONNECT_REQUEST, token, self.address,
                                CT_NEAR, tuple(self.advertised_tas()),
                                via=leaf.peer)
        pkt = make_routed(self.address, self.address, PAYLOAD_CONNECT,
                          messages.encode_connect(req))
        leaf.edge.send(encode(pkt))
        self.stats["join_requests"] += 1

    def _join_check(self) -> None:
        self._join_timer = None
        if self.joined:
            return
        proxy = self._proxy_leaf()
        if self._join_attempts_left > 0 and proxy is not None:
            self._join_attempts_left -= 1
            self._send_join_request(proxy)
            self._join_timer = self.host.network.call_later(
                self.cfg.join_retry_timeout, self._join_check)
        else:
            self._join_failed("timeout")

    def _join_failed(self, reason: str) -> None:
        if self.joined:
            return
        self.stats["join_failed"] += 1
        if self.on_join_failed is not None:
            self.on_join_failed(self, reason)

    def _join_succeeded(self) -> None:
        self.joined = True
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None

    # ------------------------------------------------------------------
    # link handshake, initiator side

    def initiate_link(self, tas: list[str], conn_type: int, *,
                      expect_addr: int | None = None, req_token: int = 0,
                      on_established: Callable | None = None,
                      on_failed: Callable | None = None) -> int | None:
        tas = [t for t in tas if t]
        if not tas or expect_addr in self._dialing_addrs():
            return None
        token = self._next_token()
        attempt = _LinkAttempt(token, tas, conn_type, expect_addr, req_token,
                               on_established=on_established, on_failed=on_failed)
        self.pending_links[token] = attempt
        self._attempt_dial(attempt)
        return token

    def _dialing_addrs(self) -> set[int]:
        out = {a.expect_addr for a in self.pending_links.values()
               if a.expect_addr is not None}
        out.update(a.peer for a in self.pending_links.values()
                   if a.peer is not None)
        return out

    def _attempt_dial(self, at: _LinkAttempt) -> None:
        while at.ta_index < len(at.tas):
            edge = self.host.dial(at.tas[at.ta_index])
            if edge is not None:
                at.edge = edge
                self._retry(at, HANDSHAKE_RETRIES, self.cfg.handshake_timeout,
                            self._attempt_send, self._attempt_exhausted)
                return
            at.ta_index += 1
        self._abort_attempt(at, "no dialable transport address")

    def _attempt_send(self, at: _LinkAttempt) -> None:
        if at.state == _WAIT_LINK:
            msg = LinkMessage(messages.LINK_REQUEST, at.token, self.address,
                              at.conn_type, messages.LINK_OK, at.req_token,
                              at.tas[at.ta_index], tuple(self.advertised_tas()))
            self._send_link(at.edge, at.expect_addr or 0, PAYLOAD_LINK,
                            messages.encode_link(msg))
        else:
            self._send_status(at.edge, at.peer or 0, messages.STATUS_REQUEST, at.token)

    def _attempt_exhausted(self, at: _LinkAttempt) -> None:
        if at.state == _WAIT_LINK and at.ta_index + 1 < len(at.tas):
            at.ta_index += 1
            self._close_unused_edge(at.edge)
            self._attempt_dial(at)
        else:
            self._abort_attempt(at, "timeout")

    def _abort_attempt(self, at: _LinkAttempt, reason: str) -> None:
        self.pending_links.pop(at.token, None)
        if at.timer is not None:
            at.timer.cancel()
        self._close_unused_edge(at.edge)
        self.stats["link_failed"] += 1
        self._trace("link_failed", at.expect_addr, reason)
        if at.on_failed is not None:
            at.on_failed(reason)

    def on_edge_failed(self, edge) -> None:
        """Transport-level open failure (e.g. TCP connect refused)."""
        for at in list(self.pending_links.values()):
            if at.edge is edge and at.state == _WAIT_LINK:
                at.timer.cancel()
                at.ta_index += 1
                self._attempt_dial(at)
                return

    def _close_unused_edge(self, edge) -> None:
        if edge is None:
            return
        for conn in self.table.by_peer.values():
            if conn.edge is edge:
                return
        edge.close()

    # ------------------------------------------------------------------
    # datagram entry point

    def on_datagram(self, edge, data: bytes) -> None:
        if not self.alive:
            return
        # Nothing reads a link packet's header, only its body, so a link
        # packet with a body skips the header parse.  A shorter one is
        # parsed and fails as it always did: too short, or an empty body.
        link = len(data) > HEADER_LEN and data[0] == TYPE_LINK
        if not link:
            try:
                hdr = read_header(data)
            except PacketError as exc:
                log.debug("node %s: dropping undecodable datagram: %s",
                          format_address(self.address)[:8], exc)
                self.stats["bad_packet"] += 1
                return
            link = hdr.type == TYPE_LINK
        peer = edge.peer_address
        conn = self.table.by_peer.get(peer)
        if conn is not None:
            conn.last_seen = self.host.network.now
        if not link:
            self._route_packet(hdr, peer, data)
            return
        # Most link packets are status datagrams, whose body is read in
        # place.  A link packet of HEADER_LEN bytes has no kind byte.
        kind = data[HEADER_LEN] if len(data) > HEADER_LEN else None
        try:
            if kind == messages.STATUS_REQUEST or kind == messages.STATUS_RESPONSE:
                token, neighbors = messages.decode_status_at(data, HEADER_LEN)
            else:
                body = messages.decode_link_body(data[HEADER_LEN:])
        except messages.MessageError as exc:
            log.debug("bad link body: %s", exc)
            self.stats["bad_body"] += 1
            return
        if kind == messages.STATUS_REQUEST:
            self._handle_status_request(edge, conn, token, neighbors)
        elif kind == messages.STATUS_RESPONSE:
            self._handle_status_response(edge, conn, token, neighbors)
        elif isinstance(body, LinkMessage):
            if body.kind == messages.LINK_REQUEST:
                self._handle_link_request(edge, body)
            else:
                self._handle_link_response(edge, body)
        elif isinstance(body, RoleChange):
            self._handle_role(edge, body)
        elif isinstance(body, CloseMessage):
            if edge.peer_address is not None:
                self._drop_connection(edge.peer_address, notify=False,
                                      reason="peer closed")

    # ------------------------------------------------------------------
    # link handshake, responder side

    def _handle_link_request(self, edge, msg: LinkMessage) -> None:
        if msg.sender == self.address:
            reply = LinkMessage(messages.LINK_RESPONSE, msg.token, self.address,
                                msg.conn_type, messages.LINK_COLLISION,
                                msg.req_token, _dialable_remote(edge), ())
            self._send_link(edge, msg.sender, PAYLOAD_LINK, messages.encode_link(reply))
            self.stats["address_collision"] += 1
            return
        self._learn_self_ta(msg.observed_remote)
        edge.peer_address = msg.sender
        key = (edge.remote_ta, msg.token)
        if key not in self.provisional:
            window = self.cfg.handshake_timeout * (2 ** (HANDSHAKE_RETRIES + 2))
            self.provisional[key] = _Provisional(
                msg.sender, msg.conn_type, list(msg.transport_addresses),
                msg.req_token, edge, self.host.network.now + window)
        reply = LinkMessage(messages.LINK_RESPONSE, msg.token, self.address,
                            msg.conn_type, messages.LINK_OK, msg.req_token,
                            _dialable_remote(edge), tuple(self.advertised_tas()))
        self._send_link(edge, msg.sender, PAYLOAD_LINK, messages.encode_link(reply))

    def _handle_link_response(self, edge, msg: LinkMessage) -> None:
        at = self.pending_links.get(msg.token)
        if at is None or at.state != _WAIT_LINK:
            return
        at.timer.cancel()
        if msg.status != messages.LINK_OK or msg.sender == self.address:
            self._abort_attempt(at, "collision" if
                                msg.status == messages.LINK_COLLISION else "rejected")
            return
        self._learn_self_ta(msg.observed_remote)
        at.peer = msg.sender
        at.peer_tas = msg.transport_addresses
        at.state = _WAIT_STATUS
        edge.peer_address = msg.sender
        self._retry(at, HANDSHAKE_RETRIES, self.cfg.handshake_timeout,
                    self._attempt_send, self._attempt_exhausted)

    def _handle_status_request(self, edge, conn: Connection | None, token: int,
                               neighbors) -> None:
        """``conn`` is the connection on ``edge``'s peer, or None."""
        prov = self.provisional and self.provisional.pop((edge.remote_ta, token), None)
        if prov:
            conn = self._commit(prov.peer, prov.edge, prov.conn_type, prov.tas,
                                req_token=prov.req_token, initiated_by_me=False)
        elif conn is None:
            return
        self._process_status(conn, neighbors)
        self._send_status(edge, edge.peer_address or 0, messages.STATUS_RESPONSE,
                          token)

    def _handle_status_response(self, edge, conn: Connection | None, token: int,
                                neighbors) -> None:
        """``conn`` is the connection on ``edge``'s peer, or None."""
        at = self.pending_links.pop(token, None)
        if at is not None:
            at.timer.cancel()
            conn = self._commit(at.peer, at.edge, at.conn_type, list(at.peer_tas),
                                req_token=at.req_token, initiated_by_me=True)
            self._process_status(conn, neighbors)
            if at.on_established is not None:
                at.on_established(conn)
            return
        probe = self.pending_probes.pop(token, None)
        if probe is not None:
            probe.cancel()
        if conn is not None:
            self._process_status(conn, neighbors)

    def _handle_role(self, edge, msg: RoleChange) -> None:
        pend = self.pending_requests.pop(msg.token, None)
        conn = self.table.get(edge.peer_address)
        if conn is None:
            return
        label = label_for(msg.conn_type)
        if self.table.add_role(conn, label) and label == NEAR:
            self._near_changed()
        if pend is not None and pend.kind == "shortcut" and label == SHORTCUT:
            self.table.set_initiated_shortcut(conn, True, pend.sampled_gap)

    # ------------------------------------------------------------------
    # connection table updates

    def _commit(self, peer: int, edge, conn_type: int, tas: list[str], *,
                req_token: int, initiated_by_me: bool) -> Connection:
        label = label_for(conn_type)
        now = self.host.network.now
        conn = self.table.get(peer)
        if conn is None:
            conn = Connection(peer, edge, frozenset((label,)), tuple(tas), now, now,
                              initiated_by_me=initiated_by_me)
            self.table.add(conn)
        else:
            conn.edge = edge
            self.table.add_role(conn, label)
            conn.last_seen = now
            conn.initiated_by_me = conn.initiated_by_me or initiated_by_me
            self.table.add_tas(conn, tas)
        edge.peer_address = peer
        pend = self.pending_requests.pop(req_token, None) if req_token else None
        if pend is not None and pend.kind == "shortcut" and label == SHORTCUT:
            self.table.set_initiated_shortcut(conn, True, pend.sampled_gap)
        self._trace("commit", peer, label)
        self.stats["connections_established"] += 1
        if label == NEAR:
            self._near_changed()
        return conn

    def _drop_connection(self, peer: int, *, notify: bool, reason: str) -> None:
        conn = self.table.remove(peer)
        if conn is None:
            return
        if notify:
            try:
                self._send_link(conn.edge, peer, PAYLOAD_LINK,
                                messages.encode_close(CloseMessage()))
            except Exception:  # edge may already be dead
                pass
        conn.edge.close()
        probe = self.pending_probes.pop(conn.probe_token, None)
        if probe is not None:
            probe.cancel()
        self._trace("drop", peer, reason)
        self.stats["connections_dropped"] += 1
        if NEAR in conn.roles:
            self._near_changed()

    def _near_changed(self) -> None:
        self.sides_converged = False
        if self.table.near():
            if self._first_near_tick is None:
                self._first_near_tick = self._tick_count
            if not self.joined:
                self._join_succeeded()
        self._push_status_soon()

    # ------------------------------------------------------------------
    # neighbor lists and ring zipping

    def _send_link(self, edge, peer: int, payload_type: int, body: bytes) -> None:
        edge.send(encode(make_link(self.address, peer, payload_type, body)))

    def _send_status(self, edge, peer: int, kind: int, token: int) -> None:
        """Send a status datagram listing our neighbors: one pack of the
        link header, kind and token, in front of the table's encoded
        listing, which is cached per table version.  The bytes are those
        of ``encode(make_link(self.address, peer, PAYLOAD_STATUS,
        encode_status(StatusMessage(kind, token, listing))))``."""
        edge.send(_STATUS_FRAME.pack(
            TYPE_LINK, 0, 0, self._address_bytes, peer.to_bytes(ADDRESS_BYTES, "big"),
            PAYLOAD_STATUS, kind, token) + self.table.encoded_listing())

    def _process_status(self, conn: Connection, neighbors) -> None:
        """Keep ``conn``'s listing and zip in the addresses it lists.

        A listed address is zipped in when it is strictly closer, on its
        side of the ring, than our NEAR_PER_SIDE-th near peer there.  A
        pass that dials nothing stores the table version in
        ``conn.zipped_version``.  While the listing is equal to the last
        one and the version is the same, a pass would read the same
        listing, the same ``by_peer`` and the same bounds, and so would
        dial nothing again: it is skipped.  A listing that differs from a
        near peer also drops ``_near_repair``'s cache, which reads only near
        peers' listings.  The caller has set ``conn.last_seen``.
        """
        # Keep the decoder's newest copy: its cache shares that one among
        # every receiver of the listing, so older copies can be freed.
        last, conn.last_neighbors = conn.last_neighbors, tuple(neighbors)
        if neighbors != last:
            conn.zipped_version = -1
            if NEAR in conn.roles:
                self._repair_cache = None
        elif conn.zipped_version == self.table.version:
            return
        if not self.joined:
            return
        # Linking only schedules sends, so the bounds hold for the list.
        me = self.address
        by_peer = self.table.by_peer
        cw_bound, ccw_bound = self.table.near_bounds()
        dialed = False
        for a, tas in neighbors:
            if a == me or not tas or a in by_peer:
                continue
            cw = (a - me) % MODULUS
            if cw <= HALF_MODULUS:
                closer = cw < cw_bound
            else:
                closer = MODULUS - cw < ccw_bound
            if closer:
                self.initiate_link(list(tas), CT_NEAR, expect_addr=a)
                dialed = True
        if not dialed:
            conn.zipped_version = self.table.version

    def _push_status_soon(self) -> None:
        if self._push_timer is not None:
            return
        self._push_timer = self.host.network.call_later(
            self.cfg.push_status_debounce, self._push_status)

    def _push_status(self) -> None:
        self._push_timer = None
        for c in self.table.near():
            self._send_status(c.edge, c.peer, messages.STATUS_REQUEST, self._next_token())

    # ------------------------------------------------------------------
    # routed packets

    def _proxy_leaf(self) -> Connection | None:
        """The leaf this node opened to its own proxy, if it still has one."""
        for conn in self.table.with_role(LEAF):
            if conn.initiated_by_me:
                return conn
        return None

    def originate(self, pkt: Packet) -> None:
        """Send a routed packet of our own into the ring.

        Without structured peers the packet goes up the node's own proxy
        leaf.  A node that has not joined likewise passes routed traffic
        for others up that leaf and never answers for the ring itself.
        """
        data = encode(pkt)
        if self.table.structured_peers():
            self._route_packet(pkt.header, None, data)
            return
        proxy = self._proxy_leaf()
        if proxy is not None:
            proxy.edge.send(data)
        else:
            self.stats["unroutable"] += 1

    def _route_packet(self, hdr: PacketHeader, prev: int | None, data: bytes) -> None:
        """Route the packet ``data``, whose header is ``hdr``, as it arrives
        (or leaves).  Its payload is read only if it is delivered here."""
        _, hops, ttl, source, destination, payload_type = hdr
        if not self.joined and destination != self.address:
            # We hold no ring position yet: delivering here would let a
            # joiner link to us as if we were the whole ring, stranding
            # both on an island the ring never hears of.
            proxy = self._proxy_leaf()
            if proxy is not None:
                self._forward(proxy.peer, data, hops, ttl)
            else:
                self.stats["unroutable"] += 1
            return
        ring = self.table.ring or self.table.structured_peers()
        # A packet never revisits its source (the deciders' ``skip``); this
        # also keeps requests from chasing a stale entry for a node that
        # died and rejoined under the same address.
        direction = direction_of(destination)
        if direction is not None:
            deliver, next_hop = routing.directional_next_hop(
                self.address, ring, direction, hops, ttl, source)
        elif (payload_type == PAYLOAD_CONNECT
              and messages.peek_connect_type(data[HEADER_LEN:]) in (CT_NEAR, CT_LEAF)):
            deliver, next_hop = routing.annealing_next_hop(
                self.address, ring, prev, destination, source)
        else:
            next_hop = routing.greedy_next_hop(self.address, ring, prev, destination, source)
            deliver = next_hop is None
        if self.cfg.trace:
            self._trace("route", destination,
                        _ROUTE_NAMES[deliver, next_hop is not None], next_hop)
        if deliver:
            self._deliver_local(Packet(hdr, data[HEADER_LEN:]))
        if next_hop is not None:
            self._forward(next_hop, data, hops, ttl)
        elif not deliver:
            self.stats["dropped_packets"] += 1

    def _forward(self, next_hop: int, data: bytes, hops: int, ttl: int) -> None:
        """Send ``data`` (header ``hops``, ``ttl``) on to ``next_hop``."""
        if hops >= ttl:
            self.stats["expired_packets"] += 1
            return
        conn = self.table.by_peer.get(next_hop)
        if conn is None:
            self.stats["forward_no_edge"] += 1
            return
        conn.edge.send(forwarded(data, hops))

    def _deliver_local(self, pkt: Packet) -> None:
        ptype = pkt.header.payload_type
        if ptype == PAYLOAD_CONNECT:
            try:
                body = messages.decode_connect_body(pkt.payload)
            except messages.MessageError as exc:
                log.debug("bad connect body: %s", exc)
                self.stats["bad_body"] += 1
                return
            if isinstance(body, bytes):
                self._relay_to_leaf(body)
            elif body.kind == messages.CONNECT_REQUEST:
                self._handle_connect_request(body)
            else:
                self._handle_connect_response(body)
        elif ptype == PAYLOAD_APP:
            if self.app_handler is not None:
                self.app_handler(self, pkt)
            self.stats["app_delivered"] += 1

    # ------------------------------------------------------------------
    # routed connection requests

    def send_connect_request(self, target: int, conn_type: int, *,
                             kind: str, probe_dir: Direction | None = None,
                             sampled_gap: int | None = None,
                             ttl: int = DEFAULT_TTL,
                             expires_in: float | None = None) -> int:
        token = self._next_token()
        timeout = self.cfg.connreq_timeout if expires_in is None else expires_in
        self.pending_requests[token] = _PendingRequest(
            kind, self.host.network.now + timeout,
            probe_dir=probe_dir, sampled_gap=sampled_gap)
        req = ConnectionRequest(messages.CONNECT_REQUEST, token, self.address,
                                conn_type, tuple(self.advertised_tas()))
        pkt = make_routed(self.address, target, PAYLOAD_CONNECT,
                          messages.encode_connect(req), ttl=ttl)
        self.originate(pkt)
        self.stats["connect_requests"] += 1
        return token

    def _handle_connect_request(self, body: ConnectionRequest) -> None:
        if body.sender == self.address:
            self.pending_requests.pop(body.token, None)
            return
        conn = self.table.get(body.sender)
        if conn is not None and self._peer_moved(conn, body.transport_addresses):
            # Same address, different endpoints: the peer died and came
            # back; the edge we hold leads nowhere.
            self._drop_connection(conn.peer, notify=False, reason="peer moved")
            conn = None
        if conn is not None:
            label = label_for(body.conn_type)
            if self.table.add_role(conn, label) and label == NEAR:
                self._near_changed()
            self._send_link(conn.edge, body.sender, PAYLOAD_LINK,
                            messages.encode_role(RoleChange(body.token, body.conn_type)))
            return
        self.initiate_link(list(body.transport_addresses), body.conn_type,
                           expect_addr=body.sender, req_token=body.token)
        resp = ConnectionRequest(messages.CONNECT_RESPONSE, body.token,
                                 self.address, body.conn_type,
                                 tuple(self.advertised_tas()))
        resp_pkt = make_routed(self.address, body.sender, PAYLOAD_CONNECT,
                               messages.encode_connect(resp))
        if body.via and body.via != self.address:
            # The requester is not routable yet; courier the response to
            # its proxy, which hands it down the leaf edge.
            self.originate(make_routed(
                self.address, body.via, PAYLOAD_CONNECT,
                messages.encode_relay(encode(resp_pkt))))
        else:
            self.originate(resp_pkt)

    def _peer_moved(self, conn: Connection, advertised) -> bool:
        # An endpoint the edge can name that the peer no longer advertises
        # means the peer came back on new endpoints.  An accepted TCP edge
        # names none, and a dead TCP socket announces itself anyway.
        seen = _dialable_remote(conn.edge)
        return bool(advertised and seen) and seen not in advertised

    def _relay_to_leaf(self, inner: bytes) -> None:
        """Hand a couriered packet to the leaf peer it is addressed to."""
        try:
            pkt = decode(inner)
        except PacketError:
            self.stats["bad_body"] += 1
            return
        dest = pkt.header.destination
        if dest == self.address:
            self._deliver_local(pkt)
            return
        conn = self.table.get(dest)
        if conn is not None and LEAF in conn.roles:
            conn.edge.send(inner)
        else:
            self.stats["relay_no_leaf"] += 1

    def _handle_connect_response(self, body: ConnectionRequest) -> None:
        pend = self.pending_requests.get(body.token)
        if pend is None:
            return
        if self.table.get(body.sender) is not None:
            return
        # The responder could not reach us; dial it ourselves.
        self.initiate_link(list(body.transport_addresses), body.conn_type,
                           expect_addr=body.sender, req_token=body.token)

    # ------------------------------------------------------------------
    # density estimate and shortcut sampling

    def _update_gap_ewma(self) -> None:
        est = self.table.gap_estimate()
        if est is None:
            return
        if self.gap_ewma is None:
            self.gap_ewma = float(est)
        else:
            a = GAP_EWMA_ALPHA
            self.gap_ewma = (1 - a) * self.gap_ewma + a * est

    def _target_k(self) -> int:
        if self.cfg.k_shortcuts is not None:
            return self.cfg.k_shortcuts
        if self.gap_ewma is None:
            return 0
        n_est = max(2.0, MODULUS / self.gap_ewma)
        return max(1, min(K_MAX, math.ceil(math.log2(n_est))))

    # ------------------------------------------------------------------
    # maintenance pass

    def tick(self) -> None:
        self._tick_count += 1
        now = self.host.network.now
        self._expire_pending(now)
        self._probe_stale(now)
        if self.joined:
            self._update_gap_ewma()
            self._leaf_teardown()
            self._near_repair(now)
            self._trim_near(now)
            self._maintain_shortcuts(now)
            if (self.established_at is None and self.sides_converged
                    and (self._target_k() == 0
                         or self.table.initiated_shortcuts())):
                self.established_at = now
        self._tick_timer = self.host.network.call_later(self.cfg.tick_interval, self.tick)

    def _expire_pending(self, now: float) -> None:
        for pending in (self.pending_requests, self.provisional):
            if pending:
                for key in [key for key, rec in pending.items() if rec.expires <= now]:
                    del pending[key]

    def _probe_stale(self, now: float) -> None:
        interval = self.cfg.status_interval
        if interval is None:
            return
        for conn in self.table.by_peer.values():
            if (now - conn.last_seen > interval
                    and conn.probe_token not in self.pending_probes):
                self._send_probe(conn)

    def _send_probe(self, conn: Connection) -> None:
        conn.probe_token = token = self._next_token()
        self._probe_round(conn.peer, token, self.cfg.probe_retries, self.cfg.probe_timeout)

    def _probe_round(self, peer: int, token: int, retries: int, wait: float) -> None:
        """Send probe ``token``; retry or give up ``wait`` seconds on."""
        # A connection's drop ends its probe, so the peer is still in the table.
        self._send_status(self.table.by_peer[peer].edge, peer, messages.STATUS_REQUEST, token)
        self.pending_probes[token] = self.host.network.call_later(
            wait, self._probe_due, peer, token, retries - 1, wait * 2)

    def _probe_due(self, peer: int, token: int, retries: int, wait: float) -> None:
        if retries > 0:
            self._probe_round(peer, token, retries, wait)
        else:
            del self.pending_probes[token]
            self.stats["probe_deaths"] += 1
            self._drop_connection(peer, notify=False, reason="probe timeout")

    def _leaf_teardown(self) -> None:
        if self._first_near_tick is None:
            return
        if self._tick_count - self._first_near_tick < LEAF_GRACE_TICKS:
            return
        for conn in self.table.with_role(LEAF):
            if conn.is_structured():
                self.table.discard_role(conn, LEAF)
            elif conn.initiated_by_me:
                self._drop_connection(conn.peer, notify=True, reason="leaf done")

    # -- near repair ----------------------------------------------------

    def _known_neighborhood(self) -> dict[int, tuple[str, ...]]:
        """Structured peers plus everyone the near peers last listed."""
        known: dict[int, tuple[str, ...]] = {}
        for conn in self.table.by_peer.values():
            if conn.is_structured():
                known[conn.peer] = conn.peer_tas[:3]
        for conn in self.table.near():
            for a, tas in conn.last_neighbors:
                if a != self.address and a not in known:
                    known[a] = tuple(tas)
        return known

    def _near_repair(self, now: float) -> None:
        """Claim or dial the NEAR_PER_SIDE closest known addresses on each
        side, or discover the side when none is plausible.

        What it reads of ``_known_neighborhood()``, the NEAR_PER_SIDE
        closest entries on each side, is kept in ``_repair_cache``, keyed
        on the table version.  The neighborhood is built from the
        structured peers, their transport addresses and the near peers'
        listings: every write of an entry, role or transport address bumps
        the version, and ``_process_status`` drops the cache whenever a near
        peer's listing changes, so a kept one equals a rebuild.  A pass that
        found every entry held by a near peer marks the cache; at the same
        version a pass would find them held again and act on nothing, so
        it only sets ``sides_converged``.
        """
        if not self.table.near():
            leafs = self.table.with_role(LEAF)
            if self._has_pending("anchor", None):
                return
            if leafs:
                self._send_join_request(leafs[0])
            elif self.table.structured_peers():
                self.send_connect_request(self.address, CT_NEAR, kind="anchor")
            return

        version = self.table.version
        cache = self._repair_cache
        if cache is None or cache[0] != version:
            known = self._known_neighborhood()
            me = self.address
            # No key in ``known`` is this node's own address, so every key
            # is at a distinct clockwise distance, and the counterclockwise
            # order is the clockwise one reversed.
            clockwise = sorted(known.items(), key=lambda item: (item[0] - me) % MODULUS)
            cache = self._repair_cache = (version, clockwise[:NEAR_PER_SIDE],
                                          clockwise[::-1][:NEAR_PER_SIDE], False)
        elif cache[3]:
            self.sides_converged = True
            return
        _, cw_closest, ccw_closest, _ = cache
        horizon = REPAIR_HORIZON_GAPS * self.gap_ewma if self.gap_ewma else None
        converged = True
        for direction in _DIRECTIONS:
            closest = cw_closest if direction is Direction.CLOCKWISE else ccw_closest
            satisfied = True
            acted = False
            for a, tas in closest:
                conn = self.table.get(a)
                if conn is not None and NEAR in conn.roles:
                    continue
                satisfied = False
                if conn is not None:
                    # Linked for another role; claim it as a ring neighbor.
                    self.table.add_role(conn, NEAR)
                    self._near_changed()
                    self._send_link(conn.edge, a, PAYLOAD_LINK,
                                    messages.encode_role(RoleChange(0, CT_NEAR)))
                    continue
                if acted:
                    continue
                dist = directed_distance(self.address, a, direction)
                plausible = horizon is None or dist <= horizon
                if plausible and tas:
                    self.initiate_link(list(tas), CT_NEAR, expect_addr=a)
                    acted = True
                else:
                    self._discover(direction)
                    acted = True
            converged = converged and satisfied
        self.sides_converged = converged
        if converged:
            # Nothing was written, so the version is the cache's.
            self._repair_cache = (version, cw_closest, ccw_closest, True)

    def _has_pending(self, kind: str, direction: Direction | None) -> bool:
        for pend in self.pending_requests.values():
            if pend.kind == kind and (direction is None
                                      or pend.probe_dir is direction):
                return True
        return False

    def _discover(self, direction: Direction) -> None:
        """Find unknown ring neighbors: walk the ring a bounded number of
        hops in the deficient direction, or re-anchor around our own
        address when that side is entirely dark."""
        side = self.table.side_size(direction)
        if 0 < side <= NEAR_PER_SIDE:
            if self._has_pending("probe", direction):
                return
            depth = side + 1
            self.send_connect_request(
                directional_address(direction), CT_NEAR, kind="probe",
                probe_dir=direction, ttl=depth,
                expires_in=self.cfg.tick_interval * 0.9)
        else:
            if self._has_pending("anchor", None):
                return
            self.send_connect_request(self.address, CT_NEAR, kind="anchor")

    def _trim_near(self, now: float) -> None:
        near = self.table.near()
        keep = self.table.near_keep_set()
        if len(keep) == len(near):
            return
        for conn in near:
            if conn.peer in keep:
                continue
            if now - conn.established_at < self.cfg.tick_interval:
                continue
            if SHORTCUT in conn.roles or LEAF in conn.roles:
                self.table.discard_role(conn, NEAR)
                self._near_changed()
            else:
                self._drop_connection(conn.peer, notify=True, reason="trim")
            self.stats["near_trimmed"] += 1

    # -- shortcut upkeep --------------------------------------------------

    def _maintain_shortcuts(self, now: float) -> None:
        k = self._target_k()
        if k <= 0 or not self.sides_converged or self.gap_ewma is None:
            return
        mine = self.table.initiated_shortcuts()
        pending = sum(1 for p in self.pending_requests.values()
                      if p.kind == "shortcut")
        if len(mine) > k:
            victim = max(mine, key=lambda c: c.established_at)
            self._demote_shortcut(victim)
            return
        if len(mine) + pending < k:
            gap = max(1, int(self.gap_ewma))
            d = sample_shortcut_distance(gap, self.rng)
            target = (self.address + d) % MODULUS
            self.send_connect_request(target, CT_SHORTCUT, kind="shortcut",
                                      sampled_gap=gap)
            return
        if pending == 0:
            self._refresh_stale_shortcut(mine)

    def _refresh_stale_shortcut(self, mine: list[Connection]) -> None:
        # A shortcut goes stale when the local density has drifted far
        # from the estimate it was sampled under.  The realized offset is
        # left alone: landing nearer than the sampled distance is normal
        # closest-node resolution, not a contract violation.  The oldest
        # stale shortcut goes first.
        factor = SHORTCUT_STALE_FACTOR
        gap = self.gap_ewma
        stale = [conn for conn in mine if conn.sampled_gap is not None
                 and (conn.sampled_gap > gap * factor or conn.sampled_gap * factor < gap)]
        if stale:
            self._demote_shortcut(min(stale, key=lambda c: c.established_at))
            self.stats["shortcut_refreshed"] += 1

    def _demote_shortcut(self, conn: Connection) -> None:
        self.table.set_initiated_shortcut(conn, False)
        if NEAR in conn.roles or LEAF in conn.roles:
            self.table.discard_role(conn, SHORTCUT)
        else:
            self._drop_connection(conn.peer, notify=True, reason="shortcut refresh")
