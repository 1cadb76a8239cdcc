"""Transport addresses, the host core and datagram edge the simulator
shares with the real transports, and real UDP/TCP over one event loop.

``SimNetwork`` and ``RealNetwork`` keep one contract, so a
``ScenarioRunner`` drives either: ``now`` is seconds on the network's
clock (simulated, or wall seconds since the network was made),
``call_later(delay, fn, *args)`` returns a cancellable timer,
``run_until(t)`` runs to the absolute time ``t``, ``new_host()`` takes
no argument, and the ``stats`` Counter holds the ``datagrams`` and
``bytes`` sent, among others.  Every host has a ``ta`` to join through,
``now()``, ``call_later``, ``dial``, ``local_tas`` and ``shutdown()``.

Transport addresses are written ``<namespace>.<proto>:host:port``.
Parsing takes aliases (any namespace tag or none, any scheme case, leading
zeros in the port), but edges, learned addresses and the simulator's host
table use only the ``ring.<proto>:host:port`` spelling ``format_ta`` writes;
a real host dials a host name as the numeric address it resolves to.

Wire rules:

* UDP: one encoded packet per datagram; the datagram boundary supplies
  the packet length and the UDP checksum covers integrity.
* TCP: packets are framed with a 2-octet big-endian length prefix, so a
  framed packet (header plus payload) may be at most 65535 bytes.

The ``RealNetwork`` event loop drives any number of in-process nodes
over loopback or LAN sockets from a single thread, delivering each
node's events serially, which mirrors the simulator's execution model.
It is one ``selectors.DefaultSelector`` (epoll on Linux, so no
``FD_SETSIZE`` ceiling): every socket is registered once, when it is
created, with the bound method that handles it, and a TCP edge's write
interest is switched on only while it has bytes queued.  ``run_until``
fires the due timers, then calls each ready key's handler with the
ready event mask.  Timers, including each TCP open deadline, live in one
``TimerQueue``.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import logging
import selectors
import socket
import struct
import time
from collections import Counter, deque
from typing import NamedTuple

log = logging.getLogger(__name__)

TA_NAMESPACE = "ring"
# Room for a namespaced scheme, a 253-byte DNS name and a port.
MAX_TA_LEN = 300
MAX_FRAME = 0xFFFF
UDP_SOFT_MTU = 1400
EDGE_OPEN_TIMEOUT = 5.0
_FRAME_LENGTH = struct.Struct(">H")


class MalformedTA(ValueError):
    pass


class TransportAddress(NamedTuple):
    protocol: str  # "udp" or "tcp"
    host: str
    port: int


def parse_ta(text: str) -> TransportAddress:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise MalformedTA(f"transport address needs scheme:host:port: {text!r}")
    scheme, host, port_text = parts
    proto = scheme.lower().rsplit(".", 1)[-1]
    if proto not in ("udp", "tcp"):
        raise MalformedTA(f"unknown protocol in {text!r}")
    if not host:
        raise MalformedTA(f"empty host in {text!r}")
    if not (port_text.isascii() and port_text.isdigit()):
        raise MalformedTA(f"bad port in {text!r}")
    port = int(port_text)
    if not 1 <= port <= 65535:
        raise MalformedTA(f"port out of range in {text!r}")
    return TransportAddress(proto, host, port)


def format_ta(protocol: str, host: str, port: int) -> str:
    return f"{TA_NAMESPACE}.{protocol.lower()}:{host}:{port}"


def normal_ta(text: str) -> str:
    """``text`` as ``format_ta`` spells it, and ``text`` itself when it is
    spelled so already, so that no second copy is kept; or ``MalformedTA``."""
    spelled = format_ta(*parse_ta(text))
    return text if spelled == text else spelled


# ----------------------------------------------------------------------
# timers, shared with the simulator


class Timer:
    """A callback and its arguments waiting in a ``TimerQueue``;
    ``cancel()`` stops it firing and drops both, so that a record that
    holds its own timer (a node's retries) is freed when the timer is
    cancelled, not by the cycle collector."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn, args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.fn = self.args = None


class TimerQueue:
    """Timers in due order; timers due at the same time fire in the order
    they were scheduled, which keeps simulated runs deterministic.

    Besides the heap of cancellable timers there is a FIFO lane of
    datagram deliveries nobody cancels, for a caller whose due times never
    decrease (the simulator under constant latency).  A lane entry is
    ``(due, seq, host, src_ta, data)``, appended by that caller with
    ``next(_seq)`` as its order, and fires as ``host._receive(src_ta,
    data)``.  ``fire_due`` merges the lane with the heap by (due time,
    order), so an entry fires exactly where the heap would have put it.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        # (due, seq, host, src_ta, data), due times in order.
        self._lane: deque[tuple[float, int, object, str, bytes]] = deque()
        self._seq = itertools.count()

    def push(self, when: float, fn, *args) -> Timer:
        """Schedule ``fn(*args)`` at ``when``."""
        timer = Timer(fn, args)
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        return timer

    def fire_due(self, until: float, clock=None) -> float | None:
        """Fire every timer due by ``until``, the ones they schedule too, and
        return the next due time.  A ``clock``'s ``now`` is set to each due
        time in turn, cancelled timers' included."""
        heap = self._heap
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        while True:
            # Entries are unique in (due, seq), so comparing a lane entry
            # with a heap entry compares those and never what follows.
            if lane and (not heap or lane[0] < heap[0]):
                when, _, host, src_ta, data = lane[0]
                if when > until:
                    return when
                popleft()
                if clock is not None:
                    clock.now = when
                host._receive(src_ta, data)
            elif heap:
                when = heap[0][0]
                if when > until:
                    return when
                _, _, timer = pop(heap)
                if clock is not None:
                    clock.now = when
                if not timer.cancelled:
                    timer.fn(*timer.args)
            else:
                return None


# ----------------------------------------------------------------------
# event loop


class RealNetwork:
    """Selector loop hosting in-process nodes over real sockets.  Every
    host gets the ``transport`` socket kind, or under ``mixed`` both,
    preferring UDP and TCP in turn.  A key's ``data`` is its handler."""

    def __init__(self, transport: str = "udp", bind_ip: str = "127.0.0.1") -> None:
        self.transport = transport
        self.bind_ip = bind_ip
        self._epoch = time.monotonic()
        self._timers = TimerQueue()
        self.selector = selectors.DefaultSelector()
        self.hosts: list[RealHost] = []
        self.stats: Counter = Counter()

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def call_later(self, delay: float, fn, *args) -> Timer:
        return self._timers.push(self.now + max(0.0, delay), fn, *args)

    def new_host(self) -> "RealHost":
        if self.transport != "mixed":
            transports = (self.transport,)
        elif len(self.hosts) % 2 == 0:
            transports = ("udp", "tcp")
        else:
            transports = ("tcp", "udp")
        host = RealHost(self, self.bind_ip, transports)
        self.hosts.append(host)
        return host

    def remove_host(self, host: "RealHost") -> None:
        self.hosts.remove(host)

    def run_until(self, t: float) -> None:
        """Serve timers and sockets until ``now`` reaches ``t``; each select
        waits at most until ``t`` or the next timer."""
        while (now := self.now) < t:
            due = self._timers.fire_due(now)
            wait = t if due is None else min(t, due)
            for key, mask in self.selector.select(max(0.0, wait - self.now)):
                key.data(mask)

    def close(self) -> None:
        while self.hosts:
            self.hosts[-1].shutdown()
        self.selector.close()


# ----------------------------------------------------------------------
# edges


class DatagramEdge:
    """A datagram edge: a (local host, remote ta) pair.  ``remote`` is the
    host's send key for that ta: the ta itself in the simulator, an
    ``(ip, port)`` pair for UDP.  A closed edge sends nothing."""

    __slots__ = ("host", "remote_ta", "remote", "peer_address", "state")

    def __init__(self, host: "Host", remote_ta: str, remote) -> None:
        self.host = host
        self.remote_ta = remote_ta
        self.remote = remote
        self.peer_address: int | None = None
        self.state = "open"

    def send(self, data: bytes) -> None:
        if self.state == "open":
            self.host.send_datagram(self.remote, data)

    def close(self) -> None:
        self.state = "closed"
        self.host.edges.pop(self.remote_ta, None)


class Host:
    """What the simulated and real hosts share: the network, the attached
    node, its clock and timers, one datagram edge per remote endpoint in
    ``edges``, filed under its ``format_ta`` spelling, and ``shutdown``.
    A subclass supplies ``ta`` (the address peers join through),
    ``dial``, ``local_tas`` and ``send_datagram(remote, data)``."""

    def __init__(self, network) -> None:
        self.network = network
        self.node = None
        self.edges: dict[str, DatagramEdge] = {}

    def attach(self, node) -> None:
        self.node = node

    def now(self) -> float:
        return self.network.now

    def call_later(self, delay: float, fn, *args) -> Timer:
        return self.network.call_later(delay, fn, *args)

    def shutdown(self) -> None:
        """Abrupt removal: every edge dies with no goodbye."""
        if self.node is not None:
            self.node.stop()
        self.edges.clear()
        self.network.remove_host(self)

    def datagram_edge(self, remote_ta: str, remote) -> DatagramEdge:
        """The open edge to ``remote_ta``, made on first use."""
        edge = self.edges.get(remote_ta)
        if edge is None:
            edge = self.edges[remote_ta] = DatagramEdge(self, remote_ta, remote)
        return edge


class TcpEdge:
    """One TCP connection.  ``_ready`` is its selector handler; write
    interest is on only while the connect is pending or ``tx`` holds
    bytes, and an open that takes longer than ``EDGE_OPEN_TIMEOUT``
    fails the edge."""

    def __init__(self, host: "RealHost", sock: socket.socket, remote_ta: str,
                 opening: bool) -> None:
        self.host = host
        self.sock = sock
        self.remote_ta = remote_ta
        self.peer_address = None
        self.state = "opening" if opening else "open"
        # False when the peer opened it: remote_ta is then its ephemeral port.
        self.dialed = opening
        self.rx = bytearray()
        self.tx = bytearray()
        self._open_timer = (host.call_later(EDGE_OPEN_TIMEOUT, self._fail)
                            if opening else None)
        host.network.selector.register(
            sock, selectors.EVENT_WRITE if opening else selectors.EVENT_READ,
            self._ready)
        host.tcp_edges[id(sock)] = self

    def send(self, data: bytes) -> None:
        if self.state == "closed":
            return
        if len(data) > MAX_FRAME:
            log.warning("dropping a %d-byte packet: a TCP frame holds at most "
                        "%d bytes", len(data), MAX_FRAME)
            return
        self.host.network.stats.update(datagrams=1, bytes=len(data))
        self.tx += _FRAME_LENGTH.pack(len(data))
        self.tx += data
        if self.state == "open":
            self._flush()

    def _ready(self, mask: int) -> None:
        if self.state == "opening":
            self._open_timer.cancel()
            if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._fail()
                return
            self.state = "open"
            self._flush()
            return
        if self.state == "open" and mask & selectors.EVENT_WRITE:
            self._flush()
        if self.state == "open" and mask & selectors.EVENT_READ:
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if data:
                self.feed(data)
            else:
                self.close()

    def _flush(self) -> None:
        try:
            while self.tx:
                del self.tx[:self.sock.send(self.tx)]
        except BlockingIOError:
            pass
        except OSError:
            self.close()
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.tx else 0)
        selector = self.host.network.selector
        if selector.get_key(self.sock).events != events:
            selector.modify(self.sock, events, self._ready)

    def feed(self, data: bytes) -> None:
        rx = self.rx
        rx += data
        pos = 0
        while len(rx) - pos >= 2:
            end = pos + 2 + _FRAME_LENGTH.unpack_from(rx, pos)[0]
            if len(rx) < end:
                break
            frame = bytes(rx[pos + 2:end])
            pos = end
            if self.host.node is not None:
                self.host.node.on_datagram(self, frame)
        del rx[:pos]

    def _fail(self) -> None:
        self.close()
        if self.host.node is not None:
            self.host.node.on_edge_failed(self)

    def close(self) -> None:
        if self.state == "closed":
            return
        self.state = "closed"
        if self._open_timer is not None:
            self._open_timer.cancel()
        self.host.network.selector.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
        self.host.tcp_edges.pop(id(self.sock), None)


class RealHost(Host):
    """Sockets for one node: a UDP endpoint, a TCP listener, or both, on
    loopback or a LAN address."""

    def __init__(self, network: RealNetwork, bind_ip: str,
                 transports: tuple[str, ...]) -> None:
        super().__init__(network)
        self.udp_sock = self.udp_ta = None
        self.tcp_listener = self.tcp_ta = None
        self.tcp_edges: dict[int, TcpEdge] = {}
        self.preferred = transports[0]
        if "udp" in transports:
            self.udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self.udp_sock.bind((bind_ip, 0))
            self.udp_sock.setblocking(False)
            network.selector.register(self.udp_sock, selectors.EVENT_READ,
                                      self._udp_ready)
            ip, port = self.udp_sock.getsockname()
            self.udp_ta = format_ta("udp", ip, port)
        if "tcp" in transports:
            self.tcp_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.tcp_listener.bind((bind_ip, 0))
            self.tcp_listener.listen(64)
            self.tcp_listener.setblocking(False)
            network.selector.register(self.tcp_listener, selectors.EVENT_READ,
                                      self._accept_ready)
            ip, port = self.tcp_listener.getsockname()
            self.tcp_ta = format_ta("tcp", ip, port)
        self.ta = self.local_tas()[0]

    # host interface ----------------------------------------------------

    def local_tas(self) -> list[str]:
        order = [self.udp_ta, self.tcp_ta]
        if self.preferred == "tcp":
            order.reverse()
        return [ta for ta in order if ta]

    def dial(self, ta_text: str):
        try:
            ta = parse_ta(ta_text)
            remote = (socket.gethostbyname(ta.host), ta.port)
        except (ValueError, OSError):
            return None
        ta_text = format_ta(ta.protocol, *remote)
        if ta.protocol == "udp":
            if self.udp_sock is None:
                return None
            return self.datagram_edge(ta_text, remote)
        if self.tcp_listener is None and self.udp_sock is None:
            return None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex(remote)
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            return None
        return TcpEdge(self, sock, ta_text, opening=True)

    def send_datagram(self, remote: tuple[str, int], data: bytes) -> None:
        if self.udp_sock is None:
            return
        if len(data) > UDP_SOFT_MTU:
            log.warning("UDP datagram of %d bytes exceeds the soft MTU", len(data))
        self.network.stats.update(datagrams=1, bytes=len(data))
        try:
            self.udp_sock.sendto(data, remote)
        except OSError as exc:
            log.debug("udp send failed: %s", exc)

    # selector handlers -------------------------------------------------

    def _udp_ready(self, mask: int) -> None:
        for _ in range(64):
            try:
                data, addr = self.udp_sock.recvfrom(65536)
            except OSError:
                return
            edge = self.datagram_edge(format_ta("udp", addr[0], addr[1]), addr)
            if self.node is not None:
                self.node.on_datagram(edge, data)

    def _accept_ready(self, mask: int) -> None:
        try:
            sock, addr = self.tcp_listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        TcpEdge(self, sock, format_ta("tcp", addr[0], addr[1]), opening=False)

    def shutdown(self) -> None:
        super().shutdown()
        for edge in list(self.tcp_edges.values()):
            edge.close()
        for sock in (self.udp_sock, self.tcp_listener):
            if sock is not None:
                self.network.selector.unregister(sock)
                sock.close()
        self.udp_sock = self.tcp_listener = None
