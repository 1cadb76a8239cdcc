"""Real transports behind the same edge interface the simulator uses.

Transport addresses are written ``<namespace>.<proto>:host:port``; the
namespace tag is free-form (parsing is liberal, and a bare
``udp:host:port`` is accepted too), output is normalized to the ``ring``
namespace with a lowercase scheme.

Wire rules:

* UDP: one encoded packet per datagram; the datagram boundary supplies
  the packet length and the UDP checksum covers integrity.
* TCP: packets are framed with a 2-octet big-endian length prefix, so a
  framed packet (header plus payload) may be at most 65535 bytes.

The ``RealNetwork`` event loop drives any number of in-process nodes
over loopback or LAN sockets from a single thread, delivering each
node's events serially, which mirrors the simulator's execution model.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import logging
import select
import socket
import struct
import time
from dataclasses import dataclass

log = logging.getLogger(__name__)

TA_NAMESPACE = "ring"
MAX_FRAME = 0xFFFF
UDP_SOFT_MTU = 1400
EDGE_OPEN_TIMEOUT = 5.0


class MalformedTA(ValueError):
    pass


@dataclass(frozen=True)
class TransportAddress:
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
    try:
        port = int(port_text)
    except ValueError:
        raise MalformedTA(f"bad port in {text!r}")
    if not 1 <= port <= 65535:
        raise MalformedTA(f"port out of range in {text!r}")
    return TransportAddress(proto, host, port)


def format_ta(protocol: str, host: str, port: int) -> str:
    return f"{TA_NAMESPACE}.{protocol.lower()}:{host}:{port}"


# ----------------------------------------------------------------------
# timers, shared with the simulator


class Timer:
    """A callback waiting in a ``TimerQueue``; ``cancel()`` stops it firing."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class TimerQueue:
    """Timers in due order; timers due at the same time fire in the order
    they were scheduled, which keeps simulated runs deterministic."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()

    def push(self, when: float, fn) -> Timer:
        timer = Timer(fn)
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        return timer

    def fire_due(self, until: float, clock=None) -> float | None:
        """Fire every timer due by ``until``, the ones they schedule too, and
        return the next due time.  A ``clock``'s ``now`` is set to each due
        time in turn, cancelled timers' included."""
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= until:
            when, _, timer = pop(heap)
            if clock is not None:
                clock.now = when
            if not timer.cancelled:
                timer.fn()
        return heap[0][0] if heap else None


# ----------------------------------------------------------------------
# event loop


class RealNetwork:
    """select()-based loop hosting in-process nodes over real sockets."""

    def __init__(self) -> None:
        self._timers = TimerQueue()
        self.hosts: list[RealHost] = []

    def now(self) -> float:
        return time.monotonic()

    def call_later(self, delay: float, fn) -> Timer:
        return self._timers.push(self.now() + max(0.0, delay), fn)

    def new_host(self, transports: tuple[str, ...] = ("udp",),
                 bind_ip: str = "127.0.0.1") -> "RealHost":
        host = RealHost(self, bind_ip, transports)
        self.hosts.append(host)
        return host

    def _fire_due_timers(self) -> float:
        due = self._timers.fire_due(self.now())
        if due is None:
            return 0.05
        return max(0.0, min(0.05, due - self.now()))

    def poll(self) -> None:
        timeout = self._fire_due_timers()
        readers: dict[socket.socket, tuple] = {}
        writers: dict[socket.socket, tuple] = {}
        for host in self.hosts:
            host.register(readers, writers)
        if not readers and not writers:
            time.sleep(timeout)
            return
        rlist, wlist, _ = select.select(list(readers), list(writers), [], timeout)
        for sock in wlist:
            owner, tag = writers[sock]
            owner.on_writable(tag)
        for sock in rlist:
            owner, tag = readers[sock]
            owner.on_readable(tag)

    def run_until(self, predicate, timeout: float) -> bool:
        deadline = self.now() + timeout
        while self.now() < deadline:
            if predicate():
                return True
            self.poll()
        return predicate()

    def run_for(self, duration: float) -> None:
        deadline = self.now() + duration
        while self.now() < deadline:
            self.poll()

    def close(self) -> None:
        for host in self.hosts:
            host.close()


# ----------------------------------------------------------------------
# edges


class UdpEdge:
    __slots__ = ("host", "remote_ta", "local_ta", "peer_address", "state",
                 "dialed", "_remote")

    def __init__(self, host: "RealHost", remote_ta: str,
                 remote: tuple[str, int], dialed: bool = True) -> None:
        self.host = host
        self.remote_ta = remote_ta
        self.local_ta = host.udp_ta
        self.peer_address = None
        self.state = "open"
        self.dialed = dialed
        self._remote = remote

    def send(self, data: bytes) -> None:
        if self.state != "open" or self.host.udp_sock is None:
            return
        if len(data) > UDP_SOFT_MTU:
            log.warning("UDP datagram of %d bytes exceeds the soft MTU", len(data))
        try:
            self.host.udp_sock.sendto(data, self._remote)
        except OSError as exc:
            log.debug("udp send failed: %s", exc)

    def close(self) -> None:
        self.state = "closed"
        self.host.udp_edges.pop(self.remote_ta, None)


class TcpEdge:
    def __init__(self, host: "RealHost", sock: socket.socket, remote_ta: str,
                 opening: bool) -> None:
        self.host = host
        self.sock = sock
        self.remote_ta = remote_ta
        self.local_ta = host.tcp_ta
        self.peer_address = None
        self.state = "opening" if opening else "open"
        self.dialed = opening
        self.rx = b""
        self.tx = b""
        self.open_deadline = host.network.now() + EDGE_OPEN_TIMEOUT

    def send(self, data: bytes) -> None:
        if self.state == "closed":
            return
        if len(data) > MAX_FRAME:
            raise ValueError(f"packet of {len(data)} bytes exceeds the "
                             f"{MAX_FRAME}-byte frame limit")
        self.tx += struct.pack(">H", len(data)) + data
        if self.state == "open":
            self._flush()

    def _flush(self) -> None:
        while self.tx:
            try:
                n = self.sock.send(self.tx)
            except BlockingIOError:
                return
            except OSError:
                self.close()
                return
            self.tx = self.tx[n:]

    def on_connected(self) -> None:
        self.state = "open"
        self._flush()

    def feed(self, data: bytes) -> None:
        self.rx += data
        while len(self.rx) >= 2:
            size = struct.unpack(">H", self.rx[:2])[0]
            if len(self.rx) < 2 + size:
                return
            frame = self.rx[2:2 + size]
            self.rx = self.rx[2 + size:]
            if self.host.node is not None:
                self.host.node.on_datagram(self, frame)

    def close(self) -> None:
        if self.state == "closed":
            return
        self.state = "closed"
        try:
            self.sock.close()
        except OSError:
            pass
        self.host.tcp_edges.pop(id(self.sock), None)


class RealHost:
    """Sockets and timers for one node: a UDP endpoint, a TCP listener,
    or both, on loopback or a LAN address."""

    def __init__(self, network: RealNetwork, bind_ip: str,
                 transports: tuple[str, ...]) -> None:
        self.network = network
        self.node = None
        self.udp_sock = None
        self.udp_ta = None
        self.udp_edges: dict[str, UdpEdge] = {}
        self.tcp_listener = None
        self.tcp_ta = None
        self.tcp_edges: dict[int, TcpEdge] = {}
        self.preferred = transports[0]
        if "udp" in transports:
            self.udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self.udp_sock.bind((bind_ip, 0))
            self.udp_sock.setblocking(False)
            ip, port = self.udp_sock.getsockname()
            self.udp_ta = format_ta("udp", ip, port)
        if "tcp" in transports:
            self.tcp_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.tcp_listener.bind((bind_ip, 0))
            self.tcp_listener.listen(64)
            self.tcp_listener.setblocking(False)
            ip, port = self.tcp_listener.getsockname()
            self.tcp_ta = format_ta("tcp", ip, port)

    # host interface ----------------------------------------------------

    def now(self) -> float:
        return self.network.now()

    def call_later(self, delay: float, fn) -> Timer:
        return self.network.call_later(delay, fn)

    def local_tas(self) -> list[str]:
        order = [self.udp_ta, self.tcp_ta]
        if self.preferred == "tcp":
            order.reverse()
        return [ta for ta in order if ta]

    def dial(self, ta_text: str):
        try:
            ta = parse_ta(ta_text)
        except MalformedTA:
            return None
        if ta.protocol == "udp":
            if self.udp_sock is None:
                return None
            edge = self.udp_edges.get(ta_text)
            if edge is None:
                edge = UdpEdge(self, ta_text, (ta.host, ta.port))
                self.udp_edges[ta_text] = edge
            return edge
        if self.tcp_listener is None and self.udp_sock is None:
            return None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex((ta.host, ta.port))
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            return None
        edge = TcpEdge(self, sock, ta_text, opening=True)
        self.tcp_edges[id(sock)] = edge
        return edge

    def attach(self, node) -> None:
        self.node = node

    # loop integration ----------------------------------------------------

    def register(self, readers: dict, writers: dict) -> None:
        if self.udp_sock is not None:
            readers[self.udp_sock] = (self, ("udp",))
        if self.tcp_listener is not None:
            readers[self.tcp_listener] = (self, ("accept",))
        now = self.network.now()
        for edge in list(self.tcp_edges.values()):
            if edge.state == "opening":
                if now > edge.open_deadline:
                    edge.close()
                    if self.node is not None:
                        self.node.on_edge_failed(edge)
                    continue
                writers[edge.sock] = (self, ("connect", edge))
            elif edge.state == "open":
                readers[edge.sock] = (self, ("tcp", edge))
                if edge.tx:
                    writers[edge.sock] = (self, ("flush", edge))

    def on_readable(self, tag) -> None:
        kind = tag[0]
        if kind == "udp":
            for _ in range(64):
                try:
                    data, addr = self.udp_sock.recvfrom(65536)
                except BlockingIOError:
                    return
                except OSError:
                    return
                ta_text = format_ta("udp", addr[0], addr[1])
                edge = self.udp_edges.get(ta_text)
                if edge is None:
                    edge = UdpEdge(self, ta_text, addr)
                    self.udp_edges[ta_text] = edge
                if self.node is not None:
                    self.node.on_datagram(edge, data)
        elif kind == "accept":
            try:
                sock, addr = self.tcp_listener.accept()
            except OSError:
                return
            sock.setblocking(False)
            edge = TcpEdge(self, sock, format_ta("tcp", addr[0], addr[1]),
                           opening=False)
            self.tcp_edges[id(sock)] = edge
        elif kind == "tcp":
            edge = tag[1]
            try:
                data = edge.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                edge.close()
                return
            if not data:
                edge.close()
                return
            edge.feed(data)

    def on_writable(self, tag) -> None:
        kind = tag[0]
        edge = tag[1] if len(tag) > 1 else None
        if kind == "connect":
            err = edge.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                edge.close()
                if self.node is not None:
                    self.node.on_edge_failed(edge)
            else:
                edge.on_connected()
        elif kind == "flush":
            edge._flush()

    def close(self) -> None:
        if self.node is not None:
            self.node.stop()
        for edge in list(self.tcp_edges.values()):
            edge.close()
        if self.udp_sock is not None:
            self.udp_sock.close()
            self.udp_sock = None
        if self.tcp_listener is not None:
            self.tcp_listener.close()
            self.tcp_listener = None
