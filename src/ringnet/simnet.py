"""Seeded discrete-event network simulator.

Hosts many overlay nodes over virtual datagram endpoints with a
configurable latency model, optional loss, and per-host NAT boxes.  Two
tables find a datagram's host: plain hosts under their own ``ta`` (any
other spelling is parsed once and looked up as ``format_ta`` spells it),
and NATed hosts under their box's external IP, reached only when the box
lets the datagram in, never at their internal address.  ``SimHost.dial``
files its edge under a live plain host's ``ta`` as given and parses any
other spelling, so that aliases share one edge.  Every host is a
UDP endpoint, so a ``tcp`` address reaches none.  The event queue is the
``TimerQueue`` the real transports use too: events fire by time, then in
scheduling order, so runs are bit-deterministic for a fixed seed: same
config, same events, same metrics.  With constant latency, ``transmit``
appends each delivery to the queue's FIFO lane as one entry, ``(due,
seq, host, src_ta, data)``, which ``fire_due`` merges with the timer heap
by (due time, order) and fires as ``host._receive(src_ta, data)``; with
any other latency model the delivery goes on the heap as a timer that
calls the same ``_receive``.  Either way they fire in the same order.

Simulated time is the clock for every protocol timer; nothing here reads
the wall clock.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from random import Random

from .transport import DatagramEdge, Host, Timer, TimerQueue, format_ta, normal_ta, parse_ta


# ----------------------------------------------------------------------
# latency models


@dataclass(frozen=True)
class ConstantLatency:
    seconds: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.seconds < math.inf:
            raise ValueError("constant latency needs 0 <= seconds < inf")

    def sample(self, rng: Random, src: str, dst: str) -> float:
        return self.seconds


@dataclass(frozen=True)
class UniformLatency:
    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high < math.inf:
            raise ValueError("uniform latency needs 0 <= low <= high < inf")

    def sample(self, rng: Random, src: str, dst: str) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class SimConfig:
    seed: int = 0
    latency: object = field(default_factory=ConstantLatency)
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be a probability")


# ----------------------------------------------------------------------
# NAT model


class NatKind(enum.Enum):
    FULL_CONE = "full_cone"
    RESTRICTED_CONE = "restricted_cone"
    PORT_RESTRICTED_CONE = "port_restricted_cone"
    # Unsupported by the traversal protocol; modeled as a negative control.
    SYMMETRIC = "symmetric"


class NatBox:
    """One NAT device translating a single internal host.

    Cone kinds keep one external port per internal (ip, port) and record
    the peers the host has sent to; the symmetric kind allocates a fresh
    external port per destination, which is what defeats hole punching,
    so each of its ports has sent to exactly one peer.
    """

    def __init__(self, kind: NatKind, external_ip: str) -> None:
        self.kind = kind
        self.external_ip = external_ip
        self._next_port = 30000
        # (int_ip, int_port), symmetric (int_ip, int_port, dst_ip, dst_port)
        # -> ext_port
        self.mappings: dict[tuple, int] = {}
        # ext_port -> set of (dst_ip, dst_port) the internal host sent to
        self.permitted: dict[int, set[tuple[str, int]]] = {}

    def outbound(self, int_ip: str, int_port: int,
                 dst_ip: str, dst_port: int) -> tuple[str, int]:
        """Translate an outgoing datagram; returns the external (ip, port)."""
        if self.kind is NatKind.SYMMETRIC:
            key = (int_ip, int_port, dst_ip, dst_port)
        else:
            key = (int_ip, int_port)
        ext = self.mappings.get(key)
        if ext is None:
            ext = self.mappings[key] = self._next_port
            self._next_port += 1
            self.permitted[ext] = set()
        self.permitted[ext].add((dst_ip, dst_port))
        return self.external_ip, ext

    def inbound_allowed(self, ext_port: int, src_ip: str, src_port: int) -> bool:
        sent = self.permitted.get(ext_port)
        if sent is None:
            return False
        kind = self.kind
        if kind is NatKind.FULL_CONE:
            return True
        if kind is NatKind.RESTRICTED_CONE:
            return any(ip == src_ip for ip, _ in sent)
        # Port-restricted cone, and symmetric, whose port has sent to one
        # peer: only a peer the host sent to may answer.
        return (src_ip, src_port) in sent


# ----------------------------------------------------------------------
# simulator core


class SimNetwork:
    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()
        self.rng = Random(self.config.seed)
        self.now = 0.0
        self._timers = timers = TimerQueue()
        # Under constant latency a delivery is due ``now`` plus a fixed
        # delay, and ``now`` never decreases, so deliveries are due in the
        # order they are sent and can wait in the queue's FIFO lane.
        latency = self.config.latency
        self._lane_delay = (latency.seconds if isinstance(latency, ConstantLatency)
                            else None)
        # ``transmit`` appends to the lane and ``call_later`` to the heap itself.
        self._lane, self._seq, self._heap = timers._lane, timers._seq, timers._heap
        self._host_seq = itertools.count(1)
        # Each live host without a NAT under its own ``ta``: the spelling
        # nearly every datagram is sent to, found without parsing it.
        self.plain_tas: dict[str, "SimHost"] = {}
        self.nat_externals: dict[str, "SimHost"] = {}  # external ip -> host
        self.stats: Counter = Counter()

    # -- scheduling --

    def call_later(self, delay: float, fn, *args) -> Timer:
        timer = Timer(fn, args)
        heapq.heappush(self._heap, (self.now + max(0.0, delay), next(self._seq), timer))
        return timer

    def run_until(self, t: float) -> None:
        self._timers.fire_due(t, self)
        self.now = max(self.now, t)

    # -- topology --

    def new_host(self, nat: NatKind | None = None) -> "SimHost":
        index = next(self._host_seq)
        ip = f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"
        host = SimHost(self, ip, 7000, nat)
        if host.nat_box is not None:
            self.nat_externals[host.nat_box.external_ip] = host
        else:
            self.plain_tas[host.ta] = host
        return host

    def remove_host(self, host: "SimHost") -> None:
        if host.nat_box is not None:
            self.nat_externals.pop(host.nat_box.external_ip, None)
        else:
            self.plain_tas.pop(host.ta, None)

    # -- datagram plane --

    def transmit(self, src_host: "SimHost", dst_ta: str, data: bytes) -> None:
        stats = self.stats
        stats["datagrams"] += 1
        stats["bytes"] += len(data)
        # From a plain host, a plain host's own ta needs no parsing and no
        # translation; any other spelling, a NAT at either end, a dead host
        # or a malformed ta is parsed once and looked up again under its
        # one spelling.
        target = self.plain_tas.get(dst_ta)
        if target is not None and src_host.nat_box is None:
            visible_src = src_host.ta
        else:
            try:
                dst = parse_ta(dst_ta)
            except ValueError:
                stats["bad_destination"] += 1
                return
            target = self.plain_tas.get(format_ta(*dst))
            # Source address as the receiver will see it.
            if src_host.nat_box is not None:
                src_ip, src_port = src_host.nat_box.outbound(
                    src_host.ip, src_host.port, dst.host, dst.port)
                visible_src = format_ta("udp", src_ip, src_port)
            else:
                visible_src = src_host.ta
                src_ip, src_port = src_host.ip, src_host.port
            if target is None:
                # Only a NATed host's external mapping is left, and only for
                # a datagram its box lets in.
                target = self.nat_externals.get(dst.host)
                if target is None or dst.protocol != "udp":
                    stats["undeliverable"] += 1
                    return
                if not target.nat_box.inbound_allowed(dst.port, src_ip, src_port):
                    stats["nat_dropped"] += 1
                    return
        if self.config.loss_rate > 0.0 and self.rng.random() < self.config.loss_rate:
            stats["lost"] += 1
            return
        if self._lane_delay is not None:
            self._lane.append((self.now + self._lane_delay, next(self._seq),
                               target, visible_src, data))
            return
        delay = self.config.latency.sample(self.rng, src_host.ip, target.ip)
        # call_later without its frame: the same (due time, order) entry.
        self._timers.push(self.now + max(0.0, delay), target._receive, visible_src, data)


class SimEdge(DatagramEdge):
    """A datagram edge whose ``send`` is one call of ``transmit``."""

    __slots__ = ()

    def send(self, data: bytes) -> None:
        if self.state == "open":
            self.host.network.transmit(self.host, self.remote, data)


class SimHost(Host):
    """One simulated endpoint; each of its datagram edges is a ``SimEdge``."""

    edge_class = SimEdge

    def __init__(self, network: SimNetwork, ip: str, port: int,
                 nat: NatKind | None) -> None:
        super().__init__(network)
        self.ip = ip
        self.port = port
        if nat is not None:
            ext_index = ip.split(".")[1:]
            self.nat_box: NatBox | None = NatBox(nat, "172." + ".".join(ext_index))
        else:
            self.nat_box = None
        self.ta = format_ta("udp", ip, port)

    # host interface ----------------------------------------------------

    def dial(self, ta: str) -> DatagramEdge | None:
        # A live plain host's own ta is spelled as format_ta spells it.
        if ta not in self.network.plain_tas:
            try:
                ta = normal_ta(ta)
            except ValueError:
                return None
        return self.datagram_edge(ta, ta)

    def local_tas(self) -> list[str]:
        return [self.ta]

    # plumbing ----------------------------------------------------------

    def _receive(self, src_ta: str, data: bytes) -> None:
        node = self.node
        if node is None:
            return
        edge = self.edges.get(src_ta)
        if edge is None:
            edge = self.datagram_edge(src_ta, src_ta)
        node.on_datagram(edge, data)
