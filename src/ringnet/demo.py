"""Loopback demo: a small ring of in-process nodes over real sockets."""

from __future__ import annotations

import time
from random import Random

from .metrics import ring_correct
from .node import NodeState, OverlayConfig
from .scenarios import take_snapshot
from .transport import RealNetwork


def demo_overlay_config() -> OverlayConfig:
    # Wall-clock runs want snappier timers than the simulator defaults.
    return OverlayConfig(tick_interval=0.25, status_interval=2.0,
                         handshake_timeout=0.25, join_retry_timeout=1.5,
                         push_status_debounce=0.05, k_shortcuts=2)


def run_loopback_demo(n: int, transport: str = "udp", budget: float = 60.0,
                      seed: int = 7) -> tuple[float, float]:
    """Bootstrap n loopback nodes; returns (ring_correct fraction, seconds)."""
    rng = Random(seed)
    net = RealNetwork()
    config = demo_overlay_config()
    nodes: list[NodeState] = []
    started = time.monotonic()
    try:
        for i in range(n):
            if transport == "mixed":
                transports = ("udp", "tcp") if i % 2 == 0 else ("tcp", "udp")
            else:
                transports = (transport,)
            host = net.new_host(transports=transports)
            addr = rng.getrandbits(160) & ((1 << 160) - 2)
            node = NodeState(addr, host, config, Random(rng.getrandbits(64)))
            host.attach(node)
            nodes.append(node)
            if i == 0:
                node.joined = True
            else:
                proxy = nodes[rng.randrange(i)]
                node.start_join(proxy.host.local_tas()[0])

        def converged() -> bool:
            _, fraction = ring_correct(take_snapshot(nodes, net.now()))
            return fraction >= 1.0

        net.run_until(converged, timeout=budget)
        _, fraction = ring_correct(take_snapshot(nodes, net.now()))
        return fraction, time.monotonic() - started
    finally:
        net.close()
