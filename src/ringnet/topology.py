"""Topology construction helpers.

Two kinds of builders live here: pure snapshot synthesis (an ideal ring
with law-distributed shortcuts, used for routing experiments and as a
test oracle) and constructive seeding of live simulator nodes in an
already-converged state, which is how large "correct ring" starting
points for failure and merge scenarios are produced without paying for
a full protocol bootstrap.

A shortcut's endpoint is the node nearest the offset its requester
drew, and only the two nodes that flank the offset can be nearest, as in
greedy routing (see ``routing``).  Every other node is farther clockwise
than the first node at or clockwise of the offset, and farther
counterclockwise than the one before it (or than the first, when it is
on the offset), so it is strictly farther than the nearer of the two.
For the same reason the first can be nearest only clockwise and the one
before it only counterclockwise, so ``closest_index`` compares just
those two distances.
"""

from __future__ import annotations

from bisect import bisect_left
from random import Random

from .address import MODULUS, random_class0
from .connections import Connection, NEAR, NEAR_PER_SIDE, SHORTCUT
from .metrics import NEAR_LABEL, SHORTCUT_LABEL, TopologySnapshot
from .node import NodeState, OverlayConfig, sample_shortcut_distance
from .simnet import SimNetwork


def ring_addresses(n: int, rng: Random) -> list[int]:
    """n distinct random ring addresses, sorted."""
    seen: set[int] = set()
    while len(seen) < n:
        seen.add(random_class0(rng))
    return sorted(seen)


def closest_index(ring: list[int], target: int) -> int:
    """Index of the ring address nearest target (symmetric metric), ties
    to the smaller address: ``ring[i]`` clockwise or ``ring[i - 1]``
    counterclockwise of target (see the module docstring)."""
    n = len(ring)
    i = bisect_left(ring, target) % n
    j = i - 1 if i else n - 1
    after, before = ring[i], ring[j]
    d_after = (after - target) % MODULUS
    d_before = (target - before) % MODULUS
    if d_before < d_after or (d_before == d_after and before < after):
        return j
    return i


def _near_pairs(ring: list[int]):
    """Yield (ring[i], ring[i + step]) for each node and each step up to
    ``NEAR_PER_SIDE``, in order, skipping a tiny ring's self pairs."""
    for i, a in enumerate(ring):
        for step in range(1, NEAR_PER_SIDE + 1):
            b = ring[(i + step) % len(ring)]
            if a != b:
                yield a, b


def law_shortcut_edges(ring: list[int], k: int, rng_of):
    """Yield k clockwise shortcuts per node with 1/d-distributed offsets,
    drawn from ``rng_of(node)``.

    Edges are oriented (requester, endpoint).  Draws that resolve to the
    requester itself are redrawn.
    """
    d_ave = MODULUS // len(ring)
    for a in ring:
        rng = rng_of(a)
        made = 0
        guard = 0
        while made < k and guard < 50 * k:
            guard += 1
            d = sample_shortcut_distance(d_ave, rng)
            b = ring[closest_index(ring, (a + d) % MODULUS)]
            if b == a:
                continue
            yield a, b
            made += 1


def synthetic_snapshot(n: int, k: int, seed: int) -> TopologySnapshot:
    """A converged-looking snapshot built directly from the laws."""
    rng = Random(seed)
    ring = ring_addresses(n, rng)
    edges: list[tuple[int, int, str]] = []
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in _near_pairs(ring)}):
        edges.append((a, b, NEAR_LABEL))
    for a, b in law_shortcut_edges(ring, k, lambda a: rng):
        edges.append((a, b, SHORTCUT_LABEL))
    return TopologySnapshot(0.0, tuple(ring), tuple(edges))


# ----------------------------------------------------------------------
# live seeding


def install_connection(node_a: NodeState, node_b: NodeState, roles: set[str],
                       initiator: NodeState | None = None,
                       sampled_gap: int | None = None) -> None:
    """Wire an established connection between two live simulator nodes."""
    now = node_a.host.network.now
    for me, other in ((node_a, node_b), (node_b, node_a)):
        edge = me.host.dial(other.host.ta)
        edge.peer_address = other.address
        conn = me.table.get(other.address)
        if conn is None:
            conn = Connection(other.address, edge, frozenset(roles),
                              (other.host.ta,), now, now)
            me.table.add(conn)
        else:
            for role in roles:
                me.table.add_role(conn, role)
        if SHORTCUT in roles and initiator is me:
            me.table.set_initiated_shortcut(conn, True, sampled_gap)


def seed_ring(network: SimNetwork, n: int, rng: Random,
              overlay: OverlayConfig, k: int | None = None,
              addresses: list[int] | None = None) -> dict[int, NodeState]:
    """Create n nodes pre-wired into a correct ring, keyed by address.

    Near links follow the per-side rule; when k is given each node also
    holds k law-distributed shortcuts, sampled against the true mean gap
    with the node's own rng.
    """
    ring = sorted(addresses) if addresses else ring_addresses(n, rng)
    nodes: dict[int, NodeState] = {}
    for a in ring:
        host = network.new_host()
        node = NodeState(a, host, overlay, Random(rng.getrandbits(64)))
        node.joined = True
        host.attach(node)
        nodes[a] = node
    for a, b in _near_pairs(ring):
        install_connection(nodes[a], nodes[b], {NEAR})
    if k:
        d_ave = MODULUS // len(ring)
        for a, b in law_shortcut_edges(ring, k, lambda a: nodes[a].rng):
            install_connection(nodes[a], nodes[b], {SHORTCUT},
                               initiator=nodes[a], sampled_gap=d_ave)
    for node in nodes.values():
        node._update_gap_ewma()
    return nodes
