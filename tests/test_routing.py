"""Next-hop decision tests, including walk-level behavior on small rings."""

from random import Random

from hypothesis import example, given, settings, strategies as st

from ringnet.address import (
    Direction,
    HALF_MODULUS,
    MODULUS,
    directed_distance,
    ring_distance,
)
from ringnet.routing import (
    _best_two,
    annealing_next_hop,
    directional_next_hop,
    greedy_next_hop,
)

CW = Direction.CLOCKWISE
CCW = Direction.COUNTERCLOCKWISE


def spaced_ring(n: int) -> list[int]:
    step = MODULUS // n
    return [i * step for i in range(n)]


def ring_adjacency(ring: list[int], per_side: int = 1) -> dict[int, tuple[int, ...]]:
    """Each node's peers within per_side ring steps, as a sorted ring."""
    n = len(ring)
    adj: dict[int, set[int]] = {a: set() for a in ring}
    for i, a in enumerate(ring):
        for step in range(1, per_side + 1):
            for j in (i + step, i - step):
                b = ring[j % n]
                if b != a:
                    adj[a].add(b)
                    adj[b].add(a)
    return {a: tuple(sorted(peers)) for a, peers in adj.items()}


def greedy_decision(v, ring, prev, target):
    """greedy_next_hop as a (deliver, next_hop) pair, for the walks
    annealing shares."""
    hop = greedy_next_hop(v, ring, prev, target)
    return hop is None, hop


def walk(adj, source, target, decide):
    """Follow (deliver, next_hop) decisions from source; returns
    (delivered set, path).

    Annealing can fork on a deliver-and-forward, so the walk carries a
    work list of (node, prev, hops) and a hop budget.
    """
    delivered = []
    path = [source]
    work = [(source, None, 0)]
    budget = 4 * len(adj) + 8
    while work:
        current, prev, hops = work.pop()
        if hops > budget:
            raise AssertionError("walk exceeded hop budget")
        deliver, next_hop = decide(current, adj[current], prev, target)
        if deliver:
            delivered.append(current)
        if next_hop is not None:
            path.append(next_hop)
            work.append((next_hop, current, hops + 1))
    return delivered, path


# ----------------------------------------------------------------------
# greedy


def test_greedy_delivers_when_local_argmin():
    v = 100
    ring = [5000, 9000]
    target = 90
    assert greedy_next_hop(v, ring, None, target) is None


def test_greedy_forwards_to_exact_neighbor():
    assert greedy_next_hop(100, [40, 70], None, 70) == 70


def test_greedy_eight_node_ring_route_to_antipode():
    ring = spaced_ring(8)
    adj = ring_adjacency(ring, per_side=1)
    target = ring[4]
    delivered, path = walk(adj, ring[0], target, greedy_decision)
    # Nearest-neighbor edges only: the walk crosses nodes 1, 2, 3 in order.
    assert path == [ring[0], ring[1], ring[2], ring[3], ring[4]]
    assert delivered == [target]
    distances = [ring_distance(a, target) for a in path]
    assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))


@given(st.integers(0, MODULUS - 1), st.sets(st.integers(0, MODULUS - 1),
                                            min_size=1, max_size=12),
       st.integers(0, MODULUS - 1))
def test_greedy_forward_strictly_improves(v, adj, target):
    adj.discard(v)
    hop = greedy_next_hop(v, sorted(adj), None, target)
    if hop is not None:
        assert ring_distance(hop, target) < ring_distance(v, target)


@st.composite
def tied_adjacencies(draw):
    """(v, adjacency, target), the adjacency holding exact distance ties:
    two candidates at target ± d, and the neighbor at v's own distance
    on the other side of the target."""
    address = st.one_of(st.sampled_from([0, 1, HALF_MODULUS, MODULUS - 1]),
                        st.integers(0, MODULUS - 1))
    v, target = draw(address), draw(address)
    d = draw(st.one_of(st.sampled_from([0, 1, HALF_MODULUS]),
                       st.integers(0, HALF_MODULUS)))
    adj = {(target + d) % MODULUS, (target - d) % MODULUS,
           (2 * target - v) % MODULUS}
    adj |= draw(st.sets(address, max_size=6))
    adj.discard(v)
    return v, sorted(adj), target


@given(tied_adjacencies())
def test_best_two_matches_sorted_reference(case):
    v, adj, target = case
    ranked = sorted(set(adj) | {v}, key=lambda u: (ring_distance(u, target), u != v, u))
    assert _best_two(v, adj, target) == (ranked[0], ranked[1] if len(ranked) > 1 else None)


@st.composite
def ring_cases(draw):
    """(v, sorted ring of 0-40 addresses without v, target, skip, prev).
    Ties at target ± d and at the mirror of v, clusters around the target
    and around v, and targets near 0 and MODULUS - 1 where the ring wraps.
    skip comes from the ring, is v, or is neither; prev is a peer or None."""
    edge = st.one_of(st.integers(0, 6), st.integers(MODULUS - 6, MODULUS - 1))
    address = st.one_of(edge, st.sampled_from([HALF_MODULUS, HALF_MODULUS + 1]),
                        st.integers(0, MODULUS - 1))
    v, target = draw(address), draw(address)
    d = draw(st.one_of(st.sampled_from([0, 1, HALF_MODULUS]),
                       st.integers(0, HALF_MODULUS)))
    near = st.integers(-6, 6)
    ring = set(draw(st.lists(st.one_of(address,
                                       near.map(lambda x: (target + x) % MODULUS),
                                       near.map(lambda x: (v + x) % MODULUS)),
                             max_size=37)))
    if draw(st.booleans()):
        ring |= {(target + d) % MODULUS, (target - d) % MODULUS,
                 (2 * target - v) % MODULUS}
    ring.discard(v)
    ring = sorted(ring)
    # A skip or prev among the peers nearest the target is the one that
    # matters.
    nearest = sorted(ring, key=lambda u: ring_distance(u, target))[:4]
    skip = draw(st.one_of(st.sampled_from(nearest) if ring else st.nothing(),
                          st.sampled_from(ring) if ring else st.nothing(),
                          st.just(v), st.none(), address))
    prev = draw(st.one_of(st.sampled_from(nearest) if ring else st.nothing(),
                          st.sampled_from(ring) if ring else st.nothing(),
                          st.none()))
    return v, ring, target, skip, prev


@settings(max_examples=300, deadline=None)
@given(ring_cases())
# The two closest after skip are the second and third clockwise of the
# target, the ring wrapping between them (a two-per-side window fails).
@example((HALF_MODULUS, sorted([MODULUS - 2, MODULUS - 1, 0, 2 ** 100, 2 ** 101,
                                2 ** 102, 2 ** 103]), MODULUS - 3, MODULUS - 2, None))
# An empty ring, and a one-peer ring whose only peer is skip.
@example((5, [], 9, None, None))
@example((5, [9], 9, 9, None))
# Two peers, skip one: both flanks of the target are the other.
@example((HALF_MODULUS, [10, 20], 15, 10, None))
@example((HALF_MODULUS, [10, 20], 15, 20, None))
# A target at a peer's address, and that peer as prev.
@example((HALF_MODULUS, [10, 20, 30], 20, None, None))
@example((HALF_MODULUS, [10, 20, 30], 20, None, 20))
# Peers at target ± d, also across 0: the smaller address wins.
@example((HALF_MODULUS, [90, 110], 100, None, None))
@example((HALF_MODULUS, [5, MODULUS - 5], 0, None, None))
# v tied with a peer on either side of the target: v wins.
@example((90, [110], 100, None, None))
@example((110, [90], 100, None, None))
def test_sorted_ring_deciders_match_brute_force(case):
    v, ring, target, skip, prev = case
    others = set(ring) - {skip}
    ranked = sorted(others | {v}, key=lambda u: (ring_distance(u, target), u != v, u))
    assert _best_two(v, ring, target, skip) == (
        ranked[0], ranked[1] if len(ranked) > 1 else None)
    assert greedy_next_hop(v, ring, prev, target, skip) == (
        None if ranked[0] in (v, prev) else ranked[0])
    if ranked[0] not in (v, prev):
        annealed = (False, ranked[0])
    elif len(ranked) > 1 and ranked[1] not in (v, prev):
        annealed = (True, ranked[1])
    else:
        annealed = (True, None)
    assert annealing_next_hop(v, ring, prev, target, skip) == annealed
    for direction in (CW, CCW):
        expected = ((False, min(others, key=lambda u: directed_distance(v, u, direction)))
                    if others else (False, None))
        assert directional_next_hop(v, ring, direction, 0, 1, skip) == expected
        assert directional_next_hop(v, ring, direction, 1, 1, skip) == (True, None)


def test_greedy_does_not_bounce_back_to_prev():
    # prev is strictly closer to the target than v, so the argmin is prev;
    # the guard turns that into local delivery instead of a loop.
    v, prev, target = 1000, 900, 800
    assert greedy_next_hop(v, [prev], prev, target) is None


# ----------------------------------------------------------------------
# annealing


def test_annealing_dual_delivery_at_local_minimum():
    # v is the closest, a valid second-best neighbor exists.
    v = 1000
    adj = [1300, 5000]
    target = 1001
    assert annealing_next_hop(v, adj, None, target) == (True, 1300)


def test_annealing_matches_greedy_when_a_closer_neighbor_exists():
    rng = Random(3)
    for _ in range(500):
        v = rng.getrandbits(160)
        adj = {rng.getrandbits(160) for _ in range(rng.randrange(1, 8))}
        adj.discard(v)
        ring = sorted(adj)
        target = rng.getrandbits(160)
        g = greedy_next_hop(v, ring, None, target)
        if g is not None:
            assert annealing_next_hop(v, ring, None, target) == (False, g)


def test_annealing_first_hop_may_move_away():
    # At the source every neighbor is farther from the target; annealing
    # still pushes a copy outward while greedy stops immediately.
    v = 1000
    adj = [2000]
    target = 999
    assert greedy_next_hop(v, adj, None, target) is None
    assert annealing_next_hop(v, adj, None, target) == (True, 2000)


def test_annealing_broken_ring_delivers_both_gap_endpoints():
    # Remove the near edge between nodes 3 and 4 and route toward an
    # address inside the gap: greedy always delivers at exactly one node,
    # annealing reaches both endpoints for sources across the gap.
    ring = spaced_ring(8)
    gap = {ring[3], ring[4]}
    adj = {a: tuple(b for b in peers if {a, b} != gap)
           for a, peers in ring_adjacency(ring, per_side=2).items()}
    target = ring[3] + 3 * (MODULUS // 32)  # in the gap, nearer node 4

    both_endpoints = 0
    for source in ring:
        g_delivered, _ = walk(adj, source, target, greedy_decision)
        assert len(set(g_delivered)) == 1
        assert set(g_delivered) <= {ring[3], ring[4]}
        a_delivered, _ = walk(adj, source, target, annealing_next_hop)
        assert set(g_delivered) <= set(a_delivered)
        # Over-delivery stays local to the gap neighborhood.
        assert len(set(a_delivered)) <= 3
        if {ring[3], ring[4]} <= set(a_delivered):
            both_endpoints += 1
    assert both_endpoints >= len(ring) // 2


# ----------------------------------------------------------------------
# directional


def test_directional_delivers_when_hops_reach_ttl():
    assert directional_next_hop(0, [5], CW, 2, 2) == (True, None)


def test_directional_one_hop_reaches_immediate_neighbor():
    ring = spaced_ring(8)
    adj = ring_adjacency(ring, per_side=2)
    assert directional_next_hop(ring[2], adj[ring[2]], CW, 0, 1) == (False, ring[3])
    assert directional_next_hop(ring[2], adj[ring[2]], CCW, 0, 1) == (False, ring[1])


def test_directional_drop_when_isolated():
    assert directional_next_hop(0, [], CW, 0, 3) == (False, None)


def directional_walk(adj, source, direction, ttl):
    current, hops = source, 0
    visited = [source]
    while True:
        deliver, next_hop = directional_next_hop(current, adj[current], direction,
                                                 hops, ttl)
        if deliver:
            assert next_hop is None
            return current, visited
        assert next_hop is not None
        current = next_hop
        visited.append(current)
        hops += 1


def test_directional_full_loop_returns_to_sender():
    # ttl=1 lands on the immediate clockwise neighbor (checked above), so
    # ttl=n walks every node once and ends back at the origin.
    for n in (5, 8, 12):
        ring = spaced_ring(n)
        adj = ring_adjacency(ring, per_side=2)
        delivered, visited = directional_walk(adj, ring[0], CW, n)
        assert delivered == ring[0]
        assert visited == ring + [ring[0]]
        delivered, visited = directional_walk(adj, ring[0], CCW, n)
        assert delivered == ring[0]
        assert visited == [ring[0]] + ring[:0:-1] + [ring[0]]
