"""Next-hop decision rules for the ring.

Each decider is a pure function of the local address, an adjacency
snapshot (the structured peers of the deciding node), the previous hop,
and the target.  Two destination-based modes share the same argmin core
over ``adj ∪ {v}`` with ring distance to the target:

* greedy     - forward only to a strictly closer neighbor, otherwise the
               packet has arrived and is delivered here;
* annealing  - like greedy, but at a local minimum the packet is both
               delivered here and passed to the second-closest candidate,
               so the first hop may move away from the target.  This is
               what lets join traffic land on both sides of a gap in a
               damaged ring.

Direction-based routing ignores the target value entirely: the packet
walks hop by hop in a fixed direction and is delivered when its hop
count reaches its ttl.

Distance ties break toward the numerically smaller address, with the
deciding node winning ties against its neighbors, which makes every
decision deterministic for a given input.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

from .address import HALF_MODULUS, MODULUS, Direction, directed_distance


class DecisionKind(enum.Enum):
    FORWARD = "forward"
    DELIVER_LOCAL = "deliver_local"
    DELIVER_AND_FORWARD = "deliver_and_forward"
    DROP = "drop"


class Decision(NamedTuple):
    kind: DecisionKind
    next_hop: int | None = None


DELIVER_LOCAL = Decision(DecisionKind.DELIVER_LOCAL)
DROP = Decision(DecisionKind.DROP)


def forward(next_hop: int) -> Decision:
    return Decision(DecisionKind.FORWARD, next_hop)


def deliver_and_forward(next_hop: int) -> Decision:
    return Decision(DecisionKind.DELIVER_AND_FORWARD, next_hop)


def _best_two(v: int, adj: Iterable[int], target: int) -> tuple[int, int | None]:
    """Closest and second-closest of ``adj ∪ {v}`` to target.

    Ordering key is (distance, candidate-is-not-v, address), so v wins
    ties with neighbors and neighbor ties go to the smaller address.
    This is the hot loop of every routed hop, so the ring distance is
    computed inline and a candidate is held as its distance and a tie
    key: its address, or -1 for v, which orders v before any neighbor
    at the same distance.
    """
    d = (v - target) % MODULUS
    best_d = d if d <= HALF_MODULUS else MODULUS - d
    best = -1
    second_d = second = None
    for u in adj:
        d = (u - target) % MODULUS
        if d > HALF_MODULUS:
            d = MODULUS - d
        if d < best_d or (d == best_d and u < best):
            second_d, second = best_d, best
            best_d, best = d, u
        elif second is None or d < second_d or (d == second_d and u < second):
            second_d, second = d, u
    return (v if best == -1 else best), (v if second == -1 else second)


def greedy_next_hop(v: int, adj: Iterable[int], prev: int | None, target: int) -> Decision:
    u_min, _ = _best_two(v, adj, target)
    if u_min != v and u_min != prev:
        return forward(u_min)
    return DELIVER_LOCAL


def annealing_next_hop(v: int, adj: Iterable[int], prev: int | None, target: int) -> Decision:
    u_min, u_sec = _best_two(v, adj, target)
    if u_min != v and u_min != prev:
        return forward(u_min)
    if u_sec is not None and u_sec != v and u_sec != prev:
        return deliver_and_forward(u_sec)
    return DELIVER_LOCAL


def directional_next_hop(v: int, adj: Iterable[int], direction: Direction,
                         hops: int, ttl: int) -> Decision:
    if hops >= ttl:
        return DELIVER_LOCAL
    best = None
    for u in adj:
        key = (directed_distance(v, u, direction), u)
        if best is None or key < best:
            best = key
    if best is None:
        return DROP
    return forward(best[1])
