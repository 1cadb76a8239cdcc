"""Next-hop decision rules for the ring.

Each decider is a pure function of the local address ``v``, the
structured peers of the deciding node as a **sorted ring** (a sequence
of addresses in ascending order, not holding ``v``), the previous hop,
and the target.  ``skip`` names one address the decision must not pick:
the packet's source, which a packet never revisits; it may be absent
from the ring or be ``v`` itself, and then excludes nothing.  Two
destination-based modes rank ``(ring - {skip}) ∪ {v}`` by ring
distance to the target:

* greedy     - forward only to a strictly closer neighbor, otherwise the
               packet has arrived and is delivered here;
* annealing  - like greedy, but at a local minimum the packet is both
               delivered here and passed to the second-closest candidate,
               so the first hop may move away from the target.  This is
               what lets join traffic land on both sides of a gap in a
               damaged ring.

Going clockwise from the target, ring distance rises until the
antipode, so every peer that precedes a peer ``p`` clockwise is strictly
closer than ``p`` when ``p`` lies on the clockwise half; the same holds
counterclockwise.  The closest peer is therefore the first one on its
own side of the target, and greedy reads only the two peers that flank
the target, plus the next one on a side whose flank is ``skip``.
Annealing, which a node uses only for near and leaf connect requests,
ranks the whole ring.

Direction-based routing ignores the target value entirely: the packet
walks hop by hop in a fixed direction, to the ring successor (clockwise)
or predecessor of ``v`` other than ``skip``, and is delivered when its
hop count reaches its ttl.

Distance ties break toward the numerically smaller address, with the
deciding node winning ties against its neighbors, which makes every
decision deterministic for a given input.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

from .address import HALF_MODULUS, MODULUS, Direction


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


def _best_two(v: int, ring: Sequence[int], target: int,
              skip: int | None = None) -> tuple[int, int | None]:
    """Closest and second-closest of ``(ring - {skip}) ∪ {v}`` to target.

    Ordering key is (distance, candidate-is-not-v, address), so v wins
    ties with neighbors and neighbor ties go to the smaller address.
    The ring distance is computed inline and a candidate is held as its
    distance and a tie key: its address, or -1 for v, which orders v
    before any neighbor at the same distance.
    """
    d = (v - target) % MODULUS
    best_d = d if d <= HALF_MODULUS else MODULUS - d
    best = -1
    second_d = second = None
    for u in ring:
        if u == skip:
            continue
        d = (u - target) % MODULUS
        if d > HALF_MODULUS:
            d = MODULUS - d
        if d < best_d or (d == best_d and u < best):
            second_d, second = best_d, best
            best_d, best = d, u
        elif second is None or d < second_d or (d == second_d and u < second):
            second_d, second = d, u
    return (v if best == -1 else best), (v if second == -1 else second)


def greedy_next_hop(v: int, ring: Sequence[int], prev: int | None, target: int,
                    skip: int | None = None) -> int | None:
    """The next hop, or None when the packet is delivered here.

    The hop of every routed packet and of every replayed pair, so it
    reads the two peers that flank the target (module docstring) and
    ranks them and ``v`` inline, in ``_best_two``'s order.
    """
    n = len(ring)
    if not n:
        return None
    i = bisect_left(ring, target)
    if i == n:
        i = 0
    # The first peer at or clockwise of the target, and the first before
    # it; with one peer both are that peer.
    cw, ccw = ring[i], ring[i - 1]
    if cw == skip:
        if n == 1:
            return None
        cw = ring[(i + 1) % n]
    elif ccw == skip:
        ccw = ring[i - 2]
    d = (cw - target) % MODULUS
    if d > HALF_MODULUS:
        d = MODULUS - d
    e = (target - ccw) % MODULUS
    if e > HALF_MODULUS:
        e = MODULUS - e
    # The closer flank, the smaller address at equal distance; v wins a
    # tie with it.
    if e < d or (e == d and ccw < cw):
        best, d = ccw, e
    else:
        best = cw
    dv = (v - target) % MODULUS
    if dv > HALF_MODULUS:
        dv = MODULUS - dv
    if d < dv and best != prev:
        return best
    return None


def annealing_next_hop(v: int, ring: Sequence[int], prev: int | None, target: int,
                       skip: int | None = None) -> Decision:
    u_min, u_sec = _best_two(v, ring, target, skip)
    if u_min != v and u_min != prev:
        return forward(u_min)
    if u_sec is not None and u_sec != v and u_sec != prev:
        return deliver_and_forward(u_sec)
    return DELIVER_LOCAL


def directional_next_hop(v: int, ring: Sequence[int], direction: Direction,
                         hops: int, ttl: int, skip: int | None = None) -> Decision:
    if hops >= ttl:
        return DELIVER_LOCAL
    n = len(ring)
    if direction is Direction.CLOCKWISE:
        i, step = bisect_right(ring, v), 1
    else:
        i, step = bisect_left(ring, v) - 1, -1
    # The ring successor (clockwise) or predecessor of v, or the one past
    # it when that is skip.
    for j in range(min(n, 2)):
        u = ring[(i + j * step) % n]
        if u != skip:
            return forward(u)
    return DROP
