"""Independent verification of topology snapshots.

This module checks what the protocol built without reusing any of its
machinery: it takes only the requirement it checks from the protocol
(``connections.NEAR_PER_SIDE``), reimplements ring geometry from scratch
over a static snapshot and replays only the pure next-hop deciders.
Snapshots can be read back from the line-oriented files the simulator
emits, so analysis works offline from run artifacts alone.

Every check reads what one pass over a snapshot's edges derives (each
node's ring deficit and its sorted ring of peers), cached on the frozen
snapshot; ``read_snapshot`` parses each distinct address once, and
``write_snapshot`` formats an edge's first address once for each run of
edges that share it.

Checks provided: one ring check (``ring_correct`` walks the sorted ring
once and counts each node's nearest live addresses it lacks a near link
to; ``missing_edges`` is the sum), routability (the fraction of ordered
pairs greedy routing delivers to the node closest to the target), the
shortcut distance law, and the fit of mean hops to c * log^2(N) / k.

Shortcut edges are recorded oriented, requester first, and their length
is the clockwise offset the requester sampled; that is the quantity the
1/d law constrains (a shortcut may stretch past the antipode, where the
symmetric ring metric would fold it back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from random import Random

from .address import MODULUS, format_address, parse_address
from .connections import NEAR_PER_SIDE
from .routing import greedy_next_hop

NEAR_LABEL = "structured.near"
SHORTCUT_LABEL = "structured.shortcut"

D_MAX = MODULUS
MIN_KS_SAMPLES = 50


class InsufficientSamples(ValueError):
    pass


@dataclass(frozen=True)
class TopologySnapshot:
    timestamp: float
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]

    @cached_property
    def ring_views(self) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
        """Per node: its ring deficit (see ``ring_correct``), and its near
        and shortcut peers as a sorted ring, over undirected edges between
        nodes; both from one pass over the edges.  Read-only."""
        near: dict = {a: set() for a in self.nodes}
        structured: dict = {a: [] for a in self.nodes}  # shortcut peers, at first
        for a, b, label in self.edges:
            if a in near and b in near:
                if label == NEAR_LABEL:
                    near[a].add(b)
                    near[b].add(a)
                elif label == SHORTCUT_LABEL:
                    structured[a].append(b)
                    structured[b].append(a)
        # In place, so each list is freed as its tuple replaces it: lists
        # and one set at a time take less memory than a set per node.
        for a, chords in structured.items():
            structured[a] = tuple(sorted(near[a].union(chords)))
        # The deficits are kept, not the near sets: a few bytes per node.
        ring = sorted(near)
        # ring[i]'s window is padded[i:i + width] (the whole ring, if tiny).
        padded = ring[-NEAR_PER_SIDE:] + ring + ring[:NEAR_PER_SIDE]
        width = 2 * NEAR_PER_SIDE + 1
        deficits = {}
        for i, a in enumerate(ring):
            window = set(padded[i:i + width])
            window -= near[a]
            window.discard(a)
            deficits[a] = len(window)
        return deficits, structured


@dataclass(frozen=True)
class RoutabilityReport:
    pairs_tested: int
    pairs_routable: int
    routability: float
    mean_hops: float
    max_hops: int


@dataclass(frozen=True)
class ShortcutReport:
    samples: int
    ks_distance: float
    d_ave: int


# ----------------------------------------------------------------------
# ring geometry


def structured_adjacency(snapshot: TopologySnapshot) -> dict[int, tuple[int, ...]]:
    """Each node's near and shortcut peers as a sorted ring (read-only)."""
    return snapshot.ring_views[1]


def ring_correct(snapshot: TopologySnapshot) -> tuple[dict[int, int], float]:
    """Per-node deficits and the fraction of nodes without one.

    ``deficits[a]`` counts the addresses among a's ``NEAR_PER_SIDE``
    nearest live addresses on each side that a holds no near link to (0:
    correct).  A neighbour on both sides of a tiny ring counts once."""
    deficits = snapshot.ring_views[0]
    correct = sum(not d for d in deficits.values())
    return dict(deficits), correct / len(deficits) if deficits else 1.0


def missing_edges(snapshot: TopologySnapshot) -> int:
    """Count of (node, required near neighbor) relations absent."""
    return sum(snapshot.ring_views[0].values())


# ----------------------------------------------------------------------
# routability


def route_greedy(adj: dict[int, tuple[int, ...]], source: int,
                 target: int) -> tuple[int, int]:
    """Walk greedy decisions over a static graph.

    Returns (delivered_node, hops).  Greedy forwarding strictly reduces
    ring distance, so the walk always terminates.
    """
    current = source
    prev = None
    hops = 0
    limit = len(adj) + 2
    while hops <= limit:
        next_hop = greedy_next_hop(current, adj[current], prev, target)
        if next_hop is None:
            return current, hops
        prev = current
        current = next_hop
        hops += 1
    raise RuntimeError("greedy walk failed to terminate")


def routability(snapshot: TopologySnapshot, pair_budget: int | None = None,
                seed: int = 0) -> RoutabilityReport:
    """Replay greedy routing over the snapshot for ordered node pairs.

    All ordered pairs are tried when they fit in pair_budget (or when no
    budget is given); otherwise a uniform sample without replacement is
    drawn, seeded for reproducibility.  A pair counts as routable when
    the walk delivers at the live node closest to the target's address.
    """
    if pair_budget is not None and pair_budget < 1:
        raise ValueError("pair_budget must be at least 1")
    nodes = sorted(snapshot.nodes)
    n = len(nodes)
    if n == 0:
        raise ValueError("empty snapshot")
    if n == 1:
        return RoutabilityReport(0, 0, 1.0, 0.0, 0)
    adj = structured_adjacency(snapshot)
    total = n * (n - 1)
    indices = range(total)
    if pair_budget is not None and pair_budget < total:
        indices = sorted(Random(seed).sample(indices, pair_budget))

    ok = hop_total = hop_max = 0
    for index in indices:
        # Pair i is source i // (n-1) and the (i % (n-1))-th other node.
        s, r = divmod(index, n - 1)
        s, t = nodes[s], nodes[r if r < s else r + 1]
        # The target address is t's own address, so t is the unique
        # closest node; delivery anywhere else is a routing failure.
        delivered, hops = route_greedy(adj, s, t)
        if delivered == t:
            ok += 1
            hop_total += hops
            hop_max = max(hop_max, hops)
    return RoutabilityReport(len(indices), ok, ok / len(indices),
                             (hop_total / ok) if ok else 0.0, hop_max)


def hop_law(hops_by_n: dict[int, float], k: int) -> tuple[float, dict[int, float]]:
    """Least-squares fit of mean hops = c * log^2(N) / k through the
    origin: c, and each size's relative deviation from the fit."""
    xs = {n: math.log(n) ** 2 / k for n in hops_by_n}
    c = sum(xs[n] * hops_by_n[n] for n in xs) / sum(x ** 2 for x in xs.values())
    return c, {n: abs(hops_by_n[n] - c * xs[n]) / (c * xs[n]) for n in xs}


# ----------------------------------------------------------------------
# shortcut distance law


def shortcut_law_cdf(d_ave: int):
    """CDF of the 1/d shortcut law over [d_ave, 2**160]."""
    denom = math.log(D_MAX / d_ave)

    def cdf(length: float) -> float:
        if length <= d_ave:
            return 0.0
        if length >= D_MAX:
            return 1.0
        return math.log(length / d_ave) / denom

    return cdf


def ks_distance(samples: list[int], cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF."""
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        if (above := (i + 1) / n - f) > worst:
            worst = above
        if (below := f - i / n) > worst:
            worst = below
    return worst


def shortcut_distances(snapshot: TopologySnapshot) -> list[int]:
    """Clockwise offsets of shortcut edges, requester first in the tuple."""
    return [(b - a) % MODULUS for a, b, label in snapshot.edges
            if label == SHORTCUT_LABEL]


def shortcut_cdf(snapshot: TopologySnapshot) -> ShortcutReport:
    distances = shortcut_distances(snapshot)
    if len(distances) < MIN_KS_SAMPLES:
        raise InsufficientSamples(
            f"{len(distances)} shortcut edges, need {MIN_KS_SAMPLES}")
    d_ave = MODULUS // max(1, len(snapshot.nodes))
    ks = ks_distance(distances, shortcut_law_cdf(d_ave))
    return ShortcutReport(len(distances), ks, d_ave)


# ----------------------------------------------------------------------
# snapshot files and DOT export


def read_snapshot(path: str) -> TopologySnapshot:
    timestamp = 0.0
    nodes: dict[int, None] = {}  # an insertion-ordered set
    spelled: dict[str, int] = {}  # each node line's text, parsed once
    edges: list[tuple[int, int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            try:
                if parts[0] == "edge" and len(parts) == 4:
                    _, a, b, label = parts
                    edges.append((spelled[a] if a in spelled else parse_address(a),
                                  spelled[b] if b in spelled else parse_address(b),
                                  label))
                elif parts[0] == "node" and len(parts) == 2:
                    address = spelled[parts[1]] = parse_address(parts[1])
                    if address in nodes:
                        raise ValueError(f"repeated node {parts[1]}")
                    nodes[address] = None
                elif parts[0] == "#" and "time=" in raw:
                    timestamp = float(raw.split("time=")[1])
                else:
                    raise ValueError(f"unrecognized line: {raw.strip()!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    if not nodes:
        raise ValueError(f"{path}: no node line")
    return TopologySnapshot(timestamp, tuple(nodes), tuple(edges))


def write_snapshot(snapshot: TopologySnapshot, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ringnet-snapshot time={snapshot.timestamp:.3f}\n")
        for a in snapshot.nodes:
            fh.write(f"node {format_address(a)}\n")
        # Edges come grouped by their first address (sorted, or requester
        # by requester), so its spelling is formatted once per group.
        last, spelled = None, ""
        for a, b, label in snapshot.edges:
            if a != last:
                last, spelled = a, format_address(a)
            fh.write(f"edge {spelled} {format_address(b)} {label}\n")


def to_dot(snapshot: TopologySnapshot) -> str:
    """Graphviz rendering; near edges solid, shortcuts dashed chords."""
    lines = ["graph ring {", "  layout=circo;", "  node [shape=point];"]
    order = {a: i for i, a in enumerate(sorted(snapshot.nodes))}
    for a in sorted(snapshot.nodes):
        lines.append(f'  n{order[a]} [label="{format_address(a)[:8]}"];')
    seen = set()
    for a, b, label in snapshot.edges:
        if a not in order or b not in order:
            continue
        key = (min(order[a], order[b]), max(order[a], order[b]), label)
        if key in seen:
            continue
        seen.add(key)
        style = "solid" if label == NEAR_LABEL else "dashed"
        lines.append(f"  n{order[a]} -- n{order[b]} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
