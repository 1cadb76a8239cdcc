"""Offline verification tests: correctness predicate, routability, files."""

from bisect import bisect_left
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ringnet.address import MODULUS, format_address
from ringnet.connections import LEAF, NEAR_PER_SIDE
from ringnet.metrics import (
    InsufficientSamples,
    NEAR_LABEL,
    SHORTCUT_LABEL,
    TopologySnapshot,
    missing_edges,
    read_snapshot,
    ring_correct,
    routability,
    route_greedy,
    shortcut_cdf,
    structured_adjacency,
    to_dot,
    write_snapshot,
)
from ringnet.node import OverlayConfig
from ringnet.packet import PAYLOAD_APP, make_routed
from ringnet.scenarios import take_snapshot
from ringnet.simnet import ConstantLatency, SimConfig, SimNetwork
from ringnet.topology import (
    closest_index,
    ring_addresses,
    seed_ring,
    synthetic_snapshot,
)


def drop_edge(snapshot: TopologySnapshot, a: int, b: int) -> TopologySnapshot:
    lo, hi = min(a, b), max(a, b)
    edges = tuple(e for e in snapshot.edges if e != (lo, hi, NEAR_LABEL))
    return TopologySnapshot(snapshot.timestamp, snapshot.nodes, edges)


def test_perfect_ring_is_fully_correct():
    snap = synthetic_snapshot(64, k=0, seed=1)
    deficits, fraction = ring_correct(snap)
    assert fraction == 1.0
    assert deficits == dict.fromkeys(snap.nodes, 0)
    assert missing_edges(snap) == 0


def test_removing_one_near_edge_flags_exactly_two_nodes():
    snap = synthetic_snapshot(64, k=0, seed=2)
    ring = sorted(snap.nodes)
    snap2 = drop_edge(snap, ring[10], ring[11])
    deficits, fraction = ring_correct(snap2)
    assert deficits == {a: int(a in (ring[10], ring[11])) for a in ring}
    assert fraction == 62 / 64
    assert missing_edges(snap2) == 2


def reference_adjacency(snapshot: TopologySnapshot,
                        labels: tuple[str, ...]) -> dict[int, set[int]]:
    """The reference model of the verifier's peer views, one label set
    per pass: each node's peers over the edges carrying one of
    ``labels``, undirected; edges to addresses that are not nodes are
    ignored."""
    adj: dict[int, set[int]] = {a: set() for a in snapshot.nodes}
    for a, b, label in snapshot.edges:
        if label in labels and a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def reference_structured_adjacency(snapshot: TopologySnapshot) -> dict:
    return {a: tuple(sorted(peers)) for a, peers in
            reference_adjacency(snapshot, (NEAR_LABEL, SHORTCUT_LABEL)).items()}


def reference_ring_check(snapshot: TopologySnapshot):
    """The ring check built the long way, as two separate maps: the set of
    addresses each node must hold near links to, and the near adjacency.
    Returns per-node deficits, the correct fraction and the missing count."""
    ring = sorted(set(snapshot.nodes))
    n = len(ring)
    required = {a: set() for a in ring}
    if n >= 2:
        for i, a in enumerate(ring):
            for step in range(1, NEAR_PER_SIDE + 1):
                required[a].add(ring[(i + step) % n])
                required[a].add(ring[(i - step) % n])
            required[a].discard(a)
    adj = reference_adjacency(snapshot, (NEAR_LABEL,))
    flags = {a: required[a] <= adj[a] for a in snapshot.nodes}
    fraction = sum(flags.values()) / len(flags) if flags else 1.0
    deficits = {a: len(required[a] - adj[a]) for a in snapshot.nodes}
    return deficits, fraction, sum(deficits.values())


def reference_routability(snapshot: TopologySnapshot) -> tuple:
    """Every ordered pair of node entries replayed over the reference
    adjacency: pairs, routable pairs, mean and max hops."""
    adj = reference_structured_adjacency(snapshot)
    nodes = sorted(snapshot.nodes)
    pairs = [(s, t) for i, s in enumerate(nodes) for j, t in enumerate(nodes) if i != j]
    hops = [h for s, t in pairs for end, h in [route_greedy(adj, s, t)] if end == t]
    return len(pairs), len(hops), sum(hops) / len(hops) if hops else 0.0, max(hops, default=0)


@st.composite
def random_snapshots(draw):
    """1-12 distinct nodes, so tiny rings put a neighbour on both sides,
    some listed twice, with near, shortcut and leaf edges in either
    orientation, repeated edges, self edges and edges to addresses that
    are not nodes."""
    address = st.integers(0, MODULUS - 1)
    nodes = draw(st.lists(address, min_size=1, max_size=12, unique=True))
    repeated = draw(st.lists(st.sampled_from(nodes), max_size=3))
    strangers = draw(st.lists(address, max_size=3))
    endpoint = st.sampled_from(nodes + strangers)
    label = st.sampled_from([NEAR_LABEL, SHORTCUT_LABEL, LEAF])
    edges = draw(st.lists(st.tuples(endpoint, endpoint, label), max_size=60))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    return TopologySnapshot(0.0, tuple(draw(st.permutations(nodes + repeated))),
                            tuple(draw(st.permutations(edges))))


@settings(max_examples=300, deadline=None)
@given(random_snapshots(), st.integers(0, 5), st.integers(0, 5))
def test_ring_check_matches_the_reference(snap, extra, seed):
    deficits, fraction, missing = reference_ring_check(snap)
    assert ring_correct(snap) == (deficits, fraction)
    assert missing_edges(snap) == missing
    assert structured_adjacency(snap) == reference_structured_adjacency(snap)
    report = routability(snap)
    assert (report.pairs_tested, report.pairs_routable, report.mean_hops,
            report.max_hops) == reference_routability(snap)
    # A budget that covers every ordered pair replays every pair.
    n = len(snap.nodes)
    assert report == routability(snap, pair_budget=max(1, n * (n - 1)) + extra, seed=seed)


def test_a_snapshot_derives_its_ring_views_once():
    snap = synthetic_snapshot(16, k=2, seed=3)
    views = snap.ring_views
    deficits, _ = ring_correct(snap)
    deficits[snap.nodes[0]] = 5  # the caller's copy, not the cached one
    assert missing_edges(snap) == 0
    routability(snap)
    assert snap.ring_views is views
    assert structured_adjacency(snap) is views[1]


def test_two_node_population_is_correct_iff_mutually_connected():
    a, b = 2, 2 + (1 << 140)
    linked = TopologySnapshot(0.0, (a, b), ((a, b, NEAR_LABEL),))
    _, fraction = ring_correct(linked)
    assert fraction == 1.0
    alone = TopologySnapshot(0.0, (a, b), ())
    _, fraction = ring_correct(alone)
    assert fraction == 0.0
    assert missing_edges(alone) == 2


def test_singleton_population_is_trivially_correct():
    snap = TopologySnapshot(0.0, (42,), ())
    _, fraction = ring_correct(snap)
    assert fraction == 1.0
    assert missing_edges(snap) == 0


def test_correct_ring_routability_is_one_with_and_without_shortcuts():
    for k in (0, 3):
        snap = synthetic_snapshot(48, k=k, seed=3)
        report = routability(snap)
        assert report.routability == 1.0
        assert report.pairs_tested == 48 * 47


def test_split_ring_routability_matches_pair_count():
    # Two disconnected arcs of sizes a and b: only intra-component ordered
    # pairs route, so routability = (a(a-1) + b(b-1)) / ((a+b)(a+b-1)).
    rng = Random(9)
    ring = ring_addresses(24, rng)
    a_part, b_part = ring[:9], ring[9:]
    edges = []
    for part in (a_part, b_part):
        for i, x in enumerate(part[:-1]):
            edges.append((min(x, part[i + 1]), max(x, part[i + 1]), NEAR_LABEL))
            if i + 2 < len(part):
                edges.append((min(x, part[i + 2]), max(x, part[i + 2]), NEAR_LABEL))
    snap = TopologySnapshot(0.0, tuple(ring), tuple(edges))
    report = routability(snap)
    n_a, n_b = len(a_part), len(b_part)
    expected = (n_a * (n_a - 1) + n_b * (n_b - 1)) / (24 * 23)
    # Cross-component pairs can never route, so the intra-pair count is an
    # exact upper bound; a few intra-component pairs whose shorter arc
    # crosses the cut fail too, so the measured value sits slightly below.
    assert report.routability <= expected + 1e-9
    assert abs(report.routability - expected) <= 0.05


def test_sampled_routability_tracks_exhaustive_value():
    # Damaged topology with mid-range routability; the seeded pair sample
    # stays within +/-0.02 of the exhaustive value in 19 of 20 seeds.
    snap = synthetic_snapshot(128, k=2, seed=4)
    rng = Random(10)
    ring = sorted(snap.nodes)
    damaged = snap
    for _ in range(40):
        i = rng.randrange(len(ring))
        damaged = drop_edge(damaged, ring[i], ring[(i + 1) % len(ring)])
        damaged = drop_edge(damaged, ring[i], ring[(i + 2) % len(ring)])
    exact = routability(damaged).routability
    assert 0.2 < exact < 1.0
    hits = sum(
        1 for seed in range(20)
        if abs(routability(damaged, pair_budget=2500, seed=seed).routability
               - exact) <= 0.02)
    assert hits >= 19


def test_routability_of_singleton_and_pair():
    solo = TopologySnapshot(0.0, (5,), ())
    assert routability(solo).routability == 1.0
    a, b = 2, 2 + (1 << 150)
    pair = TopologySnapshot(0.0, (a, b), ((a, b, NEAR_LABEL),))
    report = routability(pair)
    assert report.routability == 1.0
    assert report.mean_hops == 1.0


@pytest.mark.parametrize("budget", [0, -3])
def test_routability_rejects_a_budget_below_one(budget):
    snap = synthetic_snapshot(8, k=1, seed=2)
    with pytest.raises(ValueError, match="pair_budget"):
        routability(snap, pair_budget=budget)


def test_nodes_route_each_lookup_as_the_verifier_replays_it():
    # The node decides with prev and skip=source, the replay with neither;
    # on a still ring both must reach the same node in the same hops.
    network = SimNetwork(SimConfig(seed=23, latency=ConstantLatency(0.0)))
    nodes = seed_ring(network, 256, Random(23),
                      OverlayConfig(k_shortcuts=4, status_interval=None), k=4)
    network.run_until(2.0)
    adj = structured_adjacency(take_snapshot(list(nodes.values()), network.now))
    arrivals: dict[int, list[tuple[int, int]]] = {}

    def on_delivery(node, pkt):
        arrivals.setdefault(int.from_bytes(pkt.payload, "big"), []).append(
            (node.address, pkt.header.hops))

    for node in nodes.values():
        node.app_handler = on_delivery
    rng = Random(24)
    addresses = sorted(nodes)
    lookups = []
    for i in range(500):
        # Half the targets are node addresses, half arbitrary keys.
        source, target = rng.sample(addresses, 2)
        if i % 2:
            target = rng.getrandbits(160)
        lookups.append((source, target))
        nodes[source].originate(make_routed(source, target, PAYLOAD_APP,
                                            i.to_bytes(4, "big")))
    network.run_until(network.now)
    assert {i: arrivals.get(i) for i in range(len(lookups))} == {
        i: [route_greedy(adj, s, t)] for i, (s, t) in enumerate(lookups)}


def test_closest_node_wraps():
    ring = [10, 100, MODULUS - 4]
    assert ring[closest_index(ring, 1)] == MODULUS - 4  # wraps backwards
    assert ring[closest_index(ring, 3)] == 10  # distance tie breaks to smaller address
    assert ring[closest_index(ring, 80)] == 100
    assert ring[closest_index(ring, 55)] == 10  # halfway: the smaller again


def reference_closest_index(ring: list[int], target: int) -> int:
    """The nearest of the three addresses around target's bisection point,
    ties to the smaller address: the model ``closest_index`` must match."""
    n = len(ring)
    i = bisect_left(ring, target) % n
    candidates = [(i - 1) % n, i, (i + 1) % n]

    def dist(j: int) -> tuple[int, int]:
        d = (ring[j] - target) % MODULUS
        d = min(d, MODULUS - d)
        return (d, ring[j])
    return min(candidates, key=dist)


@st.composite
def rings_and_targets(draw):
    """A sorted ring of 1-64 distinct addresses, small ones crowding both
    ends of the space, and a target on a node, near or at a node's
    antipode, past either end of the ring, halfway between two nodes, or
    anywhere."""
    address = st.one_of(st.integers(0, 64), st.integers(MODULUS - 64, MODULUS - 1),
                        st.integers(0, MODULUS - 1))
    ring = sorted(draw(st.lists(address, min_size=1, max_size=64, unique=True)))
    node = st.sampled_from(ring)
    nudge = st.integers(-2, 2)
    target = draw(st.one_of(
        node,
        st.builds(lambda a, d: (a + (MODULUS >> 1) + d) % MODULUS, node, nudge),
        st.integers(0, ring[0]),
        st.integers(ring[-1], MODULUS - 1),
        st.builds(lambda i, d: (ring[i - 1] + (ring[i] - ring[i - 1]) % MODULUS // 2
                                + d) % MODULUS,
                  st.integers(0, len(ring) - 1), nudge),
        address))
    return ring, target


@settings(max_examples=500, deadline=None)
@given(rings_and_targets())
def test_closest_index_matches_the_three_candidate_model(case):
    ring, target = case
    assert closest_index(ring, target) == reference_closest_index(ring, target)


def test_shortcut_cdf_on_law_generated_snapshot():
    snap = synthetic_snapshot(256, k=4, seed=5)
    report = shortcut_cdf(snap)
    assert report.samples == 256 * 4
    assert report.d_ave == MODULUS // 256
    assert report.ks_distance < 0.05


def test_shortcut_cdf_requires_enough_samples():
    snap = synthetic_snapshot(16, k=1, seed=6)
    with pytest.raises(InsufficientSamples):
        shortcut_cdf(snap)


def test_shortcut_cdf_worst_case_pool_fails():
    nodes = tuple(sorted(ring_addresses(64, Random(7))))
    edges = tuple((a, (a + 7) % MODULUS, SHORTCUT_LABEL) for a in nodes)
    snap = TopologySnapshot(0.0, nodes, edges)
    report = shortcut_cdf(snap)
    assert report.ks_distance > 0.5


def test_snapshot_file_round_trip(tmp_path):
    snap = synthetic_snapshot(32, k=2, seed=8)
    path = str(tmp_path / "topo.snap")
    write_snapshot(snap, path)
    loaded = read_snapshot(path)
    assert loaded == snap
    # Edges whose first addresses come interleaved, not grouped.
    edges = list(snap.edges)
    Random(8).shuffle(edges)
    shuffled = TopologySnapshot(snap.timestamp, snap.nodes, tuple(edges))
    write_snapshot(shuffled, path)
    assert read_snapshot(path) == shuffled


def test_snapshot_reader_parses_an_edge_to_an_address_that_is_no_node(tmp_path):
    a, b, stranger = 2, 4 + (1 << 150), 6 + (1 << 159)
    path = tmp_path / "stranger.snap"
    write_snapshot(TopologySnapshot(1.5, (a, b), ((a, b, NEAR_LABEL),
                                                  (b, stranger, SHORTCUT_LABEL))),
                   str(path))
    snap = read_snapshot(str(path))
    assert snap.edges == ((a, b, NEAR_LABEL), (b, stranger, SHORTCUT_LABEL))
    assert structured_adjacency(snap) == {a: (b,), b: (a,)}


def test_snapshot_reader_reads_an_uppercase_spelling_as_its_node(tmp_path):
    a, b = 0xABC, 0xDEF0 << 100
    path = tmp_path / "upper.snap"
    path.write_text(f"node {format_address(a)}\nnode {format_address(b)}\n"
                    f"edge {format_address(a).upper()} {format_address(b)} {NEAR_LABEL}\n"
                    f"edge {format_address(b).upper()} {format_address(a).upper()} "
                    f"{SHORTCUT_LABEL}\n")
    snap = read_snapshot(str(path))
    assert snap.nodes == (a, b)
    assert snap.edges == ((a, b, NEAR_LABEL), (b, a, SHORTCUT_LABEL))
    assert ring_correct(snap) == ({a: 0, b: 0}, 1.0)


def test_snapshot_reader_names_the_line_of_a_malformed_edge_address(tmp_path):
    a, b = format_address(2), format_address(4)
    path = tmp_path / "edge.snap"
    path.write_text(f"node {a}\nnode {b}\nedge {a} {b[:-1]}g {NEAR_LABEL}\n")
    with pytest.raises(ValueError, match=r"edge\.snap:3: address must be 40 hex"):
        read_snapshot(str(path))


def test_snapshot_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("node zz\n")
    with pytest.raises(ValueError):
        read_snapshot(str(path))
    empty = tmp_path / "empty.snap"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_snapshot(str(empty))


def test_snapshot_reader_rejects_a_signed_address(tmp_path):
    path = tmp_path / "signed.snap"
    path.write_text("# ringnet-snapshot time=0.000\nnode -" + "1" * 39 + "\n")
    with pytest.raises(ValueError, match=r"signed\.snap:2: address must be 40 hex"):
        read_snapshot(str(path))


def test_snapshot_reader_rejects_a_header_only_file(tmp_path):
    path = tmp_path / "header.snap"
    path.write_text("# ringnet-snapshot time=0.000\n")
    with pytest.raises(ValueError, match="no node line"):
        read_snapshot(str(path))


def test_snapshot_reader_rejects_a_repeated_node(tmp_path):
    snap = synthetic_snapshot(4, k=0, seed=1)
    path = tmp_path / "twice.snap"
    write_snapshot(TopologySnapshot(0.0, snap.nodes + snap.nodes[:1], ()), str(path))
    with pytest.raises(ValueError, match=r"twice\.snap:6: repeated node"):
        read_snapshot(str(path))


def test_dot_export_mentions_every_node_and_both_styles():
    snap = synthetic_snapshot(12, k=1, seed=9)
    dot = to_dot(snap)
    assert dot.startswith("graph ring {")
    assert dot.count("[label=") == 12
    assert "style=solid" in dot and "style=dashed" in dot


def test_missing_edges_zero_iff_fully_correct():
    for seed in range(4):
        snap = synthetic_snapshot(40, k=1, seed=seed)
        assert missing_edges(snap) == 0
        _, fraction = ring_correct(snap)
        assert fraction == 1.0
        ring = sorted(snap.nodes)
        broken = drop_edge(snap, ring[0], ring[1])
        assert missing_edges(broken) > 0
        _, fraction = ring_correct(broken)
        assert fraction < 1.0


def test_full_ring_correctness_implies_full_routability():
    for n in (16, 64, 128):
        snap = synthetic_snapshot(n, k=1, seed=n)
        _, fraction = ring_correct(snap)
        assert fraction == 1.0
        assert routability(snap).routability == 1.0
