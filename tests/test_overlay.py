"""Protocol behavior tests: joining, linking, status repair, maintenance."""

import math
from collections import Counter
from random import Random

import pytest

from ringnet import messages
from ringnet import node as node_module
from ringnet.address import HALF_MODULUS, MODULUS, Direction, directed_distance
from ringnet.connections import LEAF, NEAR, NEAR_PER_SIDE, SHORTCUT, ConnectionTable
from ringnet.metrics import ks_distance, ring_correct, shortcut_law_cdf
from ringnet.node import (
    NodeState,
    OverlayConfig,
    sample_shortcut_distance,
    shortcut_distance_from_uniform,
)
from ringnet.packet import HEADER_LEN, PAYLOAD_LINK, TYPE_LINK, encode, make_link
from ringnet.scenarios import (
    LOOPBACK_OVERLAY,
    Bootstrap,
    Churn,
    Converge,
    Scenario,
    ScenarioRunner,
    Wait,
    run,
    take_snapshot,
)
from ringnet.simnet import SimConfig, SimNetwork
from ringnet.topology import install_connection, ring_addresses, seed_ring
from test_connections import assert_reads_equal_a_recompute

D_MAX = MODULUS


def quiet_config(**overrides) -> OverlayConfig:
    base = dict(status_interval=None, k_shortcuts=0)
    base.update(overrides)
    return OverlayConfig(**base)


def new_node(net, address, config, seed=1, joined=False):
    host = net.new_host()
    node = NodeState(address, host, config, Random(seed))
    host.attach(node)
    node.joined = joined
    return node


# ----------------------------------------------------------------------
# joining


def test_join_into_single_node_network_forms_mutual_ring():
    net = SimNetwork(SimConfig(seed=1))
    cfg = quiet_config()
    a = new_node(net, 100, cfg, seed=1, joined=True)
    b = new_node(net, HALF_MODULUS, cfg, seed=2)
    b.start_join(a.host.ta)
    net.run_until(net.now + 8)
    assert b.joined
    assert NEAR in a.table.get(b.address).roles
    assert NEAR in b.table.get(a.address).roles
    # The single peer satisfies both ring directions on both nodes.
    _, fraction = ring_correct(take_snapshot([a, b], net.now))
    assert fraction == 1.0


def test_join_lands_between_both_ring_neighbors():
    # The converged near set of a joiner is exactly the two closest nodes
    # on each side of its address.
    net = SimNetwork(SimConfig(seed=2))
    cfg = quiet_config()
    rng = Random(5)
    ring = [i * (MODULUS // 8) for i in range(8)]
    nodes = seed_ring(net, 8, rng, cfg, addresses=ring)
    net.run_until(net.now + 3)

    joiner_addr = ring[3] + (MODULUS // 16)  # strictly between ring[3] and ring[4]
    joiner = new_node(net, joiner_addr, cfg, seed=9)
    proxy = nodes[ring[0]]  # far away from the join position
    joiner.start_join(proxy.host.ta)
    net.run_until(net.now + 10)

    assert joiner.joined
    near_peers = {c.peer for c in joiner.table.with_role(NEAR)}
    assert near_peers == set(ring[2:6])
    for neighbor in ring[2:6]:
        assert NEAR in nodes[neighbor].table.get(joiner_addr).roles


def test_join_into_correct_64_ring_keeps_everyone_correct():
    net = SimNetwork(SimConfig(seed=3))
    cfg = quiet_config()
    nodes = seed_ring(net, 64, Random(7), cfg)
    net.run_until(net.now + 3)
    joiner = new_node(net, 12345 * 2, cfg, seed=11)
    proxy = nodes[sorted(nodes)[20]]
    joiner.start_join(proxy.host.ta)
    net.run_until(net.now + 15)
    everyone = list(nodes.values()) + [joiner]
    _, fraction = ring_correct(take_snapshot(everyone, net.now))
    assert fraction == 1.0


def test_join_timeout_reports_failure():
    net = SimNetwork(SimConfig(seed=4))
    cfg = quiet_config(handshake_timeout=0.2)
    node = new_node(net, 42, cfg, seed=1)
    failures = []
    node.on_join_failed = lambda n, reason: failures.append(reason)
    node.start_join("ring.udp:10.9.9.9:7000")  # nobody there
    net.run_until(net.now + 30)
    assert not node.joined
    assert failures


def test_leaf_connection_dropped_after_join():
    net = SimNetwork(SimConfig(seed=5))
    cfg = quiet_config()
    a = new_node(net, 100, cfg, seed=1, joined=True)
    b = new_node(net, HALF_MODULUS, cfg, seed=2)
    b.start_join(a.host.ta)
    net.run_until(net.now + 10)
    assert b.joined
    assert not b.table.with_role(LEAF)
    assert not a.table.with_role(LEAF)


@pytest.mark.parametrize("seed", [18, 56, 74, 91])
def test_joins_through_unjoined_proxies_form_one_ring(seed):
    # Every node starts joining at t=0, with the loopback overlay
    # settings, through a proxy drawn from the nodes created before it,
    # which may not have joined yet.  Each seed here once left a two-node
    # island.
    rng = Random(seed)
    net = SimNetwork(SimConfig(seed=seed))
    cfg = LOOPBACK_OVERLAY
    nodes = []
    for i in range(8):
        addr = rng.getrandbits(160) & ((1 << 160) - 2)
        node = new_node(net, addr, cfg, seed=rng.getrandbits(64), joined=i == 0)
        if i:
            node.start_join(nodes[rng.randrange(i)].host.ta)
        nodes.append(node)
    net.run_until(net.now + 30)
    assert all(node.joined for node in nodes)
    _, fraction = ring_correct(take_snapshot(nodes, net.now))
    assert fraction == 1.0


def test_converge_stops_at_the_first_correct_row():
    runner = ScenarioRunner(Scenario([Bootstrap(8, spacing=0.25), Converge(60)],
                                     measurement_interval=0.5),
                            SimConfig(seed=3), OverlayConfig(k_shortcuts=2))
    trace = runner.run()
    # Bootstrap measures at 0, 0.5, ... 2.0; the phase measures from 2.5.
    converging = [r for r in trace.rows if r.simulated_time_s > 2.0]
    first = next(i for i, r in enumerate(converging) if r.ring_correct_fraction == 1.0)
    assert first > 0
    # The phase ends on that row, which is also the run's final row: the
    # run does not measure that instant again.
    assert len(converging) == first + 1
    assert converging[first].simulated_time_s == runner.network.now < 60


@pytest.mark.xfail(strict=True, reason="a join wave through one proxy splits "
                   "the ring into two components that never link")
def test_join_wave_through_the_genesis_node_forms_one_ring():
    # With no spacing, every joiner's proxy is the genesis node.  All 64
    # join, but into two rings of 31 and 33 nodes with no edge between.
    trace = run(Scenario([Bootstrap(64, spacing=0), Wait(30)],
                         measurement_interval=30, pair_budget=100),
                SimConfig(seed=1), OverlayConfig(k_shortcuts=4))
    assert trace.rows[-1].ring_correct_fraction == 1.0


def test_unjoined_proxy_passes_join_requests_up_its_own_leaf(monkeypatch):
    # Leaves outlive the test.
    monkeypatch.setattr(node_module, "LEAF_GRACE_TICKS", 100)
    net = SimNetwork(SimConfig(seed=6))
    cfg = quiet_config()
    ring = new_node(net, 100, cfg, seed=1, joined=True)
    proxy = new_node(net, MODULUS // 3 * 2, cfg, seed=2)
    joiner = new_node(net, MODULUS // 3, cfg, seed=3)
    # The joiner's inbound leaf comes first in the proxy's table, so a
    # "first leaf" choice would pick it over the proxy's own leaf.
    for child, parent in ((joiner, proxy), (proxy, ring)):
        install_connection(child, parent, {LEAF})
        child.table.get(parent.address).initiated_by_me = True
    sent = []
    transmit = net.transmit
    def spy(src_host, dst_ta, data):
        sent.append((src_host, dst_ta))
        transmit(src_host, dst_ta, data)
    net.transmit = spy

    joiner._send_join_request(joiner.table.get(proxy.address))
    net.run_until(net.now + 3)
    assert joiner.joined
    assert NEAR in ring.table.get(joiner.address).roles
    assert not proxy.joined
    assert proxy.table.get(joiner.address).roles == {LEAF}

    sent.clear()
    proxy._join_attempts_left = 1
    proxy._join_check()
    assert [dst for src, dst in sent if src is proxy.host] == [ring.host.ta]
    net.run_until(net.now + 3)
    assert proxy.joined
    _, fraction = ring_correct(take_snapshot([ring, proxy, joiner], net.now))
    assert fraction == 1.0


# ----------------------------------------------------------------------
# linking protocol


def test_handshake_commits_on_both_sides_with_two_round_trips():
    net = SimNetwork(SimConfig(seed=6))
    cfg = quiet_config()
    a = new_node(net, 1000, cfg, seed=1, joined=True)
    b = new_node(net, 2000, cfg, seed=2, joined=True)
    a.initiate_link([b.host.ta], messages.CT_NEAR, expect_addr=b.address)
    net.run_until(net.now + 0.2)  # inside the push-status debounce window
    conn_ab = a.table.get(b.address)
    conn_ba = b.table.get(a.address)
    assert conn_ab is not None and conn_ba is not None
    assert conn_ab.initiated_by_me and not conn_ba.initiated_by_me
    assert NEAR in conn_ab.roles and NEAR in conn_ba.roles
    # Four link-layer datagrams: link req/resp, status req/resp.
    assert net.stats["datagrams"] == 4
    # The follow-up neighborhood pushes settle quickly.
    net.run_until(net.now + 2)
    assert net.stats["datagrams"] <= 8


def test_address_already_being_dialed_is_not_dialed_again():
    net = SimNetwork(SimConfig(seed=6))
    cfg = quiet_config()
    a = new_node(net, 1000, cfg, seed=1, joined=True)
    b = new_node(net, 2000, cfg, seed=2, joined=True)
    first = a.initiate_link([b.host.ta], messages.CT_NEAR, expect_addr=b.address)
    second = a.initiate_link([b.host.ta], messages.CT_NEAR, expect_addr=b.address)
    assert first is not None and second is None
    assert list(a.pending_links) == [first]
    assert net.stats["datagrams"] == 1  # one link request


def test_handshake_with_own_address_is_rejected():
    net = SimNetwork(SimConfig(seed=7))
    cfg = quiet_config()
    a = new_node(net, 777, cfg, seed=1, joined=True)
    b = new_node(net, 777, cfg, seed=2, joined=True)  # address collision
    a.initiate_link([b.host.ta], messages.CT_NEAR)
    net.run_until(net.now + 5)
    assert a.table.get(777) is None
    assert b.table.get(777) is None
    assert b.stats["address_collision"] == 1
    assert a.stats["link_failed"] == 1


def test_half_open_handshake_commits_nowhere():
    # Round one completes but the status round never arrives: after the
    # provisional window expires neither side holds a connection.
    net = SimNetwork(SimConfig(seed=8))
    cfg = quiet_config()
    a = new_node(net, 900, cfg, seed=1, joined=True)
    ghost_host = net.new_host()
    received = []
    class Script:
        def on_datagram(self, edge, data):
            received.append(data)
        def stop(self):
            pass
    ghost_host.attach(Script())
    req = messages.LinkMessage(messages.LINK_REQUEST, 5, 31337,
                               messages.CT_NEAR, messages.LINK_OK, 0,
                               a.host.ta, (ghost_host.ta,))
    edge = ghost_host.dial(a.host.ta)
    edge.send(encode(make_link(31337, a.address, PAYLOAD_LINK,
                               messages.encode_link(req))))
    net.run_until(net.now + 1)
    assert received  # link response came back
    assert a.provisional  # half-open
    assert a.table.get(31337) is None
    net.run_until(net.now + 60)
    assert not a.provisional
    assert a.table.get(31337) is None


def test_nated_node_learns_translated_address_from_echo():
    from ringnet.simnet import NatKind
    net = SimNetwork(SimConfig(seed=9))
    cfg = quiet_config()
    public = new_node(net, 5000, cfg, seed=1, joined=True)
    host = net.new_host(nat=NatKind.PORT_RESTRICTED_CONE)
    hidden = NodeState(6000, host, cfg, Random(2))
    host.attach(hidden)
    hidden.start_join(public.host.ta)
    net.run_until(net.now + 5)
    assert hidden.joined
    assert hidden.learned_tas, "echo should reveal the external address"
    external = hidden.learned_tas[0]
    assert external != host.ta
    assert external.startswith("ring.udp:172.")


def test_connect_request_to_connected_peer_adds_role_without_new_edge():
    net = SimNetwork(SimConfig(seed=10))
    cfg = quiet_config()
    a = new_node(net, 1000, cfg, seed=1, joined=True)
    b = new_node(net, 3000, cfg, seed=2, joined=True)
    a.initiate_link([b.host.ta], messages.CT_NEAR, expect_addr=b.address)
    net.run_until(net.now + 2)
    established = (a.stats["connections_established"],
                   b.stats["connections_established"])
    a.send_connect_request(b.address, messages.CT_SHORTCUT, kind="shortcut",
                           sampled_gap=1 << 150)
    net.run_until(net.now + 2)
    assert (a.stats["connections_established"],
            b.stats["connections_established"]) == established
    assert len(a.table.by_peer) == 1 and len(b.table.by_peer) == 1
    assert SHORTCUT in a.table.get(b.address).roles
    assert SHORTCUT in b.table.get(a.address).roles
    assert a.table.get(b.address).initiated_shortcut
    assert not b.table.get(a.address).initiated_shortcut


def test_target_dials_requester_directly():
    # Both endpoints reachable: the connection arrives because the target
    # opened an edge toward the requester's transport address.
    net = SimNetwork(SimConfig(seed=11))
    cfg = quiet_config()
    ring = [i * (MODULUS // 4) for i in range(4)]
    nodes = seed_ring(net, 4, Random(3), cfg, addresses=ring)
    net.run_until(net.now + 2)
    requester = nodes[ring[0]]
    target_addr = ring[2]
    requester.send_connect_request(target_addr, messages.CT_SHORTCUT,
                                   kind="shortcut", sampled_gap=1 << 158)
    net.run_until(net.now + 3)
    conn = requester.table.get(target_addr)
    assert conn is not None
    assert not conn.initiated_by_me  # the target dialed us
    assert conn.initiated_shortcut


# ----------------------------------------------------------------------
# status processing and repair


def test_status_listing_only_current_neighbors_is_a_fixed_point():
    net = SimNetwork(SimConfig(seed=12))
    cfg = quiet_config()
    nodes = seed_ring(net, 8, Random(3), cfg)
    net.run_until(net.now + 3)
    node = nodes[sorted(nodes)[0]]
    before = net.stats["datagrams"]
    listing = node.table.neighbor_listing()
    conn = node.table.with_role(NEAR)[0]
    node._process_status(conn, listing)
    net.run_until(net.now + 2)
    assert not node.pending_links
    assert net.stats["datagrams"] == before


def test_a_repeated_listing_is_zipped_again_only_after_a_table_write(monkeypatch):
    net = SimNetwork(SimConfig(seed=12))
    nodes = seed_ring(net, 16, Random(3), quiet_config())
    net.run_until(net.now + 3)
    ring = sorted(nodes)
    node = nodes[ring[0]]
    conn = node.table.get(ring[1])
    zips = []
    near_bounds = ConnectionTable.near_bounds
    monkeypatch.setattr(ConnectionTable, "near_bounds",
                        lambda table: zips.append(table.owner) or near_bounds(table))
    # ring[3] lies beyond ring[2], the second clockwise near peer.
    listing = tuple((a, (nodes[a].host.ta,)) for a in ring[2:4])
    node._process_status(conn, listing)
    assert len(zips) == 1 and conn.zipped_version == node.table.version
    node._process_status(conn, tuple(list(listing)))  # equal, another object
    assert len(zips) == 1
    node._process_status(conn, listing[1:])  # another listing
    assert len(zips) == 2 and not node.pending_links
    # Without ring[2] the clockwise bound is open: the same listing is
    # zipped again, and ring[3] is dialed.
    node._drop_connection(ring[2], notify=False, reason="test")
    node._process_status(conn, listing[1:])
    assert len(zips) == 3
    assert [at.expect_addr for at in node.pending_links.values()] == [ring[3]]
    assert conn.zipped_version != node.table.version


def closest_known(node):
    """What near repair reads: the NEAR_PER_SIDE closest known entries
    clockwise, then counterclockwise."""
    known = node._known_neighborhood()
    clockwise = sorted(known.items(), key=lambda item: (item[0] - node.address) % MODULUS)
    slots = min(NEAR_PER_SIDE, len(known))
    return clockwise[:slots], clockwise[::-1][:slots]


def test_repair_cache_follows_table_writes_and_new_listings():
    net = SimNetwork(SimConfig(seed=13))
    cfg = quiet_config()
    ring = [i * (MODULUS // 16) for i in range(16)]
    nodes = seed_ring(net, 16, Random(3), cfg, addresses=ring)
    node = nodes[ring[0]]
    node._near_repair(net.now)
    assert node._repair_cache[1:3] == closest_known(node)
    # A table write: a near peer closer clockwise than ring[1].
    install_connection(node, new_node(net, ring[1] // 2, cfg, joined=True), {NEAR})
    node._near_repair(net.now)
    assert node._repair_cache[1][0][0] == ring[1] // 2
    assert node._repair_cache[1:3] == closest_known(node)
    # A listing with an address closer counterclockwise than ring[15];
    # the zip dials it, and the table is not written.
    version, closer = node.table.version, ring[15] + MODULUS // 32
    node._process_status(node.table.get(ring[1]), ((closer, ("ring.udp:10.9.9.9:7000",)),))
    node._near_repair(net.now)
    assert node.table.version == version
    assert node._repair_cache[2][0][0] == closer
    assert node._repair_cache[1:3] == closest_known(node)
    # Near repair reads no shortcut's listing: a new one from a peer that
    # is only a shortcut keeps the cache, and a near peer's drops it.
    shortcut = new_node(net, ring[8] + 1, cfg, joined=True)
    install_connection(node, shortcut, {SHORTCUT})
    node._near_repair(net.now)
    cache = node._repair_cache
    farther = ((ring[8] + 2, ("ring.udp:10.9.9.8:7000",)),)
    node._process_status(node.table.get(shortcut.address), farther)
    assert node._repair_cache is cache
    assert node._repair_cache[1:3] == closest_known(node)
    node._process_status(node.table.get(ring[1]), farther)
    assert node._repair_cache is None
    node._near_repair(net.now)
    assert node._repair_cache[1:3] == closest_known(node)


def test_a_status_datagram_marks_its_connection_seen_now(monkeypatch):
    """A status request or response that arrives on a connection's edge
    sets that connection's ``last_seen`` to ``now``, whether it commits a
    link, answers a probe or does neither."""
    seen = Counter()
    on_datagram = NodeState.on_datagram

    def checking_on_datagram(node, edge, data):
        kind = data[HEADER_LEN] if len(data) > HEADER_LEN else None
        if data[0] != TYPE_LINK or kind not in (messages.STATUS_REQUEST,
                                                messages.STATUS_RESPONSE):
            on_datagram(node, edge, data)
            return
        token, _ = messages.decode_status_at(data, HEADER_LEN)
        if kind == messages.STATUS_REQUEST:
            case = "commit" if (edge.remote_ta, token) in node.provisional else "neither"
        elif token in node.pending_links:
            case = "commit"
        else:
            case = "probe" if token in node.pending_probes else "neither"
        conn = node.table.get(edge.peer_address)
        if conn is not None:
            conn.last_seen = -1.0
        on_datagram(node, edge, data)
        conn = node.table.get(edge.peer_address)
        if conn is not None and node.alive:
            assert conn.last_seen == node.host.now(), case
            seen[kind, case] += 1

    monkeypatch.setattr(NodeState, "on_datagram", checking_on_datagram)
    scenario = Scenario([Bootstrap(16, spacing=0.25), Wait(10)], measurement_interval=60,
                        pair_budget=10)
    ScenarioRunner(scenario, SimConfig(seed=3),
                   OverlayConfig(k_shortcuts=2, status_interval=1.0)).run()
    for kind in (messages.STATUS_REQUEST, messages.STATUS_RESPONSE):
        for case in ("commit", "neither"):
            assert seen[kind, case] > 0, (kind, case)
    assert seen[messages.STATUS_RESPONSE, "probe"] > 0


def test_repair_neighborhood_cache_equals_a_recompute_at_every_tick(monkeypatch):
    """Each tick's near repair reads the closest known addresses a
    recompute at that moment gives, whether it rebuilt them or found them
    cached, and the table's cached reads equal a new table's over the same
    entries."""
    checked, reused = [], []
    near_repair = NodeState._near_repair

    def checking_near_repair(node, now):
        assert_reads_equal_a_recompute(node.table)
        expected = closest_known(node)
        before = node._repair_cache
        reads_it = bool(node.table.near())
        near_repair(node, now)
        if reads_it:
            assert node._repair_cache[1:3] == expected
            checked.append(node.address)
            if before is not None and node._repair_cache[1] is before[1]:
                reused.append(node.address)

    monkeypatch.setattr(NodeState, "_near_repair", checking_near_repair)
    scenario = Scenario([Bootstrap(24, spacing=0.25), Wait(5), Churn(20, p_leave=0.02),
                         Wait(10)], measurement_interval=60, pair_budget=10)
    ScenarioRunner(scenario, SimConfig(seed=7),
                   OverlayConfig(k_shortcuts=2, status_interval=1.0)).run()
    assert len(checked) > 500 and len(reused) > 100


# Reference tick steps: each full pass as written before any step skipped
# work, computed from scratch and acting on nothing.

def entries(node):
    """Each peer's roles and shortcut ownership."""
    return {c.peer: (c.roles, c.initiated_shortcut, c.sampled_gap)
            for c in node.table.by_peer.values()}


def ref_near_repair(node):
    """The peers a full near repair pass claims, the addresses it dials,
    the sides it discovers and its ``sides_converged``, for a node with a
    near peer."""
    cw_closest, ccw_closest = closest_known(node)
    horizon = node_module.REPAIR_HORIZON_GAPS * node.gap_ewma if node.gap_ewma else None
    claims, dials, discovers = [], [], []
    converged = True
    for direction, closest in ((Direction.CLOCKWISE, cw_closest),
                               (Direction.COUNTERCLOCKWISE, ccw_closest)):
        satisfied, acted = True, False
        for a, tas in closest:
            conn = node.table.get(a)
            if conn is not None and (NEAR in conn.roles or a in claims):
                continue
            satisfied = False
            if conn is not None:
                claims.append(a)
            elif not acted:
                acted = True
                if tas and (horizon is None
                            or directed_distance(node.address, a, direction) <= horizon):
                    dials.append(a)
                else:
                    discovers.append(direction)
        converged = converged and satisfied
    return claims, dials, discovers, converged


def ref_trim_near(node, now):
    """The entries after a full trim pass, and whether it kept every near peer."""
    after = entries(node)
    near = [c for c in node.table.by_peer.values() if NEAR in c.roles]
    keep = {c.peer for d in Direction for c in sorted(
        near, key=lambda c: directed_distance(node.address, c.peer, d))[:NEAR_PER_SIDE]}
    if len(near) <= NEAR_PER_SIDE:
        return after, True
    for conn in near:
        if conn.peer in keep or now - conn.established_at < node.cfg.tick_interval:
            continue
        if SHORTCUT in conn.roles or LEAF in conn.roles:
            after[conn.peer] = (conn.roles - {NEAR}, *after[conn.peer][1:])
        else:
            del after[conn.peer]
    return after, len(keep) == len(near)


def ref_refresh_stale_shortcut(node, mine):
    """The entries after a full refresh pass, and whether it found one stale."""
    after = entries(node)
    factor, gap = node_module.SHORTCUT_STALE_FACTOR, node.gap_ewma
    for conn in sorted(mine, key=lambda c: c.established_at):
        sampled = conn.sampled_gap
        if sampled is not None and (sampled > gap * factor or sampled * factor < gap):
            if NEAR in conn.roles or LEAF in conn.roles:
                after[conn.peer] = (conn.roles - {SHORTCUT}, False, None)
            else:
                del after[conn.peer]
            return after, True
    return after, False


def test_skipped_tick_steps_act_like_a_full_pass(monkeypatch):
    """A near repair at a version whose slots its last pass found held, a
    trim with every near peer kept and a refresh with no stale shortcut
    skip work; at every tick, each step dials, writes roles and sets
    ``sides_converged`` as the full pass does."""
    near_repair, trim_near, refresh = (NodeState._near_repair, NodeState._trim_near,
                                       NodeState._refresh_stale_shortcut)
    initiate_link, discover = NodeState.initiate_link, NodeState._discover
    acts = []  # what the near repair pass now running dials and discovers
    checked, skipped = Counter(), Counter()

    def recording_initiate_link(node, tas, conn_type, **kwargs):
        acts.append(("dial", kwargs.get("expect_addr")))
        return initiate_link(node, tas, conn_type, **kwargs)

    def recording_discover(node, direction):
        acts.append(("discover", direction))
        return discover(node, direction)

    def checking_near_repair(node, now):
        if not node.table.near():
            return near_repair(node, now)
        claims, dials, discovers, converged = ref_near_repair(node)
        expected = entries(node)
        for a in claims:
            expected[a] = (expected[a][0] | {NEAR}, *expected[a][1:])
        cache = node._repair_cache
        if cache is not None and cache[0] == node.table.version:
            # A pass at the version of the last: skipped if that one found
            # every slot held.
            skipped["repair"] += cache[3]
            checked["repair_again"] += not cache[3]
        acts.clear()
        near_repair(node, now)
        assert [a for kind, a in acts if kind == "dial"] == dials
        assert [d for kind, d in acts if kind == "discover"] == discovers
        assert entries(node) == expected
        assert node.sides_converged == converged
        checked["repair"] += 1

    def checking_trim_near(node, now):
        expected, all_kept = ref_trim_near(node, now)
        trim_near(node, now)
        assert entries(node) == expected
        checked["trim"] += 1
        skipped["trim"] += all_kept

    def checking_refresh(node, mine):
        expected, stale = ref_refresh_stale_shortcut(node, mine)
        refresh(node, mine)
        assert entries(node) == expected
        checked["refresh"] += 1
        skipped["refresh"] += not stale

    for name, fn in (("_near_repair", checking_near_repair),
                     ("_trim_near", checking_trim_near),
                     ("_refresh_stale_shortcut", checking_refresh),
                     ("initiate_link", recording_initiate_link),
                     ("_discover", recording_discover)):
        monkeypatch.setattr(NodeState, name, fn)
    scenario = Scenario([Bootstrap(24, spacing=0.25), Wait(5), Churn(20, p_leave=0.02),
                         Wait(10)], measurement_interval=60, pair_budget=10)
    ScenarioRunner(scenario, SimConfig(seed=9),
                   OverlayConfig(k_shortcuts=2, status_interval=1.0)).run()
    # Both ways through each step are taken, and a near repair runs again
    # at the version of a pass that did not find every slot held.
    for step in ("repair", "trim", "refresh"):
        assert skipped[step] > 100 and checked[step] - skipped[step] > 10
    assert checked["repair_again"] > 0


def test_missing_near_neighbor_is_repaired_from_listings():
    net = SimNetwork(SimConfig(seed=13))
    cfg = quiet_config()
    nodes = seed_ring(net, 16, Random(3), cfg)
    net.run_until(net.now + 3)
    ring = sorted(nodes)
    node = nodes[ring[0]]
    second_cw = ring[2]
    node._drop_connection(second_cw, notify=True, reason="test")
    assert node.table.get(second_cw) is None
    net.run_until(net.now + 5)  # a couple of maintenance passes
    restored = node.table.get(second_cw)
    assert restored is not None and NEAR in restored.roles
    _, fraction = ring_correct(take_snapshot(list(nodes.values()), net.now))
    assert fraction == 1.0


def test_two_bridged_rings_zip_into_one():
    net = SimNetwork(SimConfig(seed=14))
    cfg = quiet_config()
    rng = Random(21)
    left = seed_ring(net, 8, rng, cfg)
    right = seed_ring(net, 8, rng, cfg)
    net.run_until(net.now + 3)
    bridge = new_node(net, rng.getrandbits(160) & (MODULUS - 2), cfg, seed=8)
    bridge.start_join(next(iter(left.values())).host.ta)
    bridge.add_bootstrap(next(iter(right.values())).host.ta)
    net.run_until(net.now + 60)
    everyone = list(left.values()) + list(right.values()) + [bridge]
    _, fraction = ring_correct(take_snapshot(everyone, net.now))
    assert fraction == 1.0


def test_convergence_from_random_connected_graph():
    # Repair is not join-dependent: any connected starting topology must
    # settle into a correct ring under ticks and status exchange alone.
    for seed in (1, 2, 3):
        net = SimNetwork(SimConfig(seed=seed))
        cfg = quiet_config()
        rng = Random(seed)
        addrs = ring_addresses(20, rng)
        nodes = {a: new_node(net, a, cfg, seed=a & 0xFFFF, joined=True)
                 for a in addrs}
        shuffled = addrs[:]
        rng.shuffle(shuffled)
        for i in range(1, len(shuffled)):  # random spanning tree
            other = shuffled[rng.randrange(i)]
            install_connection(nodes[shuffled[i]], nodes[other], {NEAR})
        for _ in range(10):  # extra random edges
            x, y = rng.sample(addrs, 2)
            install_connection(nodes[x], nodes[y], {NEAR})
        net.run_until(net.now + 90)
        _, fraction = ring_correct(take_snapshot(list(nodes.values()), net.now))
        assert fraction == 1.0, f"seed {seed} failed to converge"


# ----------------------------------------------------------------------
# maintenance


def test_converged_ring_ticks_are_no_ops():
    net = SimNetwork(SimConfig(seed=15))
    cfg = quiet_config()
    nodes = seed_ring(net, 12, Random(3), cfg)
    net.run_until(net.now + 5)  # settle any initial status pushes
    before = net.stats["datagrams"]
    net.run_until(net.now + 10)
    assert net.stats["datagrams"] == before


def test_surplus_near_connections_are_trimmed_keeping_closest():
    net = SimNetwork(SimConfig(seed=16))
    cfg = quiet_config()
    ring = [i * (MODULUS // 16) for i in range(16)]
    nodes = seed_ring(net, 16, Random(3), cfg, addresses=ring)
    node = nodes[ring[0]]
    # Graft two extra clockwise near links beyond the required two.
    install_connection(node, nodes[ring[3]], {NEAR})
    install_connection(node, nodes[ring[4]], {NEAR})
    assert len(node.table.with_role(NEAR)) == 6
    net.run_until(net.now + 5)
    near_peers = {c.peer for c in node.table.with_role(NEAR)}
    assert near_peers == {ring[1], ring[2], ring[14], ring[15]}
    # The trimmed peers no longer hold the reverse connection either.
    assert nodes[ring[3]].table.get(ring[0]) is None
    assert nodes[ring[4]].table.get(ring[0]) is None


def test_shortcut_deficit_filled_to_k():
    net = SimNetwork(SimConfig(seed=17))
    cfg = quiet_config(k_shortcuts=3)
    nodes = seed_ring(net, 32, Random(3), cfg)
    net.run_until(net.now + 30)
    for node in nodes.values():
        assert len(node.table.initiated_shortcuts()) == 3
        for conn in node.table.initiated_shortcuts():
            assert directed_distance(node.address, conn.peer, Direction.CLOCKWISE) >= 1


def test_dead_shortcut_peer_is_replaced():
    net = SimNetwork(SimConfig(seed=18))
    cfg = quiet_config(k_shortcuts=2, status_interval=2.0)
    nodes = seed_ring(net, 24, Random(3), cfg, k=2)
    net.run_until(net.now + 3)
    node = nodes[sorted(nodes)[0]]
    victim_conn = node.table.initiated_shortcuts()[0]
    victim = nodes.pop(victim_conn.peer)
    victim.host.shutdown()
    net.run_until(net.now + 30)
    assert victim_conn.peer not in node.table.by_peer
    assert len(node.table.initiated_shortcuts()) == 2


# ----------------------------------------------------------------------
# density estimation and shortcut sampling


def test_estimate_d_ave_four_evenly_spaced_nodes():
    net = SimNetwork(SimConfig(seed=19))
    cfg = quiet_config()
    ring = [i * (MODULUS // 4) for i in range(4)]
    nodes = seed_ring(net, 4, Random(3), cfg, addresses=ring)
    for node in nodes.values():
        assert node.table.gap_estimate() == MODULUS // 4


def test_estimate_d_ave_two_node_ring():
    net = SimNetwork(SimConfig(seed=20))
    cfg = quiet_config()
    a = new_node(net, 100, cfg, seed=1, joined=True)
    b = new_node(net, 100 + (1 << 100), cfg, seed=2, joined=True)
    install_connection(a, b, {NEAR})
    assert a.table.gap_estimate() == MODULUS // 2
    assert b.table.gap_estimate() == MODULUS // 2


def test_estimate_d_ave_not_ready_without_near_links():
    net = SimNetwork(SimConfig(seed=21))
    node = new_node(net, 100, quiet_config(), seed=1, joined=True)
    assert node.table.gap_estimate() is None


def test_estimate_d_ave_tracks_true_density_on_random_rings():
    net = SimNetwork(SimConfig(seed=22))
    cfg = quiet_config()
    nodes = seed_ring(net, 256, Random(41), cfg)
    true_gap = MODULUS // 256
    good = sum(1 for node in nodes.values()
               if true_gap / 4 <= node.table.gap_estimate() <= true_gap * 4)
    assert good >= 0.9 * len(nodes)


def test_shortcut_distance_formula_endpoints():
    d_ave = 1 << 150
    assert shortcut_distance_from_uniform(d_ave, 0.0) == d_ave
    assert shortcut_distance_from_uniform(d_ave, 1.0) == D_MAX
    mid = shortcut_distance_from_uniform(d_ave, 0.5)
    assert abs(mid - math.isqrt(d_ave * D_MAX)) <= mid * 1e-9


def test_shortcut_sampler_matches_its_cdf():
    rng = Random(123)
    d_ave = MODULUS // 1024
    samples = [sample_shortcut_distance(d_ave, rng) for _ in range(10_000)]
    assert all(d_ave <= s <= D_MAX for s in samples)
    assert ks_distance(samples, shortcut_law_cdf(d_ave)) < 0.02


def test_ks_distance_agrees_with_scipy():
    import numpy as np
    from scipy import stats
    rng = Random(7)
    d_ave = MODULUS // 512
    samples = [float(sample_shortcut_distance(d_ave, rng)) for _ in range(2000)]
    cdf = shortcut_law_cdf(d_ave)
    ours = ks_distance(samples, cdf)
    theirs = stats.kstest(samples,
                          lambda xs: np.asarray([cdf(x) for x in xs])).statistic
    assert abs(ours - float(theirs)) < 1e-9


def test_degenerate_shortcut_pool_fails_ks():
    cdf = shortcut_law_cdf(MODULUS // 1024)
    assert ks_distance([D_MAX] * 500, cdf) > 0.9
