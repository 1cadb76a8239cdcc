"""Real transport tests: address parsing, loopback edges, parity with sim,
scenarios on real sockets."""

import resource
from random import Random

import pytest

from ringnet import messages
from ringnet.connections import NEAR
from ringnet.node import NodeState, OverlayConfig
from ringnet.packet import (
    PAYLOAD_LINK,
    PAYLOAD_STATUS,
    PAYLOAD_CONNECT,
    decode,
    encode,
    make_link,
    make_routed,
)
from ringnet.scenarios import (
    LOOPBACK_OVERLAY,
    Bootstrap,
    Converge,
    MassiveFail,
    Scenario,
    ScenarioRunner,
    loopback,
)
from ringnet.simnet import SimConfig, SimNetwork
from ringnet.transport import (
    MAX_TA_LEN,
    MalformedTA,
    RealNetwork,
    TransportAddress,
    format_ta,
    parse_ta,
)


# ----------------------------------------------------------------------
# transport address text


def test_parse_foreign_namespace_literal():
    # Other stacks brand the namespace tag differently; parsing ignores it.
    ta = parse_ta("legacy.tcp:192.168.0.1:10030")
    assert ta == TransportAddress("tcp", "192.168.0.1", 10030)


def test_parse_is_case_insensitive_and_namespace_liberal():
    assert parse_ta("RING.UDP:host.example:80").protocol == "udp"
    assert parse_ta("udp:10.0.0.1:5000") == TransportAddress("udp", "10.0.0.1", 5000)


def test_port_zero_is_malformed():
    with pytest.raises(MalformedTA):
        parse_ta("legacy.udp:127.0.0.1:0")


@pytest.mark.parametrize("bad", [
    "tcp:127.0.0.1", "ipx:1:2", "ring.tcp::99", "ring.udp:h:99999",
    "ring.udp:h:notaport", "",
    # Ports int() reads as 7000: one endpoint would have several spellings.
    "ring.udp:h:+7000", "ring.udp:h:7_000", "ring.udp:h: 7000",
    "ring.udp:h:\u0667\u0660\u0660\u0660",
])
def test_malformed_addresses(bad):
    with pytest.raises(MalformedTA):
        parse_ta(bad)


def test_parse_format_identity():
    for proto in ("udp", "tcp"):
        for port in (1, 10030, 65535):
            value = TransportAddress(proto, "192.168.0.1", port)
            assert parse_ta(format_ta(value.protocol, value.host, value.port)) == value


def test_format_normalizes_scheme():
    assert format_ta("UDP", "h", 9) == "ring.udp:h:9"


# ----------------------------------------------------------------------
# loopback fixtures


def quiet_config(**overrides) -> OverlayConfig:
    base = dict(status_interval=None, k_shortcuts=0, tick_interval=0.2,
                handshake_timeout=0.3, push_status_debounce=0.05)
    base.update(overrides)
    return OverlayConfig(**base)


def wait_for(net, predicate, timeout: float) -> bool:
    """Run ``net`` until ``predicate()`` holds or ``timeout`` seconds pass;
    return whether it held."""
    deadline = net.now + timeout
    while not predicate():
        if net.now >= deadline:
            return False
        net.run_until(min(net.now + 0.01, deadline))
    return True


class Script:
    """Bare endpoint owner that records every datagram."""

    def __init__(self):
        self.got = []

    def on_datagram(self, edge, data):
        self.got.append((edge, data))

    def on_edge_failed(self, edge):
        pass

    def stop(self):
        pass


def test_udp_loopback_round_trip():
    net = RealNetwork("udp")
    try:
        a = net.new_host()
        b = net.new_host()
        script = Script()
        b.attach(script)
        pkt = make_routed(1, 2, 0, b"payload")
        a.dial(b.udp_ta).send(encode(pkt))
        assert wait_for(net, lambda: script.got, 5.0)
        from ringnet.packet import decode
        assert decode(script.got[0][1]) == pkt
    finally:
        net.close()


def test_truncated_datagram_surfaces_too_short_and_edge_survives():
    net = RealNetwork("udp")
    try:
        a = net.new_host()
        b = net.new_host()
        node = NodeState(77, b, quiet_config(), Random(1))
        b.attach(node)
        edge = a.dial(b.udp_ta)
        edge.send(b"short")  # 5 bytes, below any header
        wait_for(net, lambda: node.stats["bad_packet"] > 0, 5.0)
        assert node.stats["bad_packet"] == 1
        # Same edge still delivers well-formed traffic afterwards.
        edge.send(encode(make_routed(1, 77, 0, b"")))
        assert wait_for(net, lambda: node.stats["app_delivered"] > 0, 5.0)
    finally:
        net.close()


def test_full_link_handshake_over_udp_loopback():
    net = RealNetwork("udp")
    try:
        ha = net.new_host()
        hb = net.new_host()
        a = NodeState(1000, ha, quiet_config(), Random(1))
        b = NodeState(2000, hb, quiet_config(), Random(2))
        ha.attach(a)
        hb.attach(b)
        a.joined = b.joined = True
        a.initiate_link([hb.udp_ta], messages.CT_NEAR, expect_addr=2000)
        assert wait_for(
            net, lambda: a.table.get(2000) is not None and b.table.get(1000) is not None,
            10.0)
        assert NEAR in a.table.get(2000).roles
        assert NEAR in b.table.get(1000).roles
    finally:
        net.close()


def test_tcp_framing_round_trips_a_thousand_packets():
    net = RealNetwork("tcp")
    try:
        a = net.new_host()
        b = net.new_host()
        script = Script()
        b.attach(script)
        edge = a.dial(b.tcp_ta)
        rng = Random(5)
        sent = []
        for _ in range(1000):
            pkt = make_routed(rng.getrandbits(160), rng.getrandbits(160),
                              rng.randrange(256), rng.randbytes(rng.randrange(80)))
            sent.append(encode(pkt))
            edge.send(sent[-1])
        assert wait_for(net, lambda: len(script.got) >= 1000, 10.0)
        assert [d for _, d in script.got] == sent  # in order, intact
    finally:
        net.close()


def test_tcp_feed_reassembles_frames_from_any_chunking():
    net = RealNetwork("tcp")
    try:
        a = net.new_host()
        b = net.new_host()
        script = Script()
        a.attach(script)
        edge = a.dial(b.tcp_ta)
        rng = Random(11)
        frames = [rng.randbytes(rng.choice((0, 1, 2, 50, 300, 2000)))
                  for _ in range(1000)]
        stream = b"".join(len(f).to_bytes(2, "big") + f for f in frames)
        pos = 0
        while pos < len(stream):
            size = rng.choice((1, 1, 1, 2, 3, 17, 256, 4096))
            edge.feed(stream[pos:pos + size])
            pos += size
        assert [d for _, d in script.got] == frames
        assert all(type(d) is bytes for _, d in script.got)
        assert not edge.rx
    finally:
        net.close()


def test_tcp_rejects_oversized_frame():
    # An oversize packet is logged and dropped, like a failed UDP send;
    # the edge keeps carrying the packets that follow it.
    net = RealNetwork("tcp")
    try:
        a = net.new_host()
        b = net.new_host()
        script = Script()
        b.attach(script)
        edge = a.dial(b.tcp_ta)
        assert edge.send(b"\x00" * 65536) is None
        assert not edge.tx
        packet = bytes(range(100))
        edge.send(packet)
        assert wait_for(net, lambda: script.got, 5.0)
        assert [d for _, d in script.got] == [packet]
    finally:
        net.close()


def test_oversize_observed_remote_does_not_block_link_replies():
    # Two link requests whose peer-supplied observed_remote strings are
    # 40 kB each.  Were both learned, the node's next reply would advertise
    # them and outgrow one TCP frame; the node keeps neither, and answers
    # both requests.
    net = RealNetwork("tcp")
    try:
        hn = net.new_host()
        node = NodeState(1 << 150, hn, quiet_config(), Random(1))
        hn.attach(node)
        node.joined = True
        peer = net.new_host()
        script = Script()
        peer.attach(script)
        edge = peer.dial(hn.tcp_ta)
        for token, fill in ((1, "a"), (2, "b")):
            link = messages.LinkMessage(
                messages.LINK_REQUEST, token, PEER_ADDR, messages.CT_NEAR,
                messages.LINK_OK, 0, fill * 40_000, (edge.host.local_tas()[0],))
            edge.send(encode(make_link(PEER_ADDR, node.address, PAYLOAD_LINK,
                                       messages.encode_link(link))))
        edge.send(encode(make_routed(PEER_ADDR, node.address, 0, b"after")))
        assert wait_for(
            net, lambda: node.stats["app_delivered"] > 0 and len(script.got) == 2, 10.0)
        assert node.learned_tas == []
        replies = [messages.decode_link_body(decode(d).payload) for _, d in script.got]
        assert [(r.kind, r.token) for r in replies] == [
            (messages.LINK_RESPONSE, 1), (messages.LINK_RESPONSE, 2)]
    finally:
        net.close()


def test_learn_self_ta_keeps_only_well_formed_tas():
    net = RealNetwork("udp")
    try:
        hn = net.new_host()
        node = NodeState(1, hn, quiet_config(), Random(1))
        for ta in ("", "x" * 40_000, "ring.udp:h:99999", "not a ta",
                   "ring.udp:" + "h" * MAX_TA_LEN + ":4000", hn.udp_ta):
            node._learn_self_ta(ta)
        assert node.learned_tas == []
        node._learn_self_ta("ring.udp:192.0.2.7:4000")
        assert node.learned_tas == ["ring.udp:192.0.2.7:4000"]
    finally:
        net.close()


def test_learn_self_ta_ignores_aliases_of_an_advertised_ta():
    net = RealNetwork("udp")
    try:
        hn = net.new_host()
        node = NodeState(1, hn, quiet_config(), Random(1))
        _, ip, port = hn.udp_ta.split(":")
        node._learn_self_ta("udp:192.0.2.7:4000")
        assert node.learned_tas == ["ring.udp:192.0.2.7:4000"]
        for alias in ("ring.udp:192.0.2.7:04000", "RING.UDP:192.0.2.7:4000",
                      "legacy.udp:192.0.2.7:4000", f"udp:{ip}:{port}",
                      f"RING.UDP:{ip}:0{port}"):
            node._learn_self_ta(alias)
        assert node.learned_tas == ["ring.udp:192.0.2.7:4000"]
        assert node.advertised_tas() == ["ring.udp:192.0.2.7:4000", hn.udp_ta]
    finally:
        net.close()


def test_alias_spellings_dial_one_udp_edge_under_the_one_spelling():
    net = RealNetwork("udp")
    try:
        host, target = net.new_host(), net.new_host()
        _, ip, port = target.udp_ta.split(":")
        edges = {host.dial(ta) for ta in (
            f"ring.udp:{ip}:{port}", f"ring.udp:{ip}:0{port}",
            f"RING.UDP:{ip}:{port}", f"udp:{ip}:{port}")}
        assert len(edges) == 1
        assert host.edges == {target.udp_ta: edges.pop()}
        assert host.edges[target.udp_ta].remote == (ip, int(port))
    finally:
        net.close()


def test_a_peer_dialed_by_host_name_is_answered_on_the_dialed_edge():
    net = RealNetwork("udp")
    try:
        a, b = net.new_host(), net.new_host()
        got_a, got_b = Script(), Script()
        a.attach(got_a)
        b.attach(got_b)
        port = a.udp_ta.rsplit(":", 1)[1]
        dialed = b.dial(f"ring.udp:localhost:{port}")
        dialed.send(b"ping")
        assert wait_for(net, lambda: got_a.got, 5.0)
        got_a.got[0][0].send(b"pong")
        assert wait_for(net, lambda: got_b.got, 5.0)
        assert b.edges == {a.udp_ta: dialed}
        assert got_b.got == [(dialed, b"pong")]
    finally:
        net.close()


def test_full_link_handshake_over_tcp_loopback():
    net = RealNetwork("tcp")
    try:
        ha = net.new_host()
        hb = net.new_host()
        a = NodeState(1000, ha, quiet_config(), Random(1))
        b = NodeState(2000, hb, quiet_config(), Random(2))
        ha.attach(a)
        hb.attach(b)
        a.joined = b.joined = True
        a.initiate_link([hb.tcp_ta], messages.CT_NEAR, expect_addr=2000)
        assert wait_for(
            net, lambda: a.table.get(2000) is not None and b.table.get(1000) is not None,
            10.0)
        # The responder saw only a's ephemeral source port, which nobody
        # can dial, so it reported no endpoint for a to learn.
        assert a.learned_tas == []
        assert a.advertised_tas() == [ha.tcp_ta]
    finally:
        net.close()


def test_tcp_connect_refused_reports_edge_failure():
    net = RealNetwork("tcp")
    try:
        ha = net.new_host()
        a = NodeState(1000, ha, quiet_config(), Random(1))
        ha.attach(a)
        a.joined = True
        # Grab a port with no listener behind it.
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        a.initiate_link([format_ta("tcp", "127.0.0.1", dead_port)],
                        messages.CT_NEAR)
        assert wait_for(net, lambda: a.stats["link_failed"] > 0, 10.0)
        assert a.table.get(2000) is None
    finally:
        net.close()


def test_closed_host_runs_none_of_its_nodes_timers():
    # A link attempt is in flight to a UDP socket that never answers.
    # Closing the host stops the node, so none of the attempt's retries
    # fires and the attempt never fails.
    import socket
    net = RealNetwork("udp")
    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        silent.bind(("127.0.0.1", 0))
        silent.settimeout(5.0)
        host = net.new_host()
        node = NodeState(1000, host, quiet_config(handshake_timeout=0.05), Random(1))
        host.attach(node)
        node.joined = True
        node.initiate_link([format_ta("udp", *silent.getsockname())],
                           messages.CT_NEAR)
        assert silent.recv(2048)  # the first link request
        host.shutdown()
        net.run_until(net.now + 1.5)  # retries were due at 0.05, 0.15 and 0.35 s, failure at 0.75 s
        assert node.stats["link_failed"] == 0
        silent.setblocking(False)
        with pytest.raises(BlockingIOError):
            silent.recv(2048)
    finally:
        silent.close()
        net.close()


def test_loop_serves_descriptors_past_fd_setsize():
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < 1200:
        pytest.skip(f"RLIMIT_NOFILE {soft} is too low for 1,040 sockets")
    net = RealNetwork("mixed")
    try:
        hosts = [net.new_host() for _ in range(520)]
        a, b = hosts[-2], hosts[-1]
        assert b.tcp_listener.fileno() >= 1024
        got_a, got_b = Script(), Script()
        a.attach(got_a)
        b.attach(got_b)
        a.dial(b.udp_ta).send(b"ping")
        assert wait_for(net, lambda: got_b.got, 5.0)
        got_b.got[0][0].send(b"pong")
        assert wait_for(net, lambda: got_a.got, 5.0)
        assert [d for _, d in got_a.got] == [b"pong"]
    finally:
        net.close()


@pytest.fixture(params=["sim", "udp"])
def datagram_hosts(request):
    """A network of one kind and two of its hosts."""
    if request.param == "sim":
        net = SimNetwork(SimConfig(seed=1))
        yield net, net.new_host(), net.new_host()
        return
    net = RealNetwork("udp")
    try:
        yield net, net.new_host(), net.new_host()
    finally:
        net.close()


def test_datagram_edge_rules_are_shared(datagram_hosts):
    net, a, b = datagram_hosts

    def deliver():
        net.run_until(net.now + 0.5)
    got_a, got_b = Script(), Script()
    a.attach(got_a)
    b.attach(got_b)
    edge = a.dial(b.ta)
    assert a.dial(b.ta) is edge
    b.dial(a.ta).send(b"ping")
    deliver()
    assert got_a.got == [(edge, b"ping")]
    edge.close()
    edge.send(b"lost")
    deliver()
    assert got_b.got == []
    fresh = a.dial(b.ta)
    assert fresh is not edge and fresh.state == "open"
    fresh.send(b"pong")
    deliver()
    assert got_b.got == [(b.dial(a.ta), b"pong")]
    assert a.dial("not a ta") is None


def test_real_network_runs_to_an_absolute_time():
    net = RealNetwork("udp")
    try:
        fired = []
        net.call_later(0.1, lambda: fired.append(net.now))
        net.call_later(0.5, fired.append, "late")
        assert 0.0 <= net.now < 0.1
        net.run_until(0.2)
        assert 0.2 <= net.now < 0.45
        assert len(fired) == 1 and 0.1 <= fired[0] <= 0.2
        net.run_until(0.1)  # already past: returns at once
        assert net.now < 0.45 and len(fired) == 1
    finally:
        net.close()


@pytest.mark.parametrize("transport", ["udp", "tcp"])
def test_real_network_counts_datagrams_and_bytes_sent(transport):
    net = RealNetwork(transport)
    try:
        a, b = net.new_host(), net.new_host()
        script = Script()
        b.attach(script)
        edge = a.dial(b.ta)
        for size in (10, 200, 1000):
            edge.send(bytes(size))
        assert wait_for(net, lambda: len(script.got) == 3, 5.0)
        assert (net.stats["datagrams"], net.stats["bytes"]) == (3, 1210)
    finally:
        net.close()


def test_udp_ring_heals_after_a_quarter_of_its_nodes_fail():
    # The massive failure of the simulator's scenarios, on real sockets:
    # 4 of 16 nodes vanish at once and the 12 left close the ring.
    net = RealNetwork("udp")
    scenario = Scenario([Bootstrap(16, spacing=0.01), Converge(20),
                         MassiveFail(fraction=0.25), Converge(30)],
                        measurement_interval=0.25, pair_budget=100)
    try:
        trace = ScenarioRunner(scenario, SimConfig(seed=7), LOOPBACK_OVERLAY,
                               net).run()
    finally:
        net.close()
    assert [r.live_nodes for r in trace.rows].count(16) >= 1
    assert trace.rows[-1].live_nodes == 12
    assert trace.rows[-1].ring_correct_fraction == 1.0
    assert not net.hosts


# ----------------------------------------------------------------------
# sim/real parity


PEER_ADDR = 3 << 150
GHOST_ADDR = 5 << 150
REQUESTER_ADDR = 7 << 150


def scripted_exchange(node, node_ta, peer_script, peer_edge_factory, pump):
    """Feed one node a fixed message sequence; return its decision trace.

    The sequence is transport-agnostic: a near link handshake from a
    peer, a status listing a further candidate, then a routed connect
    request that must be delivered locally and answered.
    """
    edge = peer_edge_factory(node_ta)
    link = messages.LinkMessage(messages.LINK_REQUEST, 9, PEER_ADDR,
                                messages.CT_NEAR, messages.LINK_OK, 0,
                                node_ta, (edge.host.local_tas()[0],))
    edge.send(encode(make_link(PEER_ADDR, node.address, PAYLOAD_LINK,
                               messages.encode_link(link))))
    pump(lambda: len(peer_script.got) >= 1)

    status = messages.StatusMessage(messages.STATUS_REQUEST, 9,
                                    ((GHOST_ADDR, ("ring.udp:203.0.113.9:4000",)),))
    edge.send(encode(make_link(PEER_ADDR, node.address, PAYLOAD_STATUS,
                               messages.encode_status(status))))
    pump(lambda: len(peer_script.got) >= 2)

    request = messages.ConnectionRequest(
        messages.CONNECT_REQUEST, 4, REQUESTER_ADDR, messages.CT_SHORTCUT,
        ("ring.udp:203.0.113.10:4001",))
    edge.send(encode(make_routed(REQUESTER_ADDR, node.address, PAYLOAD_CONNECT,
                                 messages.encode_connect(request))))
    pump(lambda: len(peer_script.got) >= 3)
    return list(node.trace)


def parity_config() -> OverlayConfig:
    # Long timers so nothing fires during the scripted exchange.
    return OverlayConfig(status_interval=None, k_shortcuts=0,
                         tick_interval=500.0, handshake_timeout=500.0,
                         join_retry_timeout=500.0, push_status_debounce=500.0,
                         trace=True)


def run_script_sim():
    net = SimNetwork(SimConfig(seed=1))
    host = net.new_host()
    node = NodeState(1 << 150, host, parity_config(), Random(3))
    host.attach(node)
    node.joined = True
    peer_host = net.new_host()
    script = Script()
    peer_host.attach(script)

    def pump(done):
        for _ in range(200):
            if done():
                return
            net.run_until(net.now + 0.05)
        raise AssertionError("sim script stalled")

    return scripted_exchange(node, host.ta, script, peer_host.dial, pump)


def run_script_real():
    net = RealNetwork("udp")
    try:
        host = net.new_host()
        node = NodeState(1 << 150, host, parity_config(), Random(3))
        host.attach(node)
        node.joined = True
        peer_host = net.new_host()
        script = Script()
        peer_host.attach(script)

        def pump(done):
            if not wait_for(net, done, 10.0):
                raise AssertionError("real script stalled")

        return scripted_exchange(node, host.udp_ta, script, peer_host.dial, pump)
    finally:
        net.close()


def strip_tas(trace):
    # Traces carry addresses and decision kinds only, so they should not
    # need normalization; keep the helper to document the contract.
    return trace


def test_state_machine_parity_between_sim_and_real_edges():
    sim_trace = run_script_sim()
    real_trace = run_script_real()
    assert strip_tas(sim_trace) == strip_tas(real_trace)
    kinds = [entry[0] for entry in sim_trace]
    assert "commit" in kinds and "route" in kinds


def test_loopback_demo_three_nodes():
    assert loopback(3, "udp", budget=30.0).rows[-1].ring_correct_fraction == 1.0


def test_loopback_demo_single_node_is_trivially_correct():
    assert loopback(1, "udp", budget=5.0).rows[-1].ring_correct_fraction == 1.0


# TCP seeds that ended 20 s runs short of a correct ring while responders
# still reported the initiator's ephemeral source port back to it.
@pytest.mark.parametrize("n,transport,seed", [
    (32, "tcp", 1), (32, "tcp", 12), (32, "tcp", 13), (64, "tcp", 1),
    (64, "tcp", 3), (32, "mixed", 1), (64, "mixed", 1)])
def test_loopback_stream_rings_converge(n, transport, seed):
    trace = loopback(n, transport, budget=60.0, seed=seed)
    assert trace.rows[-1].ring_correct_fraction == 1.0
