"""Simulator tests: NAT filtering, determinism, churn model, scenarios."""

import copy
import gc
import weakref
from collections import deque
from random import Random

import pytest

from ringnet import messages, scenarios
from ringnet.node import NodeState, OverlayConfig
from ringnet.scenarios import (
    Bootstrap,
    Churn,
    MassiveFail,
    MassiveJoin,
    Merge,
    Scenario,
    ScenarioInvalid,
    ScenarioRunner,
    SimTrace,
    Wait,
    churn_events,
    run,
    take_snapshot,
)
from ringnet.simnet import (
    ConstantLatency,
    NatBox,
    NatKind,
    SimConfig,
    SimNetwork,
    UniformLatency,
)
from ringnet.transport import TimerQueue


# ----------------------------------------------------------------------
# NAT model


def test_port_restricted_cone_drops_unsolicited_inbound():
    box = NatBox(NatKind.PORT_RESTRICTED_CONE, "172.0.0.1")
    ext_ip, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    # Inbound from a peer the internal host never contacted: dropped.
    assert box.inbound_allowed(ext_port, "10.0.0.9", 7000) is False
    # Same IP, different source port: still dropped.
    assert box.inbound_allowed(ext_port, "10.0.0.1", 7001) is False
    # Exactly the contacted (ip, port): passes.
    assert box.inbound_allowed(ext_port, "10.0.0.1", 7000) is True


def test_inbound_before_any_outbound_has_no_mapping():
    box = NatBox(NatKind.PORT_RESTRICTED_CONE, "172.0.0.1")
    assert box.inbound_allowed(30000, "10.0.0.1", 7000) is False


def test_restricted_cone_filters_by_ip_only():
    box = NatBox(NatKind.RESTRICTED_CONE, "172.0.0.2")
    _, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    assert box.inbound_allowed(ext_port, "10.0.0.1", 9999) is True
    assert box.inbound_allowed(ext_port, "10.0.0.9", 7000) is False


def test_full_cone_passes_anyone_once_mapped():
    box = NatBox(NatKind.FULL_CONE, "172.0.0.3")
    _, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    assert box.inbound_allowed(ext_port, "10.9.9.9", 1234) is True


def test_symmetric_allocates_per_destination_mappings():
    box = NatBox(NatKind.SYMMETRIC, "172.0.0.4")
    _, port_a = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    _, port_b = box.outbound("192.168.0.2", 7000, "10.0.0.2", 7000)
    assert port_a != port_b
    # Only the mapping's own destination may answer on it.
    assert box.inbound_allowed(port_a, "10.0.0.1", 7000) is True
    assert box.inbound_allowed(port_a, "10.0.0.2", 7000) is False
    assert box.inbound_allowed(port_a, "10.0.0.1", 7001) is False


def _nated_pair(kind_a: NatKind, kind_b: NatKind, seed: int):
    """Two NATed nodes that know each other's translated addresses."""
    net = SimNetwork(SimConfig(seed=seed))
    cfg = OverlayConfig(status_interval=None, k_shortcuts=0, handshake_timeout=0.4)
    coordinator = net.new_host()

    class Sink:
        def on_datagram(self, edge, data):
            pass
        def stop(self):
            pass
    coordinator.attach(Sink())

    nodes = []
    for i, kind in enumerate((kind_a, kind_b)):
        host = net.new_host(nat=kind)
        node = NodeState(1000 + i * (1 << 120), host, cfg, Random(seed + i))
        host.attach(node)
        node.joined = True
        # Prime the NAT mapping the way a leaf exchange would.
        host.dial(coordinator.ta).send(b"x" * 46)
        nodes.append(node)
    net.run_until(net.now + 0.1)
    externals = []
    for node in nodes:
        box = node.host.nat_box
        ext_port = next(iter(box.mappings.values()))
        externals.append(f"ring.udp:{box.external_ip}:{ext_port}")
    return net, nodes, externals


def test_two_port_restricted_nodes_complete_link_handshake():
    net, (a, b), (ta_a, ta_b) = _nated_pair(
        NatKind.PORT_RESTRICTED_CONE, NatKind.PORT_RESTRICTED_CONE, seed=31)
    a.initiate_link([ta_b], messages.CT_NEAR, expect_addr=b.address)
    b.initiate_link([ta_a], messages.CT_NEAR, expect_addr=a.address)
    net.run_until(net.now + 15)
    assert a.table.get(b.address) is not None
    assert b.table.get(a.address) is not None
    assert net.stats["nat_dropped"] >= 1  # the hole-punch openers


def test_symmetric_nat_defeats_the_handshake():
    net, (a, b), (ta_a, ta_b) = _nated_pair(
        NatKind.PORT_RESTRICTED_CONE, NatKind.SYMMETRIC, seed=32)
    a.initiate_link([ta_b], messages.CT_NEAR, expect_addr=b.address)
    b.initiate_link([ta_a], messages.CT_NEAR, expect_addr=a.address)
    net.run_until(net.now + 30)
    assert a.table.get(b.address) is None
    assert b.table.get(a.address) is None


def test_nated_internal_address_is_unroutable_from_outside():
    net = SimNetwork(SimConfig(seed=33))
    host = net.new_host(nat=NatKind.PORT_RESTRICTED_CONE)
    received = []
    class Probe:
        def on_datagram(self, edge, data):
            received.append(data)
        def stop(self):
            pass
    host.attach(Probe())
    outsider = net.new_host()
    outsider.dial(host.ta).send(b"direct to internal address")
    net.run_until(net.now + 1)
    assert received == []
    assert net.stats["undeliverable"] == 1


@pytest.mark.parametrize("port", ["+7000", "7_000", " 7000", "\u0667\u0660\u0660\u0660"])
def test_a_port_spelled_other_than_in_ascii_digits_names_no_host(port):
    net = SimNetwork(SimConfig(seed=34))
    a, b = net.new_host(), net.new_host()
    received = []
    class Probe:
        def on_datagram(self, edge, data):
            received.append(data)
        def stop(self):
            pass
    b.attach(Probe())
    spelling = f"ring.udp:{b.ip}:{port}"
    assert a.dial(spelling) is None
    assert a.edges == {}
    net.transmit(a, spelling, b"x" * 46)
    net.run_until(net.now + 1)
    assert received == []
    assert net.stats["bad_destination"] == 1


# ----------------------------------------------------------------------
# latency, loss, determinism


def test_latency_models_sample_in_range():
    rng = Random(1)
    assert ConstantLatency(0.02).sample(rng, "a", "b") == 0.02
    for _ in range(100):
        v = UniformLatency(0.01, 0.05).sample(rng, "a", "b")
        assert 0.01 <= v <= 0.05


def test_uniform_latency_validates_bounds():
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)


def test_loss_rate_one_delivers_nothing():
    net = SimNetwork(SimConfig(seed=1, loss_rate=1.0))
    a, b = net.new_host(), net.new_host()
    got = []
    class Probe:
        def on_datagram(self, edge, data):
            got.append(data)
        def stop(self):
            pass
    b.attach(Probe())
    for _ in range(20):
        a.dial(b.ta).send(b"payload")
    net.run_until(net.now + 1)
    assert got == []
    assert net.stats["lost"] == 20


def test_loss_rate_validation():
    with pytest.raises(ValueError):
        SimConfig(loss_rate=1.5)


class LaneHost:
    """A host whose deliveries call ``fn(data)``."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def _receive(self, src_ta, data):
        self.fn(data)


def lane_append(queue, when, host, data):
    """Put a delivery of ``data`` to ``host`` on the queue's lane, as
    ``SimNetwork.transmit`` does."""
    queue._lane.append((when, next(queue._seq), host, "ring.udp:10.0.0.1:7000", data))


def test_timer_queue_fires_lane_and_heap_in_scheduling_order():
    queue = TimerQueue()
    fired = []
    host = LaneHost(fired.append)
    lane_append(queue, 1.0, host, "lane a")
    queue.push(1.0, fired.append, "heap b")
    cancelled = queue.push(0.5, fired.append, "cancelled")
    lane_append(queue, 1.0, host, "lane c")
    queue.push(0.5, fired.append, "heap d")
    lane_append(queue, 2.0, host, "lane e")
    queue.push(3.0, fired.append, "heap f")
    cancelled.cancel()
    assert queue.fire_due(0.4) == 0.5       # the heap's head is earlier
    assert fired == []
    assert queue.fire_due(1.0) == 2.0       # the lane's head is earlier
    assert fired == ["heap d", "lane a", "heap b", "lane c"]
    assert queue.fire_due(2.5) == 3.0
    assert queue.fire_due(3.0) is None
    assert fired[4:] == ["lane e", "heap f"]


def test_timer_queue_fires_what_a_lane_entry_schedules_in_due_order():
    queue = TimerQueue()
    fired = []

    class Clock:
        now = 0.0

    def first(data):
        fired.append(("first", clock.now))
        queue.push(1.5, lambda: fired.append(("pushed", clock.now)))
        queue.push(2.0, lambda: fired.append(("pushed later", clock.now)))

    clock = Clock()
    lane_append(queue, 1.0, LaneHost(first), b"")
    lane_append(queue, 2.0, LaneHost(lambda data: fired.append(("second", clock.now))),
                b"")
    assert queue.fire_due(5.0, clock) is None
    assert fired == [("first", 1.0), ("pushed", 1.5), ("second", 2.0),
                     ("pushed later", 2.0)]


def _lane_or_heap_run(latency, monkeypatch, taken_snapshots):
    """A bootstrap, churn and settle; what it measured and the number of
    deliveries that waited in the timer queue's FIFO lane."""
    taken_snapshots.clear()
    appended = [0]
    init = TimerQueue.__init__

    class CountingLane(deque):
        def append(self, entry):
            appended[0] += 1
            super().append(entry)

    def counting_init(self):
        init(self)
        self._lane = CountingLane()

    monkeypatch.setattr(TimerQueue, "__init__", counting_init)
    scenario = Scenario([Bootstrap(32, spacing=0.25), Wait(3), Churn(10, 0.02),
                         Wait(5)], measurement_interval=2, pair_budget=200)
    runner = ScenarioRunner(scenario, SimConfig(seed=17, latency=latency),
                            OverlayConfig(k_shortcuts=2, status_interval=1.5))
    trace = runner.run()
    return (trace.rows, list(taken_snapshots), trace.establish_durations,
            dict(runner.network.stats)), appended[0]


def test_constant_latency_lane_runs_exactly_as_the_heap(monkeypatch, taken_snapshots):
    # The network's rng feeds only loss (none here) and latency, and
    # uniform(c, c) is exactly c, so the two runs see the same delays.
    lane, appended = _lane_or_heap_run(ConstantLatency(0.01), monkeypatch,
                                       taken_snapshots)
    heap, none_appended = _lane_or_heap_run(UniformLatency(0.01, 0.01), monkeypatch,
                                            taken_snapshots)
    assert none_appended == 0
    assert appended == lane[3]["datagrams"] - lane[3]["undeliverable"] > 0
    assert lane[2] and any(row.live_nodes < 32 for row in lane[0])
    assert lane == heap


def test_no_timer_outlives_its_node_its_record_or_a_tick(monkeypatch):
    """At the end of a churn run with departures and respawns: no timer
    still due is bound to a stopped node, every retry timer still due
    belongs to a record its node holds, and no deadline-kept entry is more
    than one tick past its deadline."""
    stopped = []
    stop = NodeState.stop

    def recording_stop(self):
        stopped.append(self)
        stop(self)

    monkeypatch.setattr(NodeState, "stop", recording_stop)
    overlay = OverlayConfig(k_shortcuts=2, status_interval=1.5)
    scenario = Scenario([Bootstrap(32, spacing=0.25), Wait(3), Churn(10, 0.02)],
                        measurement_interval=2, pair_budget=200)
    # With loss, some connect requests go unanswered and must expire.
    runner = ScenarioRunner(scenario, SimConfig(seed=17, loss_rate=0.1), overlay)
    runner.run()
    net = runner.network
    retrying = 0
    for _, _, timer in net._timers._heap:
        node = getattr(timer.fn, "__self__", None)
        if timer.cancelled or not isinstance(node, NodeState):
            continue
        assert node not in stopped
        if timer.fn.__func__ is NodeState._retry_due:
            retrying += 1
            pending = [*node.pending_links.values(), *node.pending_probes.values()]
            assert any(rec is timer.args[0] for rec in pending)
    assert stopped and retrying
    kept = [rec for node in runner.live_nodes()
            for rec in [*node.pending_requests.values(), *node.provisional.values()]]
    assert kept and all(net.now - rec.expires <= overlay.tick_interval for rec in kept)


def test_identical_seed_gives_identical_trace(tmp_path):
    scenario = Scenario([Bootstrap(12, spacing=0.4), Wait(5),
                         Churn(10, 0.02), Wait(5)],
                        measurement_interval=2, pair_budget=100)
    outputs = []
    for run_index in range(2):
        directory = tmp_path / f"run-{run_index}"
        run(scenario, SimConfig(seed=77), trace=SimTrace(str(directory)))
        outputs.append((directory / "trace.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_different_seed_changes_the_trace(taken_snapshots):
    scenario = Scenario([Bootstrap(12, spacing=0.4), Wait(5)],
                        measurement_interval=2, pair_budget=100)
    run(scenario, SimConfig(seed=1))
    a = list(taken_snapshots)
    taken_snapshots.clear()
    run(scenario, SimConfig(seed=2))
    assert a and tuple(s.nodes for s in a) != tuple(s.nodes for s in taken_snapshots)


def test_a_run_keeps_only_its_newest_snapshot(monkeypatch):
    refs = []
    take = scenarios.take_snapshot

    def referencing(nodes, timestamp):
        snap = take(nodes, timestamp)
        refs.append(weakref.ref(snap))
        return snap

    monkeypatch.setattr(scenarios, "take_snapshot", referencing)
    scenario = Scenario([Bootstrap(8, spacing=0.3), Wait(6)],
                        measurement_interval=1, pair_budget=50)
    trace = ScenarioRunner(scenario, SimConfig(seed=3)).run()
    gc.collect()
    assert len(refs) > 5
    assert [ref() for ref in refs[:-1]] == [None] * (len(refs) - 1)
    assert refs[-1]() is trace.snapshot


@pytest.mark.parametrize("phases, end", [
    ([Bootstrap(4, spacing=0.5), Wait(4)], 6.0),       # ends on an interval
    ([Bootstrap(4, spacing=0.5), Wait(3.5)], 5.5),     # ends between two
    ([Merge(4, 4, settle=1.0), Wait(5)], 6.0),
], ids=["on-interval", "off-interval", "merge"])
def test_no_run_measures_an_unchanged_instant_twice(taken_snapshots, phases, end):
    trace = run(Scenario(phases, measurement_interval=2, pair_budget=50),
                SimConfig(seed=3))
    times = [row.simulated_time_s for row in trace.rows]
    assert times[-1] == end
    assert len(set(times)) == len(times)
    assert [snap.timestamp for snap in taken_snapshots] == times


@pytest.mark.parametrize("phases", [
    [Bootstrap(4, spacing=0.5), Wait(4), MassiveFail(count=2)],
    [Bootstrap(4, spacing=0.5), Wait(4), MassiveJoin(3)],
    [Bootstrap(4, spacing=0.5), Churn(4, p_leave=0.5)],  # departures at 6 s
], ids=["massive-fail", "massive-join", "churn"])
def test_nodes_that_come_or_go_at_a_measured_instant_get_a_final_row(phases):
    runner = ScenarioRunner(Scenario(phases, measurement_interval=2, pair_budget=50),
                            SimConfig(seed=3))
    trace = runner.run()
    assert trace.rows[-2].simulated_time_s == trace.rows[-1].simulated_time_s == 6.0
    assert trace.rows[-1].live_nodes == len(runner.handles)
    assert trace.snapshot == take_snapshot(runner.live_nodes(), 6.0)


def test_abrupt_departure_sends_no_goodbye():
    net = SimNetwork(SimConfig(seed=5))
    cfg = OverlayConfig(status_interval=None, k_shortcuts=0)
    from ringnet.topology import seed_ring
    nodes = seed_ring(net, 6, Random(3), cfg)
    net.run_until(net.now + 2)
    before = net.stats["datagrams"]
    victim = nodes[sorted(nodes)[0]]
    victim.host.shutdown()
    assert net.stats["datagrams"] == before
    # Its neighbors still hold the now-dead connections.
    survivor = nodes[sorted(nodes)[1]]
    assert survivor.table.get(victim.address) is not None


# ----------------------------------------------------------------------
# churn event model


def test_churn_probability_zero_means_no_departures():
    assert churn_events([1, 2, 3], 0.0, 1000, Random(1)) == []


def _mean_session(p: float, population: int, duration: int, seed: int) -> float:
    # Exposure over events: the censoring-correct estimator of the mean
    # session length (plain averaging of completed gaps inside a finite
    # window is biased low because long sessions rarely finish in it).
    events = churn_events(list(range(population)), p, duration, Random(seed))
    assert len(events) > 400
    return population * duration / len(events)


def test_churn_mean_session_twelve_minutes():
    # p = 1/720 per second gives geometric sessions with mean 720 s.
    assert abs(_mean_session(1 / 720, 400, 10_000, seed=4) - 720) <= 0.05 * 720


def test_churn_mean_session_5_point_7_minutes():
    assert abs(_mean_session(1 / 342, 400, 6_000, seed=5) - 342) <= 0.05 * 342


def test_churned_nodes_rejoin_and_keep_address():
    scenario = Scenario([Bootstrap(10, spacing=0.3), Wait(5), Churn(20, 0.05),
                         Wait(15)], measurement_interval=5, pair_budget=100)
    runner = ScenarioRunner(scenario, SimConfig(seed=11))
    trace = runner.run()
    assert trace.rows[-1].live_nodes == 10
    assert trace.rows[-1].ring_correct_fraction == 1.0
    assert set(trace.snapshot.nodes) == set(
        h.address for h in runner.handles.values())


def test_a_deep_copied_runner_respawns_on_its_own_network():
    runner = ScenarioRunner(Scenario([Bootstrap(8, spacing=0.25), Wait(5)]),
                            SimConfig(seed=1))
    runner.run()
    fork = copy.deepcopy(runner)
    nid, node = next(iter(fork.handles.items()))
    original = runner.handles[nid]
    node.on_join_failed(node, "timeout")
    # The respawn is due a second later, on the copy's network only.
    runner.network.run_until(runner.network.now + 1.5)
    fork.network.run_until(fork.network.now + 1.5)
    assert runner.handles[nid] is original
    assert fork.handles[nid] is not node
    assert fork.handles[nid].address == node.address


def test_a_deep_copied_runner_with_deliveries_in_flight_runs_as_the_original():
    """A copy taken while datagrams wait in the lane delivers them to its
    own hosts, and the copy and the original then run alike."""
    runner = ScenarioRunner(Scenario([Bootstrap(16, spacing=0.25), Wait(3)]),
                            SimConfig(seed=2),
                            OverlayConfig(k_shortcuts=2, status_interval=1.0))
    runner.run()
    lane = runner.network._timers._lane
    while not lane:
        runner.network.run_until(runner.network.now + 0.001)
    fork = copy.deepcopy(runner)
    originals = {id(host) for host in runner.network.plain_tas.values()}
    originals.update(id(entry[2]) for entry in lane)
    assert len(fork.network._timers._lane) == len(lane)
    for entry in fork.network._timers._lane:
        assert id(entry[2]) not in originals
        assert fork.network.plain_tas[entry[2].ta] is entry[2]
    for net in (runner.network, fork.network):
        net.run_until(net.now + 4)
    for entry in fork.network._timers._lane:
        assert id(entry[2]) not in originals
    assert dict(fork.network.stats) == dict(runner.network.stats)
    assert fork.handles.keys() == runner.handles.keys()
    for nid, node in runner.handles.items():
        copied = fork.handles[nid]
        assert copied is not node
        assert dict(copied.stats) == dict(node.stats)
        assert sorted(copied.table.by_peer) == sorted(node.table.by_peer)


# ----------------------------------------------------------------------
# scenario validation


def test_scenario_validation_errors():
    with pytest.raises(ScenarioInvalid):
        Scenario([Bootstrap(0)]).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario([Churn(10, 1.5)]).validate()
    for duration in (0.5, 2.5):
        with pytest.raises(ScenarioInvalid, match="whole number of seconds"):
            Scenario([Churn(duration, 0.1)]).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario([MassiveFail()]).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario([MassiveFail(count=3, fraction=0.5)]).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario([Bootstrap(4)], measurement_interval=0).validate()


def test_massive_fail_beyond_population_is_invalid():
    scenario = Scenario([Bootstrap(4, spacing=0.2), Wait(2), MassiveFail(count=4)],
                        measurement_interval=5, pair_budget=50)
    with pytest.raises(ScenarioInvalid):
        run(scenario, SimConfig(seed=3))


def test_merge_requires_empty_population():
    scenario = Scenario([Bootstrap(2, spacing=0.2), Merge(4, 4)],
                        measurement_interval=5, pair_budget=50)
    with pytest.raises(ScenarioInvalid):
        run(scenario, SimConfig(seed=3))


# ----------------------------------------------------------------------
# transmit: destination lookup


class _Probe:
    """Records (sender ta as seen by the receiver, bytes) per datagram."""

    def __init__(self):
        self.got = []

    def on_datagram(self, edge, data):
        self.got.append((edge.remote_ta, data))

    def stop(self):
        pass


def _probed_host(net, nat=None):
    host = net.new_host(nat=nat)
    probe = _Probe()
    host.attach(probe)
    return host, probe


def test_alias_spellings_reach_the_host_of_its_own_ta():
    net = SimNetwork(SimConfig(seed=40))
    sender = net.new_host()
    target, probe = _probed_host(net)
    assert target.ta == f"ring.udp:{target.ip}:7000"
    spellings = (target.ta, f"udp:{target.ip}:7000", f"RING.UDP:{target.ip}:7000",
                 f"ring.udp:{target.ip}:07000")
    for ta in spellings:
        net.transmit(sender, ta, ta.encode())
    net.run_until(net.now + 1)
    assert [data for _, data in probe.got] == [ta.encode() for ta in spellings]
    assert {src for src, _ in probe.got} == {sender.ta}
    assert net.stats["datagrams"] == 4
    assert net.stats["undeliverable"] == net.stats["bad_destination"] == 0


def test_alias_spellings_dial_one_edge_under_the_one_spelling():
    net = SimNetwork(SimConfig(seed=40))
    host, target = net.new_host(), net.new_host()
    # Aliases dialed before and after the host's own ta.
    edges = {host.dial(ta) for ta in (
        f"ring.udp:{target.ip}:07000", f"ring.udp:{target.ip}:7000",
        f"RING.UDP:{target.ip}:7000", f"udp:{target.ip}:7000")}
    assert len(edges) == 1
    assert host.edges == {target.ta: edges.pop()}
    assert host.edges[target.ta].remote == target.ta


def test_a_dead_hosts_ta_dials_an_edge_whose_datagrams_are_undeliverable():
    net = SimNetwork(SimConfig(seed=44))
    host = net.new_host()
    target, probe = _probed_host(net)
    ta = target.ta
    target.shutdown()
    edge = host.dial(ta)
    assert host.dial(f"RING.UDP:{target.ip}:7000") is edge
    assert host.edges == {ta: edge} and edge.remote == ta
    edge.send(b"late")
    net.run_until(net.now + 1)
    assert probe.got == []
    assert net.stats["undeliverable"] == 1


@pytest.mark.parametrize("ta", ["", "ring.udp:10.0.0.2", "ring.sctp:10.0.0.2:7000",
                                "ring.udp::7000", "ring.udp:10.0.0.2:0",
                                "ring.udp:10.0.0.2:70000", "ring.udp:10.0.0.2:7000:1"])
def test_a_malformed_ta_dials_nothing(ta):
    net = SimNetwork(SimConfig(seed=45))
    host, target = net.new_host(), net.new_host()
    assert target.ta == "ring.udp:10.0.0.2:7000"
    assert host.dial(ta) is None
    assert host.edges == {}


def test_a_tcp_spelling_reaches_no_simulated_host():
    # A simulated host is a UDP endpoint; the TCP address of the same ip
    # and port names another endpoint, which nobody listens on.
    net = SimNetwork(SimConfig(seed=40))
    sender = net.new_host()
    target, probe = _probed_host(net)
    inner, inner_probe = _probed_host(net, nat=NatKind.FULL_CONE)
    net.transmit(inner, sender.ta, b"open the mapping")
    external = next(iter(inner.nat_box.mappings.values()))
    net.transmit(sender, f"ring.tcp:{target.ip}:7000", b"x")
    net.transmit(sender, f"ring.tcp:{inner.nat_box.external_ip}:{external}", b"x")
    net.run_until(net.now + 1)
    assert probe.got == inner_probe.got == []
    assert net.stats["undeliverable"] == 2


def test_removed_host_ta_is_undeliverable():
    net = SimNetwork(SimConfig(seed=41))
    sender = net.new_host()
    target, probe = _probed_host(net)
    ta = target.ta
    target.shutdown()
    net.transmit(sender, ta, b"late")
    net.transmit(sender, f"udp:{target.ip}:7000", b"late alias")
    net.run_until(net.now + 1)
    assert probe.got == []
    assert net.stats["undeliverable"] == 2


def test_wrong_port_of_a_live_host_is_undeliverable():
    net = SimNetwork(SimConfig(seed=42))
    sender = net.new_host()
    target, probe = _probed_host(net)
    net.transmit(sender, f"ring.udp:{target.ip}:7001", b"x")
    net.run_until(net.now + 1)
    assert probe.got == []
    assert net.stats["undeliverable"] == 1


def test_nated_host_is_reached_only_through_its_external_mapping():
    net = SimNetwork(SimConfig(seed=43))
    outsider, outsider_probe = _probed_host(net)
    inner, inner_probe = _probed_host(
        net, nat=NatKind.PORT_RESTRICTED_CONE)
    # The NATed host speaks first, to the outsider's own ta.
    net.transmit(inner, outsider.ta, b"hello")
    net.run_until(net.now + 1)
    [(external_ta, data)] = outsider_probe.got
    assert data == b"hello"
    assert external_ta != inner.ta
    assert external_ta.startswith(f"ring.udp:{inner.nat_box.external_ip}:")
    net.transmit(outsider, inner.ta, b"to internal address")
    net.transmit(outsider, external_ta, b"to external mapping")
    net.run_until(net.now + 1)
    assert inner_probe.got == [(outsider.ta, b"to external mapping")]
    assert net.stats["undeliverable"] == 1


def test_malformed_destination_counts_bad_destination():
    net = SimNetwork(SimConfig(seed=44))
    sender = net.new_host()
    _, probe = _probed_host(net)
    for ta in ("garbage", "ring.udp:10.0.0.2", "ring.sctp:10.0.0.2:7000",
               "ring.udp:10.0.0.2:0", "ring.udp::7000", "ring.udp:10.0.0.2:x"):
        net.transmit(sender, ta, b"x")
    net.run_until(net.now + 1)
    assert probe.got == []
    assert net.stats["bad_destination"] == 6
    assert net.stats["datagrams"] == 6


def test_every_datagram_is_delivered_dropped_or_in_flight(monkeypatch):
    """datagrams = delivered + undeliverable + bad_destination +
    nat_dropped + lost + in flight, on a lossy 16-node ring with a NATed
    member: each datagram that does not arrive counts in one bucket."""
    from ringnet.simnet import SimHost
    from ringnet.topology import seed_ring

    delivered = [0]
    receive = SimHost._receive

    def counting_receive(self, src_ta, data):
        delivered[0] += 1
        receive(self, src_ta, data)

    monkeypatch.setattr(SimHost, "_receive", counting_receive)
    net = SimNetwork(SimConfig(seed=45, latency=UniformLatency(0.01, 0.08),
                               loss_rate=0.05))
    nodes = seed_ring(net, 16, Random(45), OverlayConfig(status_interval=0.5), k=2)
    nated, _ = _probed_host(net, nat=NatKind.PORT_RESTRICTED_CONE)
    ring = sorted(nodes)
    dead = nodes[ring[3]].host
    net.run_until(net.now + 3)
    dead.shutdown()
    for i in range(40):
        src = nodes[ring[i % 16]].host
        if src is not dead:
            net.transmit(src, nated.ta if i % 2 else nated.ta + ":x", b"stray")
    net.transmit(nated, nodes[ring[0]].host.ta, bytes(46))
    net.run_until(net.now + 1)
    external = next(iter(nated.nat_box.mappings.values()))
    external_ta = f"ring.udp:{nated.nat_box.external_ip}:{external}"
    net.transmit(nodes[ring[0]].host, external_ta, b"answer")
    net.transmit(nodes[ring[5]].host, external_ta, b"unsolicited")
    net.run_until(net.now + 3)

    def dropped():
        s = net.stats
        return (s["undeliverable"] + s["bad_destination"] + s["nat_dropped"]
                + s["lost"])

    sent_at_cut = net.stats["datagrams"]
    settled_at_cut = delivered[0] + dropped()
    for node in nodes.values():
        node.host.shutdown()
    nated.shutdown()
    net.run_until(net.now + 1)
    # Nothing is sent after the cut; what was in flight then lands now.
    assert net.stats["datagrams"] == sent_at_cut
    assert sent_at_cut == delivered[0] + dropped()
    assert 0 < sent_at_cut - settled_at_cut
    for key in ("undeliverable", "bad_destination", "nat_dropped", "lost"):
        assert net.stats[key] > 0, key
