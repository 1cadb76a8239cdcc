"""Simulator tests: NAT filtering, determinism, churn model, scenarios."""

from random import Random
from statistics import mean

import pytest

from ringnet import messages
from ringnet.connections import NEAR
from ringnet.node import NodeState, OverlayConfig
from ringnet.scenarios import (
    Bootstrap,
    Churn,
    MassiveFail,
    Merge,
    Scenario,
    ScenarioInvalid,
    ScenarioRunner,
    Wait,
    churn_events,
    run,
    take_snapshot,
)
from ringnet.simnet import (
    ConstantLatency,
    NatBox,
    NatKind,
    NatProfile,
    SimConfig,
    SimNetwork,
    UniformLatency,
)


# ----------------------------------------------------------------------
# NAT model


def test_port_restricted_cone_drops_unsolicited_inbound():
    box = NatBox(NatProfile(NatKind.PORT_RESTRICTED_CONE), "172.0.0.1")
    ext_ip, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    # Inbound from a peer the internal host never contacted: dropped.
    assert box.inbound_allowed(ext_port, "10.0.0.9", 7000) is False
    # Same IP, different source port: still dropped.
    assert box.inbound_allowed(ext_port, "10.0.0.1", 7001) is False
    # Exactly the contacted (ip, port): passes.
    assert box.inbound_allowed(ext_port, "10.0.0.1", 7000) is True


def test_inbound_before_any_outbound_has_no_mapping():
    box = NatBox(NatProfile(NatKind.PORT_RESTRICTED_CONE), "172.0.0.1")
    assert box.inbound_allowed(30000, "10.0.0.1", 7000) is False


def test_restricted_cone_filters_by_ip_only():
    box = NatBox(NatProfile(NatKind.RESTRICTED_CONE), "172.0.0.2")
    _, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    assert box.inbound_allowed(ext_port, "10.0.0.1", 9999) is True
    assert box.inbound_allowed(ext_port, "10.0.0.9", 7000) is False


def test_full_cone_passes_anyone_once_mapped():
    box = NatBox(NatProfile(NatKind.FULL_CONE), "172.0.0.3")
    _, ext_port = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    assert box.inbound_allowed(ext_port, "10.9.9.9", 1234) is True


def test_symmetric_allocates_per_destination_mappings():
    box = NatBox(NatProfile(NatKind.SYMMETRIC), "172.0.0.4")
    _, port_a = box.outbound("192.168.0.2", 7000, "10.0.0.1", 7000)
    _, port_b = box.outbound("192.168.0.2", 7000, "10.0.0.2", 7000)
    assert port_a != port_b
    # Only the mapping's own destination may answer on it.
    assert box.inbound_allowed(port_a, "10.0.0.1", 7000) is True
    assert box.inbound_allowed(port_a, "10.0.0.2", 7000) is False


def _nated_pair(kind_a: NatKind, kind_b: NatKind, seed: int):
    """Two NATed nodes that know each other's translated addresses."""
    net = SimNetwork(SimConfig(seed=seed))
    cfg = OverlayConfig(status_interval=None, k_shortcuts=0,
                        handshake_timeout=0.4, handshake_retries=4)
    coordinator = net.new_host()

    class Sink:
        def on_datagram(self, edge, data):
            pass
        def stop(self):
            pass
    coordinator.attach(Sink())

    nodes = []
    for i, kind in enumerate((kind_a, kind_b)):
        host = net.new_host(nat=NatProfile(kind))
        node = NodeState(1000 + i * (1 << 120), host, cfg, Random(seed + i))
        host.attach(node)
        node.joined = True
        # Prime the NAT mapping the way a leaf exchange would.
        host.dial(coordinator.ta).send(b"x" * 46)
        nodes.append(node)
    net.run_for(0.1)
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
    net.run_for(15)
    assert a.table.get(b.address) is not None
    assert b.table.get(a.address) is not None
    assert net.stats["nat_dropped"] >= 1  # the hole-punch openers


def test_symmetric_nat_defeats_the_handshake():
    net, (a, b), (ta_a, ta_b) = _nated_pair(
        NatKind.PORT_RESTRICTED_CONE, NatKind.SYMMETRIC, seed=32)
    a.initiate_link([ta_b], messages.CT_NEAR, expect_addr=b.address)
    b.initiate_link([ta_a], messages.CT_NEAR, expect_addr=a.address)
    net.run_for(30)
    assert a.table.get(b.address) is None
    assert b.table.get(a.address) is None


def test_nated_internal_address_is_unroutable_from_outside():
    net = SimNetwork(SimConfig(seed=33))
    host = net.new_host(nat=NatProfile(NatKind.PORT_RESTRICTED_CONE))
    received = []
    class Probe:
        def on_datagram(self, edge, data):
            received.append(data)
        def stop(self):
            pass
    host.attach(Probe())
    outsider = net.new_host()
    outsider.dial(host.ta).send(b"direct to internal address")
    net.run_for(1)
    assert received == []
    assert net.stats["undeliverable"] == 1


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
    net.run_for(1)
    assert got == []
    assert net.stats["lost"] == 20


def test_loss_rate_validation():
    with pytest.raises(ValueError):
        SimConfig(loss_rate=1.5)


def test_identical_seed_gives_identical_trace(tmp_path):
    scenario = Scenario([Bootstrap(12, spacing=0.4), Wait(5),
                         Churn(10, 0.02), Wait(5)],
                        measurement_interval=2, pair_budget=100)
    outputs = []
    for run_index in range(2):
        trace = run(scenario, SimConfig(seed=77))
        path = tmp_path / f"trace-{run_index}.csv"
        trace.to_csv(str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_different_seed_changes_the_trace(tmp_path):
    scenario = Scenario([Bootstrap(12, spacing=0.4), Wait(5)],
                        measurement_interval=2, pair_budget=100)
    a = run(scenario, SimConfig(seed=1))
    b = run(scenario, SimConfig(seed=2))
    assert tuple(s.nodes for s in a.snapshots) != tuple(s.nodes for s in b.snapshots)


def test_abrupt_departure_sends_no_goodbye():
    net = SimNetwork(SimConfig(seed=5))
    cfg = OverlayConfig(status_interval=None, k_shortcuts=0)
    from ringnet.topology import seed_ring
    nodes = seed_ring(net, 6, Random(3), cfg)
    net.run_for(2)
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
    first = trace.snapshots[0].nodes if trace.snapshots else ()
    assert set(trace.snapshots[-1].nodes) == set(
        h.address for h in runner.handles.values())


# ----------------------------------------------------------------------
# scenario validation


def test_scenario_validation_errors():
    with pytest.raises(ScenarioInvalid):
        Scenario([Bootstrap(0)]).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario([Churn(10, 1.5)]).validate()
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
