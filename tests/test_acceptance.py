"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they complete.  The whole suite is deterministic: every
scenario seed is frozen.
"""

import math
import time
from random import Random
from statistics import mean

import numpy as np
import pytest

from ringnet import messages
from ringnet.metrics import (
    hop_law,
    missing_edges,
    ring_correct,
    routability,
    shortcut_cdf,
)
from ringnet.node import OverlayConfig
from ringnet.packet import HEADER_LEN, Packet, PacketHeader, decode, encode
from ringnet.packet import TYPE_LINK, TYPE_ROUTED
from ringnet.scenarios import (
    Bootstrap,
    Churn,
    MassiveJoin,
    Merge,
    Scenario,
    ScenarioRunner,
    SimTrace,
    Wait,
    churn_sweep,
    grow,
    massive_dynamics,
    take_snapshot,
)
from ringnet.simnet import NatKind, SimConfig, SimNetwork
from ringnet.topology import seed_ring, synthetic_snapshot


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def fit_r2(xs, ys) -> float:
    """R^2 of a least-squares straight-line fit of ys on xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    ss_res = float(((ys - design @ coef) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return 1.0 if ss_tot == 0 else 1 - ss_res / ss_tot


# ----------------------------------------------------------------------
# 1. codec exactness


def test_01_codec_exactness():
    started = time.monotonic()
    rng = Random(1)
    for _ in range(10_000):
        pkt = Packet(
            PacketHeader(rng.choice((TYPE_LINK, TYPE_ROUTED)),
                         rng.randrange(1 << 16), rng.randrange(1 << 16),
                         rng.getrandbits(160), rng.getrandbits(160),
                         rng.randrange(256)),
            rng.randbytes(rng.randrange(120)))
        raw = encode(pkt)
        assert len(raw) == HEADER_LEN + len(pkt.payload)
        assert decode(raw) == pkt
    elapsed = time.monotonic() - started
    report(1, "codec exactness", elapsed < 5.0,
           f"10^4 round trips bit-identical, header {HEADER_LEN} B, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 2. ring formation


def test_02_ring_formation_256():
    scenario = Scenario([Bootstrap(256, spacing=0.25), Wait(15)],
                        measurement_interval=30, pair_budget=400)
    overlay = OverlayConfig(status_interval=None)
    trace = ScenarioRunner(scenario, SimConfig(seed=2), overlay).run()
    snap = trace.snapshot
    _, correct = ring_correct(snap)
    full = routability(snap)  # exhaustive: all 256*255 ordered pairs
    ok = (len(snap.nodes) == 256 and correct == 1.0
          and full.routability == 1.0 and missing_edges(snap) == 0)
    report(2, "ring formation @256", ok,
           f"ring_correct={correct:.3f} routability={full.routability:.3f} "
           f"over {full.pairs_tested} pairs")


# ----------------------------------------------------------------------
# 3. shortcut distance law (converged overlay, k=4, N=1024)


def grown_overlay() -> OverlayConfig:
    return OverlayConfig(k_shortcuts=4, status_interval=None)


@pytest.fixture(scope="module")
def converged_1024():
    return grow(1024, 42, grown_overlay())


def test_03_shortcut_law_1024(converged_1024):
    snap = converged_1024.trace.snapshot
    _, correct = ring_correct(snap)
    assert len(snap.nodes) == 1024 and correct == 1.0
    law = shortcut_cdf(snap)
    ok = law.ks_distance < 0.05 and law.samples >= 4000
    report(3, "shortcut law @1024 k=4", ok,
           f"KS={law.ks_distance:.4f} over {law.samples} shortcut edges")


# ----------------------------------------------------------------------
# 4. hop-count scaling


def test_04_hop_scaling():
    k = 4
    hops = {}
    for n in (256, 1024, 4096):
        snap = synthetic_snapshot(n, k=k, seed=1000 + n)
        rep = routability(snap, pair_budget=10_000, seed=5)
        assert rep.routability == 1.0
        hops[n] = rep.mean_hops
    _, deviations = hop_law(hops, k)
    shape_ok = all(d < 0.25 for d in deviations.values())

    slow = routability(synthetic_snapshot(1024, k=1, seed=77),
                       pair_budget=10_000, seed=5).mean_hops
    fast = routability(synthetic_snapshot(1024, k=4, seed=77),
                       pair_budget=10_000, seed=5).mean_hops
    ratio_ok = slow / fast >= 2.0
    report(4, "hop scaling c*log^2(N)/k", shape_ok and ratio_ok,
           f"hops={ {n: round(h, 2) for n, h in hops.items()} } "
           f"max_dev={max(deviations.values()):.1%} "
           f"k1/k4 ratio={slow / fast:.2f}")


# ----------------------------------------------------------------------
# 5. massive join


def test_05_massive_join_recovery():
    trace = massive_dynamics(256, 250, seed=11)

    join_i = next(i for i, r in enumerate(trace.rows) if r.live_nodes > 256)
    rows = trace.rows[join_i:]
    rt = [r.routability for r in rows]
    missing = [r.missing_edges for r in rows]

    dipped = min(rt) < 1.0
    zero_i = next((i for i, v in enumerate(missing) if v == 0), None)
    within_budget = zero_i is not None and zero_i <= 50
    recovered_i = next(i for i, v in enumerate(rt) if v >= 1.0 - 1e-9)
    monotone = all(b >= a - 0.02 for a, b in zip(rt[:recovered_i],
                                                 rt[1:recovered_i + 1]))
    # Geometric decay of missing edges, from where the decline is
    # established (below 90% of peak) down to the last positive count.
    peak = max(missing[:zero_i + 1])
    start = next(i for i, v in enumerate(missing) if v < 0.9 * peak)
    decay = missing[start:zero_i]
    r2 = fit_r2(range(len(decay)), np.log(decay))
    final_ok = trace.rows[-1].missing_edges == 0 and trace.rows[-1].routability == 1.0

    ok = dipped and within_budget and monotone and r2 >= 0.9 and final_ok
    report(5, "massive join 256+250", ok,
           f"dip={min(rt):.3f} zero_at_interval={zero_i} monotone={monotone} "
           f"decay_R2={r2:.3f} over {len(decay)} points")


# ----------------------------------------------------------------------
# 6. massive failure


def test_06_massive_failure_recovery():
    net = SimNetwork(SimConfig(seed=6))
    overlay = OverlayConfig(k_shortcuts=4, status_interval=3.0)
    nodes = seed_ring(net, 512, Random(66), overlay, k=4)
    net.run_until(net.now + 5)
    snap = take_snapshot(list(nodes.values()), net.now)
    assert ring_correct(snap)[1] == 1.0 and missing_edges(snap) == 0

    rng = Random(13)
    for victim in rng.sample(sorted(nodes), round(0.3 * 512)):
        nodes[victim].host.shutdown()
        del nodes[victim]
    survivors = list(nodes.values())

    recovered_at = None
    for _ in range(24):  # up to 120 simulated seconds
        net.run_until(net.now + 5)
        snap = take_snapshot(survivors, net.now)
        if missing_edges(snap) == 0:
            recovered_at = net.now
            break
    full = routability(snap, pair_budget=6000, seed=1)
    ok = recovered_at is not None and full.routability == 1.0
    report(6, "massive failure 512 kill 30%", ok,
           f"{len(survivors)} survivors, repaired by t={recovered_at}, "
           f"routability={full.routability:.3f}")


# ----------------------------------------------------------------------
# 7. ring merge


def test_07_ring_merge():
    scenario = Scenario([Merge(128, 128, settle=2.0), Wait(150)],
                        measurement_interval=10, pair_budget=800)
    overlay = OverlayConfig(status_interval=None, k_shortcuts=2)
    trace = ScenarioRunner(scenario, SimConfig(seed=5), overlay).run()
    final = trace.rows[-1]
    merged_ok = (final.live_nodes == 257
                 and final.ring_correct_fraction == 1.0
                 and final.missing_edges == 0)

    # Message linearity: zip-only merges (no shortcut acquisition, no idle
    # probing) at three sizes; total datagrams should grow linearly per
    # side, i.e. with an exponent near one and a solid linear fit.
    counts = {}
    for n in (16, 32, 64):
        sc = Scenario([Merge(n, n, settle=2.0), Wait(100)],
                      measurement_interval=25, pair_budget=200)
        quiet = OverlayConfig(status_interval=None, k_shortcuts=0)
        t = ScenarioRunner(sc, SimConfig(seed=5), quiet).run()
        assert t.rows[-1].missing_edges == 0
        counts[n] = t.counters["datagrams"]
    linear_r2 = fit_r2(list(counts), list(counts.values()))
    exponent = math.log(counts[64] / counts[16]) / math.log(4)
    linear_ok = linear_r2 >= 0.9 and exponent <= 1.3

    report(7, "ring merge", merged_ok and linear_ok,
           f"257-node ring correct; messages {counts} "
           f"exponent={exponent:.2f} linear_R2={linear_r2:.3f}")


# ----------------------------------------------------------------------
# 8. churn


def test_08_churn_sweep():
    # Session times are multiples of how long a late joiner takes to hold
    # its ring position plus a first shortcut; routability is averaged
    # over the last two thirds of each 120 s churn run.
    t_establish, sweep = churn_sweep(256, (100, 30, 10, 3), 120, seed=3)
    results = {mult: mean(r.routability for r in rows)
               for mult, rows in sweep.items()}

    ordered = [results[m] for m in (100, 30, 10, 3)]
    monotone = all(a >= b - 0.02 for a, b in zip(ordered, ordered[1:]))
    ok = (results[100] >= 0.99
          and 0.5 < results[10] < 0.95
          and monotone)
    report(8, "churn sweep", ok,
           f"t_join={t_establish:.2f}s; routability "
           + " ".join(f"{m}x={results[m]:.4f}" for m in (100, 30, 10, 3)))


# ----------------------------------------------------------------------
# 9. NAT traversal logic


def nat_trial(seed: int, kind_b: NatKind) -> bool:
    from test_simnet import _nated_pair
    net, (a, b), (ta_a, ta_b) = _nated_pair(
        NatKind.PORT_RESTRICTED_CONE, kind_b, seed=seed)
    a.initiate_link([ta_b], messages.CT_NEAR, expect_addr=b.address)
    b.initiate_link([ta_a], messages.CT_NEAR, expect_addr=a.address)
    net.run_until(net.now + 20)
    return (a.table.get(b.address) is not None
            and b.table.get(a.address) is not None)


def test_09_nat_logic():
    wins = sum(nat_trial(1000 + i, NatKind.PORT_RESTRICTED_CONE)
               for i in range(100))
    control = sum(nat_trial(5000 + i, NatKind.SYMMETRIC) for i in range(10))
    ok = wins >= 99 and control == 0
    report(9, "NAT traversal", ok,
           f"port-restricted pairs linked {wins}/100, "
           f"symmetric control {control}/10")


# ----------------------------------------------------------------------
# 10. real-transport parity


def test_10_real_transport_parity():
    from ringnet.scenarios import loopback
    from test_transport import run_script_real, run_script_sim

    udp = loopback(8, "udp", budget=60.0).rows[-1]
    tcp = loopback(8, "tcp", budget=60.0).rows[-1]
    udp_fraction, udp_elapsed = udp.ring_correct_fraction, udp.simulated_time_s
    tcp_fraction, tcp_elapsed = tcp.ring_correct_fraction, tcp.simulated_time_s
    traces_match = run_script_sim() == run_script_real()
    ok = (udp_fraction == 1.0 and udp_elapsed < 60.0
          and tcp_fraction == 1.0 and tcp_elapsed < 60.0
          and traces_match)
    report(10, "real transport parity", ok,
           f"udp ring_correct {udp_fraction:.3f} in {udp_elapsed:.1f}s, "
           f"tcp ring_correct {tcp_fraction:.3f} in {tcp_elapsed:.1f}s, "
           f"decision traces identical={traces_match}")


# ----------------------------------------------------------------------
# 11. determinism


def test_11_determinism(tmp_path):
    blobs = []
    for attempt in range(2):
        scenario = Scenario([Bootstrap(24, spacing=0.3), Wait(5),
                             Churn(15, 0.02), Wait(10)],
                            measurement_interval=2, pair_budget=300)
        directory = tmp_path / f"run-{attempt}"
        ScenarioRunner(scenario, SimConfig(seed=99), OverlayConfig(k_shortcuts=3),
                       trace=SimTrace(str(directory))).run()
        blobs.append((directory / "trace.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(11, "determinism", ok,
           f"rerun CSV identical: {len(blobs[0])} bytes")


# ----------------------------------------------------------------------
# supplementary: acceptance 04's hop law on rings the protocol built


def test_supplementary_hop_law_on_grown_rings(converged_1024):
    # The fixture's last snapshot, taken before the join-cost test below
    # adds a node to its runner.
    snaps = {256: grow(256, 42, grown_overlay()).trace.snapshot,
             1024: converged_1024.trace.snapshot}
    hops = {}
    for n, snap in snaps.items():
        rep = routability(snap, pair_budget=4000, seed=5)
        assert len(snap.nodes) == n and rep.routability == 1.0
        hops[n] = rep.mean_hops
    c, deviations = hop_law(hops, k=4)
    print(f"hop law on grown rings k=4: "
          f"hops={ {n: round(h, 2) for n, h in hops.items()} } "
          f"c={c:.3f} max_dev={max(deviations.values()):.1%}")
    assert all(d < 0.25 for d in deviations.values()), deviations


# ----------------------------------------------------------------------
# supplementary: join cost stays O(log^2 N)


def test_supplementary_join_cost(converged_1024):
    """Messages per join, normalized by log^2 N, stay within a narrow
    band as the network grows 64 -> 256 -> 1024."""
    costs = {}

    def measure_join(runner) -> int:
        net = runner.network
        for _ in range(30):  # settle until a whole window passes silently
            idle_before = net.stats["datagrams"]
            net.run_until(net.now + 10)
            if net.stats["datagrams"] == idle_before:
                break
        assert net.stats["datagrams"] == idle_before, "network not quiet"
        runner._spawn()
        net.run_until(net.now + 15)
        return net.stats["datagrams"] - idle_before

    for size, phases in ((64, [Bootstrap(64, spacing=0.25), Wait(10)]),
                         (256, [Bootstrap(64, spacing=0.25), Wait(10),
                                MassiveJoin(192), Wait(20)])):
        runner = ScenarioRunner(Scenario(phases, measurement_interval=60,
                                         pair_budget=100),
                                SimConfig(seed=size), grown_overlay())
        runner.run()
        costs[size] = measure_join(runner)
    costs[1024] = measure_join(converged_1024)

    normalized = {n: costs[n] / math.log(n) ** 2 for n in costs}
    spread = max(normalized.values()) / min(normalized.values())
    assert spread <= 3.0, f"join cost not log^2-stable: {costs} (x{spread:.2f})"
    print(f"join cost per log^2(N): { {n: round(v, 2) for n, v in normalized.items()} }")
