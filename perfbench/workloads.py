"""The benchmark's workloads, driven through ringnet's public API.

Each workload has a ``setup(seed, size, tracer)`` that builds every input
from the seed, and a ``run(state)`` that does the timed work once and
returns plain data: timings, the facts the output checks need, and a
``det`` record of outputs that must repeat exactly for a given seed.
The timed work is cut into fixed chunks (a simulated second or half
second, or one analysis step) timed by a ``PassClock``.

Lookups are open-loop in simulated time: each is scheduled with
``SimNetwork.call_later`` at its due time before the run starts, so the
generator is never late, and latency is counted from the due time. Every
lookup targets a live node's own address, so it succeeds only when
delivered to that node.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import struct
from dataclasses import dataclass, field
from random import Random

from clock import PassClock
from ringnet import metrics, scenarios, topology
from ringnet.node import NodeState, OverlayConfig
from ringnet.packet import PAYLOAD_APP, Packet, make_routed
from ringnet.scenarios import Bootstrap, Churn, Scenario, ScenarioRunner, Wait
from ringnet.simnet import ConstantLatency, SimConfig, SimNetwork

LATENCY_S = 0.01
# Lookup body: lookup id and seed, 16 bytes.
_BODY = struct.Struct(">QQ")

SIZES = {
    "lookup-1024": dict(nodes=1024, k=4, rate=2000.0, sim_s=5.0, drain_s=1.0),
    # The final settle is scenarios/churn.cfg's, whose routability floor
    # the output check applies.
    "churn-256": dict(nodes=256, k=4, spacing=0.25, settle_s=5.0, churn_s=20.0,
                      final_settle_s=20.0, departures_per_s=1.0,
                      status_interval=1.5, measure_interval=5.0,
                      pair_budget=300, lookup_rate=40.0),
    "verify-4096": dict(nodes=4096, k=4, pair_budget=4000),
}

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# lookups


@dataclass
class Lookups:
    """Issues routed application lookups and records where they land."""

    network: SimNetwork
    seed: int
    tracer: object = None
    issued: dict = field(default_factory=dict)      # id -> (target, due)
    arrivals: dict = field(default_factory=dict)    # id -> [(addr, at, hops)]

    def on_delivery(self, node: NodeState, pkt: Packet) -> None:
        lookup_id, _ = _BODY.unpack(pkt.payload)
        self.arrivals.setdefault(lookup_id, []).append(
            (node.address, self.network.now, pkt.header.hops))

    def fire(self, lookup_id: int, source: NodeState, target: int) -> None:
        self.issued[lookup_id] = (target, self.network.now)
        pkt = make_routed(source.address, target, PAYLOAD_APP,
                          _BODY.pack(lookup_id, self.seed))
        if self.tracer is None:
            source.originate(pkt)
        else:
            self.tracer.lookup_span(lookup_id, lambda: source.originate(pkt))

    def summary(self) -> dict:
        """Success share, hop and latency figures, and their digest.

        A lookup succeeds when it reached its target node and no other.
        """
        hops, latency_ms, lines = [], [], []
        for lookup_id in sorted(self.issued):
            target, due = self.issued[lookup_id]
            arrivals = self.arrivals.get(lookup_id, [])
            ok = len(arrivals) == 1 and arrivals[0][0] == target
            if ok:
                hops.append(arrivals[0][2])
                latency_ms.append((arrivals[0][1] - due) * 1000.0)
            lines.append(f"{lookup_id} {int(ok)} {arrivals!r}")
        issued = len(self.issued)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        out = {"lookups": issued, "lookups_ok": len(hops),
               "lookup_success": len(hops) / issued if issued else 0.0,
               "lookup_hops_mean": statistics.fmean(hops) if hops else 0.0,
               "lookup_digest": digest,
               "lookup_latency_p50_ms": None, "lookup_latency_p99_ms": None}
        if len(latency_ms) >= 2:
            cuts = statistics.quantiles(latency_ms, n=100, method="inclusive")
            out["lookup_latency_p50_ms"] = cuts[49]
            out["lookup_latency_p99_ms"] = cuts[98]
        return out


# ----------------------------------------------------------------------
# lookup-1024: a pre-wired ring answering lookups


def lookup_setup(seed: int, size: dict, tracer=None) -> dict:
    network = SimNetwork(SimConfig(seed=seed, latency=ConstantLatency(LATENCY_S)))
    overlay = OverlayConfig(k_shortcuts=size["k"], status_interval=None)
    rng = Random(seed)
    nodes = topology.seed_ring(network, size["nodes"], rng, overlay, k=size["k"])
    lookups = Lookups(network, seed, tracer)
    for node in nodes.values():
        node.app_handler = lookups.on_delivery
    addresses = sorted(nodes)
    for lookup_id in range(int(size["rate"] * size["sim_s"])):
        source, target = rng.sample(addresses, 2)
        network.call_later(
            lookup_id / size["rate"],
            lambda i=lookup_id, s=nodes[source], t=target: lookups.fire(i, s, t))
    return dict(size=size, network=network, nodes=nodes, lookups=lookups)


def lookup_run(state: dict) -> dict:
    network, size = state["network"], state["size"]
    sim_s = size["sim_s"] + size["drain_s"]
    clock = PassClock()
    # Half-second chunks: more calibrations per pass, so their noise
    # averages out over a pass as it does over churn-256's longer one.
    for step in range(1, math.ceil(sim_s / 0.5) + 1):
        network.run_until(min(step * 0.5, sim_s))
        clock.lap()
    snap = scenarios.take_snapshot(list(state["nodes"].values()), network.now)
    _, correct = metrics.ring_correct(snap)
    found = state["lookups"].summary()
    datagrams = network.stats["datagrams"]
    return dict(
        **clock.summary(), sim_s=sim_s, ring_correct_final=correct,
        datagrams=datagrams, bytes=network.stats["bytes"],
        undeliverable=network.stats["undeliverable"],
        datagrams_per_node_s=datagrams / (len(state["nodes"]) * sim_s),
        **found,
        det=dict(datagrams=datagrams, bytes=network.stats["bytes"],
                 lookups=found["lookup_digest"], ring_correct=correct))


# ----------------------------------------------------------------------
# churn-256: a ring built by the protocol, then churned


def churn_setup(seed: int, size: dict, tracer=None) -> dict:
    n = size["nodes"]
    bootstrap_s = n * size["spacing"]
    scenario = Scenario(
        [Bootstrap(n, spacing=size["spacing"]), Wait(size["settle_s"]),
         Churn(size["churn_s"], size["departures_per_s"] / n),
         Wait(size["final_settle_s"])],
        measurement_interval=size["measure_interval"],
        pair_budget=size["pair_budget"])
    runner = ScenarioRunner(
        scenario, SimConfig(seed=seed, latency=ConstantLatency(LATENCY_S)),
        OverlayConfig(k_shortcuts=size["k"],
                      status_interval=size["status_interval"]))
    network = runner.network
    churn_start = bootstrap_s + size["settle_s"]
    end_s = churn_start + size["churn_s"] + size["final_settle_s"]
    # A marker event each simulated second ends a timing chunk and records
    # the datagram count. Markers change nothing in the simulation (their
    # calibration runs between events), so runs stay identical.
    timing: dict = {}

    def on_second() -> None:
        timing["sent"].append(network.stats["datagrams"])
        timing["clock"].lap()

    for second in range(1, int(end_s) + 1):
        network.call_later(second, on_second)
    # Lookups run from the end of the bootstrap until a second before the
    # end, so the last ones land before the run stops.
    rng = Random(seed ^ 0x100C)
    lookups = Lookups(network, seed, tracer)

    def fire(lookup_id: int) -> None:
        live = runner.live_nodes()
        target = live[rng.randrange(len(live))]
        sources = [n for n in live if n.joined and n is not target]
        for node in live:
            node.app_handler = lookups.on_delivery
        lookups.fire(lookup_id, sources[rng.randrange(len(sources))],
                     target.address)

    count = int((end_s - 1.0 - bootstrap_s) * size["lookup_rate"])
    for lookup_id in range(count):
        network.call_later(bootstrap_s + lookup_id / size["lookup_rate"],
                           lambda i=lookup_id: fire(i))
    return dict(size=size, runner=runner, lookups=lookups, timing=timing,
                bootstrap_s=bootstrap_s, churn_start=churn_start, end_s=end_s)


def churn_run(state: dict) -> dict:
    runner, size, timing = state["runner"], state["size"], state["timing"]
    timing.update(sent=[], clock=PassClock())
    trace = runner.run()
    timing["clock"].lap()
    clock, sent = timing["clock"].summary(), timing["sent"]
    boot, churn_start = int(state["bootstrap_s"]), int(state["churn_start"])
    churn_end = churn_start + int(size["churn_s"])
    chunks = clock["chunks_s"]
    stats = runner.network.stats
    final = trace.rows[-1]
    found = state["lookups"].summary()
    return dict(
        **clock, sim_s=state["end_s"],
        ring_correct_final=final.ring_correct_fraction,
        final_routability=final.routability,
        datagrams=stats["datagrams"], bytes=stats["bytes"],
        undeliverable=stats["undeliverable"],
        datagrams_per_node_s=(stats["datagrams"] - sent[boot - 1])
        / (size["nodes"] * (state["end_s"] - boot)),
        phase_bootstrap_wall_per_sim_s=sum(chunks[:boot]) / boot,
        phase_churn_wall_per_sim_s=sum(chunks[churn_start:churn_end])
        / (churn_end - churn_start),
        **found,
        det=dict(datagrams=stats["datagrams"], bytes=stats["bytes"],
                 lookups=found["lookup_digest"], sent_each_second=sent,
                 final_row=[final.simulated_time_s, final.live_nodes,
                            final.routability, final.ring_correct_fraction,
                            final.missing_edges, final.mean_hops]))


# ----------------------------------------------------------------------
# verify-4096: what `ringnet analyze` does to a snapshot file


def verify_setup(seed: int, size: dict, tracer=None) -> dict:
    snap = topology.synthetic_snapshot(size["nodes"], size["k"], seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"verify-{seed}-{os.getpid()}.snap")
    metrics.write_snapshot(snap, path)
    return dict(size=size, seed=seed, path=path)


def discard(state: dict) -> None:
    """Remove what a set-up left on disk, when no pass will run on it."""
    if "path" in state:
        os.remove(state["path"])


def verify_run(state: dict) -> dict:
    clock = PassClock()
    try:
        snap = metrics.read_snapshot(state["path"])
    finally:
        os.remove(state["path"])
    clock.lap()
    _, correct = metrics.ring_correct(snap)
    clock.lap()
    missing = metrics.missing_edges(snap)
    clock.lap()
    report = metrics.routability(snap, state["size"]["pair_budget"],
                                 seed=state["seed"])
    clock.lap()
    shortcut = metrics.shortcut_cdf(snap)
    clock.lap()
    return dict(
        **clock.summary(), ring_correct_final=correct, missing_edges=missing,
        lookups=report.pairs_tested, lookups_ok=report.pairs_routable,
        lookup_success=report.routability, lookup_hops_mean=report.mean_hops,
        max_hops=report.max_hops, shortcut_ks=shortcut.ks_distance,
        det=dict(nodes=len(snap.nodes), edges=len(snap.edges),
                 report=[report.pairs_tested, report.pairs_routable,
                         report.mean_hops, report.max_hops],
                 ring_correct=correct, missing=missing,
                 ks=shortcut.ks_distance))


WORKLOADS = {
    "lookup-1024": (lookup_setup, lookup_run),
    "churn-256": (churn_setup, churn_run),
    "verify-4096": (verify_setup, verify_run),
}
