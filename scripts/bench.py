#!/usr/bin/env python3
"""Per-layer and end-to-end benchmarks of two ringnet checkouts, a
``before`` and an ``after``, timed by one invocation and written to JSON.

Times, with ``timeit``, the per-message work of the packet codec, one
forwarding hop (in the codec and in a node), the status body codec, the
node's status path (sending and receiving a status body, and one status
probe with its response: the probe's timer armed, answered and cancelled),
one maintenance tick of a settled node, alone and after a write to one
of its shortcuts or to one of its near-only peers, greedy routing
decisions over 8 and 24 peers (and over 24 with the previous hop and
source a forwarding node passes), the greedy replay of one
pair over a 4096-node synthetic snapshot (what ``routability`` does per
pair), the offline verifier's steps on that snapshot as ``ringnet
analyze`` takes them (``read_snapshot``, and ``ring_correct``,
``routability`` over 4000 pairs and ``shortcut_cdf`` on a fresh snapshot
object, so that each call derives what it reads from the edges), the
simulator's transmit-to-receive of one datagram, with an empty timer
queue, with 10,000 timers waiting and to a NATed host's external
mapping, one routed hop through the simulator (transmit, delivery and a
ring node's forward), and topology set-up (``synthetic_snapshot`` and
``write_snapshot`` of that 4096-node snapshot, ``seed_ring`` of 1024
nodes with k=4, and one simulated dial of a live host's own ta).
Every measurement runs in a fresh process that imports its side's
``src``, and the sides take turns: in each of five per-layer rounds,
each side times every per-layer case ``--repeat`` times in a process of
its own, and the side that goes first alternates from round to round, so
that the host's drift between processes falls on both sides alike.  Then
each end-to-end case (a 1024-node bootstrap and settle, and the 128+128
merge of ``scenarios/merge.cfg``) runs in three rounds of one process per
side, in the same alternation.  Every
run's wall seconds, datagrams per wall second and peak RSS are recorded,
with their medians per side, and each ``bootstrap_1024`` run also records
the hits and misses of ``messages._decode_neighbors``' cache:

    python3 scripts/bench.py --before /path/to/parent/src --out BENCH.json

``--src`` names the ``after`` side's ``src`` (this checkout's by
default).  The output file is written whole and holds both sides and the
after/before ratio of every case they share; an end-to-end ratio
divides the medians.  A per-layer figure is microseconds per call: the
fastest of all its timing runs (``--repeat`` in each round's process,
taken round-robin over the cases), with their median and the number of
processes it is the best of beside it.  Each per-layer case also gets
one after/before ratio per round, of the two sides' fastest runs in
that round, and the median of those ratios beside the ratio of the
fastest-of figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from bisect import bisect_left
from random import Random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_cases(fresh_bodies: int = 4096) -> dict:
    """name -> zero-argument callable, all set up from fixed seeds."""
    from ringnet import messages, packet, routing
    from ringnet.address import MODULUS
    from ringnet.connections import NEAR, SHORTCUT
    from ringnet.metrics import (TopologySnapshot, read_snapshot, ring_correct,
                                 route_greedy, routability, shortcut_cdf,
                                 structured_adjacency, write_snapshot)
    from ringnet.node import OverlayConfig
    from ringnet.simnet import ConstantLatency, NatKind, SimConfig, SimNetwork
    from ringnet.topology import seed_ring, synthetic_snapshot

    rng = Random(3)
    cases = {}

    routed = packet.encode(packet.make_routed(
        rng.getrandbits(160), rng.getrandbits(160), packet.PAYLOAD_APP,
        bytes(16), ttl=100))
    pkt = packet.decode(routed)
    cases["packet_decode"] = lambda: packet.decode(routed)
    cases["packet_read_header"] = lambda: packet.read_header(routed)
    cases["packet_encode"] = lambda: packet.encode(pkt)
    cases["forward_one_hop"] = lambda: packet.encode(
        packet.advance_hop(packet.decode(routed)))

    def listing(i: int) -> tuple:
        return tuple((rng.getrandbits(160) & (MODULUS - 2),
                      (f"ring.udp:10.0.{i % 250}.{j}:7000",)) for j in range(4))

    status = messages.StatusMessage(messages.STATUS_REQUEST, 7, listing(0))
    raw_status = messages.encode_status(status)
    cases["status_encode_4"] = lambda: messages.encode_status(status)
    cases["status_decode_4_repeat"] = lambda: messages.decode_link_body(raw_status)
    # Distinct bodies in turn, more than any decoder cache keeps.
    fresh = itertools.cycle([messages.encode_status(messages.StatusMessage(
        messages.STATUS_REQUEST, i, listing(i))) for i in range(fresh_bodies)])
    cases["status_decode_4_fresh"] = lambda: messages.decode_link_body(next(fresh))

    # The node-level status path on a settled 16-node ring: the
    # processing of a node's clockwise neighbor's 4-entry listing (all
    # known, none closer).
    net = SimNetwork(SimConfig(seed=5))
    nodes = seed_ring(net, 16, Random(5), OverlayConfig(status_interval=None,
                                                        k_shortcuts=0))
    ring = sorted(nodes)
    node, neighbor = nodes[ring[0]], nodes[ring[1]]
    conn = node.table.get(neighbor.address)
    their_listing = neighbor.table.neighbor_listing()
    assert len(their_listing) == 4 and NEAR in conn.roles
    cases["node_process_status_4"] = lambda: node._process_status(conn, their_listing)

    # One routed hop through a node: a 16-byte lookup for the address
    # across the ring arrives and is forwarded.  The node's edges discard
    # what they are given, so only the node's own work is timed.
    class DiscardEdge:
        peer_address = None

        def send(self, data: bytes) -> None:
            pass

    for c in node.table.by_peer.values():
        c.edge = DiscardEdge()
    lookup = packet.encode(packet.make_routed(
        rng.getrandbits(160), ring[8], packet.PAYLOAD_APP, bytes(16)))
    hop = routing.greedy_next_hop(node.address, node.table.structured_peers(), None,
                                  ring[8])
    assert hop in node.table.structured_peers()
    inbound = DiscardEdge()
    cases["node_forward_one_hop"] = lambda: node.on_datagram(inbound, lookup)

    # The clockwise neighbor's 4-entry status response arriving on its
    # edge, and the node sending a status body down an edge.
    from_neighbor = DiscardEdge()
    from_neighbor.peer_address = neighbor.address
    status_response = packet.encode(packet.make_link(
        neighbor.address, node.address, packet.PAYLOAD_STATUS,
        messages.encode_status(messages.StatusMessage(
            messages.STATUS_RESPONSE, 11, their_listing))))
    cases["node_status_datagram"] = lambda: node.on_datagram(from_neighbor,
                                                              status_response)
    status_body = messages.encode_status(status)
    cases["node_link_send"] = lambda: node._send_link(
        conn.edge, neighbor.address, packet.PAYLOAD_STATUS, status_body)
    # The whole status datagram a node sends for its 4-entry listing.
    assert len(node.table.neighbor_listing()) == 4
    cases["status_send"] = lambda: node._send_status(
        conn.edge, neighbor.address, messages.STATUS_REQUEST, 9)

    # One status probe round on a ring of its own: the node probes its
    # clockwise neighbor (send, then arm the probe's timer), and the status
    # response cancels that timer; the heap is emptied each round.
    probe_net = SimNetwork(SimConfig(seed=5))
    probe_nodes = seed_ring(probe_net, 16, Random(5),
                            OverlayConfig(status_interval=None, k_shortcuts=0))
    prober = probe_nodes[ring[0]]
    for c in prober.table.by_peer.values():
        c.edge = DiscardEdge()
    probed = prober.table.get(neighbor.address)
    response = packet.encode(packet.make_link(
        neighbor.address, prober.address, packet.PAYLOAD_STATUS,
        messages.encode_status(messages.StatusMessage(
            messages.STATUS_RESPONSE, 0, their_listing))))
    # The token is the four bytes after the header and the status kind.
    head, tail = response[:packet.HEADER_LEN + 1], response[packet.HEADER_LEN + 5:]
    heap = probe_net._timers._heap

    def node_probe_round() -> None:
        prober._send_probe(probed)
        prober.on_datagram(from_neighbor, head + probed.probe_token.to_bytes(4, "big") + tail)
        heap.clear()
    heap.clear()  # the ring's ticks
    prober._send_probe(probed)
    prober.on_datagram(from_neighbor, head + probed.probe_token.to_bytes(4, "big") + tail)
    assert [t.cancelled for _, _, t in heap] == [True] and not prober.pending_probes
    cases["node_probe_round"] = node_probe_round

    # One maintenance tick of a settled node on an evenly spaced,
    # pre-wired 16-node ring with k=2, probing at 1.5 s: the clock does
    # not move, so nothing is stale, pending or owed.  Then the same tick
    # right after a write to one of its shortcuts (the role dropped and
    # given back), which changes no near connection, and right after the
    # same write to a peer that is near only, which rebuilds the near view.
    # The heap is emptied each round, so it holds only the next tick's
    # timer.
    tick_net = SimNetwork(SimConfig(seed=5))
    tick_node = seed_ring(tick_net, 16, Random(5),
                          OverlayConfig(status_interval=1.5, k_shortcuts=2), k=2,
                          addresses=ring)[ring[0]]
    tick_heap = tick_net._timers._heap
    tick_heap.clear()

    def node_tick_settled() -> None:
        tick_node.tick()
        tick_heap.clear()
    # Its only role, so the role write is a shortcut write alone.
    shortcut = next(c for c in tick_node.table.initiated_shortcuts()
                    if c.roles == {SHORTCUT})

    def node_tick_after_shortcut_write() -> None:
        tick_node.table.discard_role(shortcut, SHORTCUT)
        tick_node.table.add_role(shortcut, SHORTCUT)
        tick_node.tick()
        tick_heap.clear()
    near_only = next(c for c in tick_node.table.near() if c.roles == {NEAR})

    def node_tick_after_near_write() -> None:
        tick_node.table.discard_role(near_only, NEAR)
        tick_node.table.add_role(near_only, NEAR)
        tick_node.tick()
        tick_heap.clear()
    entries = {c.peer: c.roles for c in tick_node.table.by_peer.values()}
    for case in (node_tick_settled, node_tick_after_shortcut_write,
                 node_tick_after_near_write, node_tick_settled):
        case()
    assert tick_node.sides_converged and not tick_node.pending_requests
    assert not tick_node.pending_probes and not tick_node.pending_links
    assert {c.peer: c.roles for c in tick_node.table.by_peer.values()} == entries
    cases["node_tick_settled"] = node_tick_settled
    cases["node_tick_after_shortcut_write"] = node_tick_after_shortcut_write
    cases["node_tick_after_near_write"] = node_tick_after_near_write

    # One datagram from a host to a plain host's own ta, sent and received
    # (no node is attached, so the receiver drops it on arrival).
    plain = SimNetwork(SimConfig(seed=7, latency=ConstantLatency(0.0)))
    sender, receiver = plain.new_host(), plain.new_host()

    def transmit_plain_host() -> None:
        plain.transmit(sender, receiver.ta, lookup)
        plain.run_until(plain.now)
    cases["transmit_plain_host"] = transmit_plain_host

    # The same with 10,000 timers queued for later, as ``lookup-1024``'s
    # pre-scheduled lookups are: what the delivery costs beside them.
    busy = SimNetwork(SimConfig(seed=7, latency=ConstantLatency(0.0)))
    busy_sender, busy_receiver = busy.new_host(), busy.new_host()
    later = Random(11)
    for _ in range(10_000):
        busy.call_later(1.0 + later.random(), int)

    def transmit_with_pending_timers() -> None:
        busy.transmit(busy_sender, busy_receiver.ta, lookup)
        busy.run_until(busy.now)
    cases["transmit_with_pending_timers"] = transmit_with_pending_timers

    # One datagram to a NATed host through its external mapping, which
    # the host opened by sending first: the path of every spelling that
    # is not a plain host's own ta.
    natted = SimNetwork(SimConfig(seed=7, latency=ConstantLatency(0.0)))
    outsider, inner = natted.new_host(), natted.new_host(nat=NatKind.PORT_RESTRICTED_CONE)
    natted.transmit(inner, outsider.ta, lookup)
    [external] = inner.nat_box.mappings.values()
    external_ta = f"ring.udp:{inner.nat_box.external_ip}:{external}"

    def transmit_nat_host() -> None:
        natted.transmit(outsider, external_ta, lookup)
        natted.run_until(natted.now)
    transmit_nat_host()
    assert natted.stats["undeliverable"] == natted.stats["nat_dropped"] == 0
    cases["transmit_nat_host"] = transmit_nat_host

    # One routed hop through the simulator: the lookup, sent to a ring
    # node's own ta, waits in the constant-latency lane, reaches the node
    # through ``SimHost._receive`` and is forwarded.  The timer queue is
    # emptied each round, so the forwarded datagram goes no further and
    # no node timer fires.
    hop_net = SimNetwork(SimConfig(seed=5, latency=ConstantLatency(0.01)))
    hop_node = seed_ring(hop_net, 16, Random(5), OverlayConfig(
        status_interval=None, k_shortcuts=0))[ring[0]]
    origin = hop_net.new_host()
    hop_timers = hop_net._timers

    def sim_routed_hop() -> None:
        hop_net.transmit(origin, hop_node.host.ta, lookup)
        hop_net.run_until(hop_net.now + 0.01)
        hop_timers._lane.clear()
        hop_timers._heap.clear()
    hop_timers._heap.clear()
    sent = hop_net.stats["datagrams"]
    sim_routed_hop()
    assert hop_net.stats["datagrams"] == sent + 2
    cases["sim_routed_hop"] = sim_routed_hop

    # The deciders take the peers as a sorted ring.
    peers = sorted(rng.getrandbits(160) for _ in range(8))
    me, target = rng.getrandbits(160), rng.getrandbits(160)
    cases["greedy_decision_8"] = lambda: routing.greedy_next_hop(me, peers, None, target)
    peers_24 = sorted(rng.getrandbits(160) for _ in range(24))
    cases["greedy_decision_24"] = lambda: routing.greedy_next_hop(me, peers_24, None,
                                                                  target)
    # As a forwarding node decides: prev is the hop the packet came from
    # and skip its source, here the peer just clockwise of the target, so
    # the decision steps past it.
    flank = bisect_left(peers_24, target) % len(peers_24)
    skip_24, prev_24 = peers_24[flank], peers_24[flank - 12]
    cases["greedy_decision_24_skip"] = lambda: routing.greedy_next_hop(
        me, peers_24, prev_24, target, skip_24)

    # One routed pair of the greedy replay over a 4096-node snapshot, k=4,
    # taking 4000 fixed pairs in turn.
    verify = synthetic_snapshot(4096, 4, seed=1)
    adj = structured_adjacency(verify)
    addresses = sorted(adj)
    pairs = itertools.cycle([tuple(rng.sample(addresses, 2)) for _ in range(4000)])
    cases["routability_pair_4096"] = lambda: route_greedy(adj, *next(pairs))

    # The verifier's steps on the same snapshot.  A checkout may derive
    # and keep views on a snapshot object, so each check gets a new one,
    # as the first check of an analysis does.
    def new_object() -> TopologySnapshot:
        return TopologySnapshot(verify.timestamp, verify.nodes, verify.edges)
    snap_dir = tempfile.TemporaryDirectory()  # removed when the process exits
    write_snapshot(verify, os.path.join(snap_dir.name, "verify.snap"))
    cases["verify_read_snapshot_4096"] = lambda: read_snapshot(
        os.path.join(snap_dir.name, "verify.snap"))
    cases["verify_ring_correct_4096"] = lambda: ring_correct(new_object())
    cases["verify_routability_4096"] = lambda: routability(new_object(), 4000, seed=1)
    cases["verify_shortcut_cdf_4096"] = lambda: shortcut_cdf(new_object())

    # Topology set-up as the benchmark's workloads pay it: the snapshot
    # that ``verify-4096`` synthesizes and writes, ``lookup-1024``'s
    # pre-wired ring, and one simulated dial of a live host's own ta (an
    # edge it holds already, so the dial is all that is timed).
    cases["synthetic_snapshot_4096"] = lambda: synthetic_snapshot(4096, 4, seed=1)
    cases["write_snapshot_4096"] = lambda: write_snapshot(
        verify, os.path.join(snap_dir.name, "written.snap"))
    cases["seed_ring_1024"] = lambda: seed_ring(
        SimNetwork(SimConfig(seed=1, latency=ConstantLatency(0.01))), 1024, Random(1),
        OverlayConfig(k_shortcuts=4, status_interval=None), k=4)
    dialer, dialed = plain.new_host(), plain.new_host()
    dialer.dial(dialed.ta)
    cases["sim_dial_plain_ta"] = lambda: dialer.dial(dialed.ta)
    return cases


def run_end_to_end(case: str) -> dict:
    """Run one end-to-end case in this process, seed 1, and measure it."""
    from ringnet.node import OverlayConfig
    from ringnet.scenarios import Bootstrap, Scenario, ScenarioRunner, Wait
    from ringnet.simnet import SimConfig

    if case == "bootstrap_1024":
        scenario = Scenario([Bootstrap(1024, spacing=0.25), Wait(30)],
                            measurement_interval=60, pair_budget=200)
        runner = ScenarioRunner(scenario, SimConfig(seed=1),
                                OverlayConfig(k_shortcuts=4, status_interval=1.5))
    elif case == "merge_128_128":
        from ringnet.cli import load_scenario
        scenario, sim, overlay = load_scenario(os.path.join(ROOT, "scenarios", "merge.cfg"))
        runner = ScenarioRunner(scenario, dataclasses.replace(sim, seed=1), overlay)
    else:
        raise ValueError(f"unknown end-to-end case {case!r}")
    start = time.perf_counter()
    runner.run()
    wall = time.perf_counter() - start
    datagrams = runner.network.stats["datagrams"]
    result = {"wall_s": round(wall, 3), "sim_s": runner.network.now,
              "datagrams": datagrams, "datagrams_per_s": round(datagrams / wall),
              "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024, 2)}
    if case == "bootstrap_1024":
        # How often a received neighbor listing was decoded already.
        from ringnet.messages import _decode_neighbors
        info = _decode_neighbors.cache_info()
        result["decode_neighbors_cache"] = {
            "hits": info.hits, "misses": info.misses, "maxsize": info.maxsize,
            "hit_rate": round(info.hits / (info.hits + info.misses), 4)}
    return result


END_TO_END = ("bootstrap_1024", "merge_128_128")
PER_LAYER = "per_layer"
PER_LAYER_ROUNDS = 5
END_TO_END_ROUNDS = 3
END_TO_END_KEYS = ("wall_s", "datagrams_per_s", "peak_rss_mb")


def time_cases(cases: dict, repeat: int) -> dict:
    """Time every case ``repeat`` times, round-robin, so that each case's
    runs spread over the whole session rather than one stretch of it;
    each run's microseconds per call, by case."""
    timers = {name: timeit.Timer(fn) for name, fn in cases.items()}
    numbers = {name: timer.autorange()[0] for name, timer in timers.items()}
    runs: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(repeat):
        for name, timer in timers.items():
            runs[name].append(round(timer.timeit(numbers[name]) / numbers[name] * 1e6, 4))
    return runs


def alternate(sides: dict, rounds: int, args: list[str]) -> dict:
    """Run this script with ``args`` in ``rounds`` rounds of one fresh
    process per side, the first side alternating from round to round;
    each side's results in round order."""
    results: dict[str, list] = {side: [] for side in sides}
    for round_index in range(rounds):
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for side in order:
            results[side].append(run_side(sides[side], args))
            print(f"{side:6s} {' '.join(args)} (round {round_index + 1} of {rounds})")
    return results


def run_side(src: str, args: list[str]) -> dict:
    """Run this script in a fresh process on the checkout at ``src`` and
    return the JSON it prints last."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src]
                         + args, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the ringnet package to time as 'after'")
    parser.add_argument("--before",
                        help="directory holding the ringnet package to time as 'before'")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing runs of each per-layer case in each process")
    parser.add_argument("--case", choices=END_TO_END + (PER_LAYER,),
                        help="run only this case on --src and print its JSON")
    args = parser.parse_args()

    if args.case:
        src = os.path.abspath(args.src)
        sys.path.insert(0, src)
        import ringnet
        if not os.path.abspath(ringnet.__file__).startswith(src + os.sep):
            parser.error(f"ringnet imported from {ringnet.__file__}, not {src}")
        if args.case == PER_LAYER:
            print(json.dumps(time_cases(build_cases(), args.repeat)))
        else:
            print(json.dumps(run_end_to_end(args.case)))
        return 0
    if not (args.before and args.out):
        parser.error("--before and --out are required")

    sides = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.src)}
    layer = alternate(sides, PER_LAYER_ROUNDS,
                      ["--case", PER_LAYER, "--repeat", str(args.repeat)])
    data = {side: {"cases": {name: {
        "us": min(min(p[name]) for p in processes),
        "us_median": round(statistics.median(us for p in processes for us in p[name]), 4),
        "best_of_processes": len(processes),
        "best_of_runs": sum(len(p[name]) for p in processes)}
        for name in processes[0]}} for side, processes in layer.items()}
    # The fastest run of each side's process in each round, divided: one
    # ratio per round, whose median a drift between rounds moves less.
    per_round = {name: [round(min(a[name]) / min(b[name]), 3)
                        for b, a in zip(layer["before"], layer["after"])]
                 for name in data["after"]["cases"] if name in data["before"]["cases"]}
    for name in data["after"]["cases"]:
        print(f"{name:28s}" + "".join(
            f"  {side} {data[side]['cases'][name]['us']:9.3f} us"
            for side in sides if name in data[side]["cases"])
            + (f"  rounds' median x{statistics.median(per_round[name]):.3f}"
               if name in per_round else ""))
    runs = {side: {} for side in sides}
    for case in END_TO_END:
        for side, r in alternate(sides, END_TO_END_ROUNDS, ["--case", case]).items():
            runs[side][case] = r
            print(f"{side:6s} {case:24s} {r}")
    for side in sides:
        data[side]["end_to_end"] = {case: {"runs": r, "median": {
            key: statistics.median(run[key] for run in r) for key in END_TO_END_KEYS}}
            for case, r in runs[side].items()}

    before, after = data["before"], data["after"]
    ratios = {name: round(after["cases"][name]["us"] / before["cases"][name]["us"], 3)
              for name in per_round}
    for case in END_TO_END:
        for key in END_TO_END_KEYS:
            ratios[f"{case}.{key}"] = round(after["end_to_end"][case]["median"][key]
                                            / before["end_to_end"][case]["median"][key], 3)
    data.update(after_over_before=ratios,
                after_over_before_per_round=per_round,
                after_over_before_median_of_rounds={
                    name: round(statistics.median(r), 3) for name, r in per_round.items()},
                python=platform.python_version(),
                nproc=os.cpu_count(),
                unit=("cases: microseconds per call, fastest of the timing runs of "
                      f"{PER_LAYER_ROUNDS} rounds, each timing every case {args.repeat} "
                      "times per side in a fresh process, the first side alternating; "
                      f"end_to_end: {END_TO_END_ROUNDS} rounds per case, each running it "
                      "once per side in a fresh process, the first side alternating; "
                      "after_over_before of an end-to-end figure divides the medians; "
                      "after_over_before_per_round divides the two sides' fastest runs "
                      "in each per-layer round, and _median_of_rounds is their median"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
