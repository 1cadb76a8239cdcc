#!/usr/bin/env python3
"""Per-layer and end-to-end benchmarks of two ringnet checkouts, a
``before`` and an ``after``, timed by one invocation and written to JSON.

Times, with ``timeit``, the per-message work of the packet codec, one
forwarding hop (in the codec and in a node), the status body codec, the
node's status path (sending and receiving a status body, and one status
probe with its response: the retry timer armed, answered and cancelled),
greedy routing decisions over 8 and 24 peers (and over 24 with the
previous hop and source a forwarding node passes), the greedy replay of one
pair over a 4096-node synthetic snapshot (what ``routability`` does per
pair), the simulator's transmit-to-receive of one datagram, with an
empty timer queue, with 10,000 timers waiting and to a NATed host's
external mapping, and one routed hop through the simulator (transmit,
delivery and a ring node's forward).
Each side's per-layer cases run in a subprocess that imports that side's
``src``.  Then come three end-to-end rounds: each runs every end-to-end
case (a 1024-node bootstrap and settle, and the 128+128 merge of
``scenarios/merge.cfg``) once per side, each run in a fresh process of
its own, and the side that goes first alternates from round to round.
Every run's wall seconds, datagrams per wall second and peak RSS are
recorded, with their medians per side:

    python3 scripts/bench.py --before /path/to/parent/src --out BENCH.json

``--src`` names the ``after`` side's ``src`` (this checkout's by
default).  The output file is written whole and holds both sides and the
after/before ratio of every case they share (a checkout without
``packet.read_header`` has no ``packet_read_header`` case); an
end-to-end ratio divides the medians.  A per-layer figure is
microseconds per call: the fastest of ``--repeat`` timing runs, taken
round-robin over the cases, and their median beside it.
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
import time
import timeit
from bisect import bisect_left
from random import Random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_cases(fresh_bodies: int = 4096) -> dict:
    """name -> zero-argument callable, all set up from fixed seeds."""
    from ringnet import messages, packet, routing
    from ringnet.address import MODULUS
    from ringnet.connections import NEAR
    from ringnet.metrics import route_greedy, structured_adjacency
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
    if hasattr(packet, "read_header"):
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
    if isinstance(hop, tuple):  # a checkout whose greedy decider returns a Decision
        hop = hop.next_hop
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
    # clockwise neighbor (send and arm the retry timer), and that probe's
    # status response arrives (cancel the timer, process the listing).
    # The heap is emptied each round, so it stays the size of one timer.
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
        token = next(iter(prober.pending_probes))
        prober.on_datagram(from_neighbor, head + token.to_bytes(4, "big") + tail)
        heap.clear()
    node_probe_round()
    assert not prober.pending_probes and not heap
    cases["node_probe_round"] = node_probe_round

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
    adj = structured_adjacency(synthetic_snapshot(4096, 4, seed=1))
    addresses = sorted(adj)
    pairs = itertools.cycle([tuple(rng.sample(addresses, 2)) for _ in range(4000)])
    cases["routability_pair_4096"] = lambda: route_greedy(adj, *next(pairs))
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
    return {"wall_s": round(wall, 3), "sim_s": runner.network.now,
            "datagrams": datagrams, "datagrams_per_s": round(datagrams / wall),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024, 2)}


END_TO_END = ("bootstrap_1024", "merge_128_128")
PER_LAYER = "per_layer"
END_TO_END_ROUNDS = 3
END_TO_END_KEYS = ("wall_s", "datagrams_per_s", "peak_rss_mb")


def time_cases(cases: dict, repeat: int) -> dict:
    """Time every case ``repeat`` times, round-robin, so that each case's
    runs spread over the whole session rather than one stretch of it."""
    timers = {name: timeit.Timer(fn) for name, fn in cases.items()}
    numbers = {name: timer.autorange()[0] for name, timer in timers.items()}
    runs: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(repeat):
        for name, timer in timers.items():
            runs[name].append(timer.timeit(numbers[name]) / numbers[name] * 1e6)
    return {name: {"us": round(min(r), 4), "us_median": round(statistics.median(r), 4),
                   "number": numbers[name]} for name, r in runs.items()}


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
    parser.add_argument("--repeat", type=int, default=25)
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
    data = {side: {"cases": run_side(src, ["--case", PER_LAYER,
                                           "--repeat", str(args.repeat)])}
            for side, src in sides.items()}
    for name in data["after"]["cases"]:
        print(f"{name:28s}" + "".join(
            f"  {side} {data[side]['cases'][name]['us']:9.3f} us"
            for side in sides if name in data[side]["cases"]))
    runs = {side: {case: [] for case in END_TO_END} for side in sides}
    for round_index in range(END_TO_END_ROUNDS):
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for case in END_TO_END:
            for side in order:
                runs[side][case].append(run_side(sides[side], ["--case", case]))
                print(f"{side:6s} {case:24s} {runs[side][case][-1]}")
    for side in sides:
        data[side]["end_to_end"] = {case: {"runs": r, "median": {
            key: statistics.median(run[key] for run in r) for key in END_TO_END_KEYS}}
            for case, r in runs[side].items()}

    before, after = data["before"], data["after"]
    ratios = {name: round(after["cases"][name]["us"] / before["cases"][name]["us"], 3)
              for name in after["cases"] if name in before["cases"]}
    for case in END_TO_END:
        for key in END_TO_END_KEYS:
            ratios[f"{case}.{key}"] = round(after["end_to_end"][case]["median"][key]
                                            / before["end_to_end"][case]["median"][key], 3)
    data.update(after_over_before=ratios, python=platform.python_version(),
                nproc=os.cpu_count(),
                unit=("cases: microseconds per call, fastest of the timing runs; "
                      f"end_to_end: {END_TO_END_ROUNDS} rounds, each running every case "
                      "once per side in a fresh process, the first side alternating; "
                      "after_over_before of an end-to-end figure divides the medians"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
