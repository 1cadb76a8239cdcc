"""Declarative experiments over the simulator or real sockets.

A ``Scenario`` is an ordered list of phases (bootstrap, wait, massive
join, massive failure, churn, ring merge, converge) plus a measurement
interval.  A ``ScenarioRunner`` runs one on a ``SimNetwork``, or on a
``RealNetwork``, into a ``SimTrace``: per-interval metric rows, written
out with each topology snapshot as it is taken, and the network's message
counters.  Simulated runs are deterministic for a fixed (scenario, seed) pair.

``grow``, ``massive_dynamics`` and ``churn_sweep`` are the experiments
that acceptance tests assert on and the ``ringnet`` subcommands print;
``loopback`` bootstraps a ring over real loopback sockets.

Departures here are always abrupt: a node's endpoints vanish and every
edge it held dies silently; rejoining nodes keep their address and
bootstrap again through a random live proxy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from random import Random
from statistics import mean

from .address import random_class0
from .connections import LEAF, NEAR, SHORTCUT
from .metrics import (
    NEAR_LABEL,
    SHORTCUT_LABEL,
    TopologySnapshot,
    ring_correct,
    routability,
    to_dot,
    write_snapshot,
)
from .node import NodeState, OverlayConfig
from .simnet import SimConfig, SimNetwork, UniformLatency
from .transport import RealNetwork
from . import topology


class ScenarioInvalid(ValueError):
    pass


@dataclass(frozen=True)
class Bootstrap:
    n: int
    spacing: float = 0.5


@dataclass(frozen=True)
class Wait:
    seconds: float


@dataclass(frozen=True)
class MassiveJoin:
    n: int


@dataclass(frozen=True)
class MassiveFail:
    count: int | None = None
    fraction: float | None = None


@dataclass(frozen=True)
class Churn:
    duration: float
    p_leave: float


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    settle: float = 5.0


@dataclass(frozen=True)
class Converge:
    """Measure until a row reads a correct ring, for at most ``timeout``."""
    timeout: float


@dataclass
class Scenario:
    phases: list
    measurement_interval: float = 2.0
    pair_budget: int = 1000

    def validate(self) -> None:
        """Reject a scenario that cannot run, before it starts.  A respawn
        keeps its node id, so the live count is known in advance."""
        _check(0 < self.measurement_interval < math.inf,
               "measurement_interval must be positive and finite")
        _check(self.pair_budget >= 1, "pair_budget must be at least 1")
        live = 0
        for phase in self.phases:
            if isinstance(phase, (Bootstrap, MassiveJoin)):
                _check(phase.n >= 1, "population phases need n >= 1")
                live += phase.n
            elif isinstance(phase, Churn):
                _check(0.0 <= phase.p_leave < 1.0, "churn probability must be in [0, 1)")
                # Departures are drawn per whole second (churn_events).
                _check(phase.duration > 0 and float(phase.duration).is_integer(),
                       "churn duration must be a positive whole number of seconds")
            elif isinstance(phase, Merge):
                _check(phase.left >= 1 and phase.right >= 1,
                       "merge ring sizes must be >= 1")
                _check(not live, "merge must start from an empty population")
                live = phase.left + phase.right + 1
            elif isinstance(phase, MassiveFail):
                _check((phase.count is None) != (phase.fraction is None),
                       "massive_fail needs count or fraction")
                count = phase.count
                if count is None:
                    _check(0.0 < phase.fraction < 1.0,
                           "massive_fail fraction must be in (0,1)")
                    count = int(round(phase.fraction * live))
                _check(0 < count < live, f"cannot fail {count} of {live} nodes")
                live -= count


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ScenarioInvalid(message)


def churn_events(node_ids: list[int], p_leave: float, duration: float,
                 rng: Random) -> list[tuple[int, int]]:
    """Per-second Bernoulli departures for every node, as (second, id).

    Each node departs in any given second with probability p_leave and
    rejoins immediately, so realized session lengths are geometric with
    mean 1/p_leave seconds (the discrete analogue of exponential session
    times).
    """
    events: list[tuple[int, int]] = []
    for second in range(1, int(duration) + 1):
        for nid in node_ids:
            if rng.random() < p_leave:
                events.append((second, nid))
    return events


def take_snapshot(nodes: list[NodeState], timestamp: float) -> TopologySnapshot:
    """Freeze the live population's view into a checkable snapshot.

    Near and leaf edges are exported undirected (present if either side
    holds them); shortcut edges are exported oriented, requester first.
    """
    live = sorted(n.address for n in nodes)
    edges: set[tuple[int, int, str]] = set()
    for node in nodes:
        for conn in node.table.by_peer.values():
            if NEAR in conn.roles:
                a, b = sorted((node.address, conn.peer))
                edges.add((a, b, NEAR_LABEL))
            if SHORTCUT in conn.roles and conn.initiated_shortcut:
                edges.add((node.address, conn.peer, SHORTCUT_LABEL))
            if LEAF in conn.roles:
                a, b = sorted((node.address, conn.peer))
                edges.add((a, b, LEAF))
    return TopologySnapshot(timestamp, tuple(live), tuple(sorted(edges)))


@dataclass
class TraceRow:
    simulated_time_s: float
    live_nodes: int
    routability: float
    ring_correct_fraction: float
    missing_edges: int
    mean_hops: float


class SimTrace:
    """A run's rows, newest snapshot, counters and join establish times.
    Given a directory, it starts ``trace.csv`` there and deletes the
    directory's snapshot and DOT files, then writes each row and snapshot
    file (and DOT file, with ``dot``) as it is measured."""

    def __init__(self, directory: str | None = None, dot: bool = False) -> None:
        self.rows: list[TraceRow] = []
        self.snapshot: TopologySnapshot | None = None
        self.counters: dict = {}
        # Time from join start to a held ring position plus first shortcut.
        self.establish_durations: list[float] = []
        self.directory = directory
        self.dot = dot
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            for name in os.listdir(directory):
                if name.startswith("snapshot_") and name.endswith((".snap", ".dot")):
                    os.remove(os.path.join(directory, name))
            self._write_csv(",".join(f.name for f in fields(TraceRow)), "w")

    def _write_csv(self, line: str, mode: str) -> None:
        with open(os.path.join(self.directory, "trace.csv"), mode,
                  encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")

    def record(self, row: TraceRow, snap: TopologySnapshot) -> None:
        self.rows.append(row)
        self.snapshot = snap
        if self.directory is not None:
            self._write_csv(f"{row.simulated_time_s:.3f},{row.live_nodes},"
                            f"{row.routability:.6f},{row.ring_correct_fraction:.6f},"
                            f"{row.missing_edges},{row.mean_hops:.3f}", "a")
            base = os.path.join(self.directory, f"snapshot_{snap.timestamp:012.3f}")
            write_snapshot(snap, base + ".snap")
            if self.dot:
                with open(base + ".dot", "w", encoding="utf-8") as fh:
                    fh.write(to_dot(snap))


class ScenarioRunner:
    def __init__(self, scenario: Scenario, config: SimConfig,
                 overlay: OverlayConfig | None = None, network=None, trace=None) -> None:
        scenario.validate()
        self.scenario = scenario
        self.network = network if network is not None else SimNetwork(config)
        self.overlay = overlay or OverlayConfig()
        self.rng = Random((config.seed << 1) ^ 0x5CE)
        self.metrics_seed = config.seed ^ 0xA17
        self.handles: dict[int, NodeState] = {}  # node id -> live node
        self._next_id = 0
        self._addresses: set[int] = set()
        self.trace = trace or SimTrace()
        self._next_measure = 0.0
        self._measured_at: float | None = None  # None once a node comes or goes

    # -- population -------------------------------------------------------

    def live_nodes(self) -> list[NodeState]:
        return list(self.handles.values())

    def _new_address(self) -> int:
        while True:
            a = random_class0(self.rng)
            if a not in self._addresses:
                self._addresses.add(a)
                return a

    def _pick_proxy(self, exclude: int) -> NodeState | None:
        others = [n for nid, n in self.handles.items() if nid != exclude]
        ready = [n for n in others if n.joined] or others
        if not ready:
            return None
        return ready[self.rng.randrange(len(ready))]

    def _spawn(self, address: int | None = None, node_id: int | None = None,
               proxy_ta: str | None = None) -> NodeState:
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
        if address is None:
            address = self._new_address()
        self._measured_at = None
        host = self.network.new_host()
        node = NodeState(address, host, self.overlay,
                         Random(self.rng.getrandbits(64)))
        host.attach(node)
        self.handles[node_id] = node
        # A bound method, so that a deep copy of the runner rejoins on the copy.
        node.on_join_failed = partial(self._rejoin_later, node_id)
        if proxy_ta is None:
            proxy = self._pick_proxy(exclude=node_id)
            proxy_ta = proxy.host.ta if proxy is not None else None
        if proxy_ta is None:
            node.joined = True  # genesis node anchors the ring
        else:
            node.start_join(proxy_ta)
        return node

    def _rejoin_later(self, node_id: int, node: NodeState, reason: str) -> None:
        self.network.call_later(1.0, self._respawn, node_id)

    def _respawn(self, node_id: int) -> None:
        self._kill(node_id, rejoin=True)

    def _harvest_establish(self, node: NodeState) -> None:
        if node.join_started_at is not None and node.established_at is not None:
            self.trace.establish_durations.append(
                node.established_at - node.join_started_at)

    def _kill(self, node_id: int, rejoin: bool) -> None:
        node = self.handles.pop(node_id, None)
        if node is None:
            return
        self._measured_at = None
        self._harvest_establish(node)
        node.host.shutdown()
        if rejoin:
            self._spawn(address=node.address, node_id=node_id)

    # -- measurement ------------------------------------------------------

    def _measure(self) -> None:
        nodes = self.live_nodes()
        now = self._measured_at = self.network.now
        snap = take_snapshot(nodes, now)
        if len(snap.nodes) == 0:
            return
        # The checks read a copy, so the views they cache on it end with this
        # measurement rather than stay with the trace's newest snapshot.
        checked = replace(snap)
        report = routability(checked, self.scenario.pair_budget, seed=self.metrics_seed)
        deficits, correct = ring_correct(checked)
        self.trace.record(TraceRow(
            now, len(snap.nodes), report.routability, correct,
            sum(deficits.values()), report.mean_hops), snap)

    def _advance(self, duration: float) -> None:
        end = self.network.now + duration
        while True:
            if self._next_measure <= end + 1e-9:
                self.network.run_until(self._next_measure)
                self._measure()
                self._next_measure += self.scenario.measurement_interval
            else:
                self.network.run_until(end)
                return

    # -- phases -------------------------------------------------------------

    def _run_bootstrap(self, phase: Bootstrap) -> None:
        for _ in range(phase.n):
            self._spawn()
            self._advance(phase.spacing)

    def _run_massive_join(self, phase: MassiveJoin) -> None:
        for _ in range(phase.n):
            self._spawn()

    def _run_massive_fail(self, phase: MassiveFail) -> None:
        live = sorted(self.handles)
        count = phase.count
        if count is None:
            count = int(round(phase.fraction * len(live)))
        for nid in self.rng.sample(live, count):
            self._kill(nid, rejoin=False)

    def _run_churn(self, phase: Churn) -> None:
        ids = sorted(self.handles)
        events = churn_events(ids, phase.p_leave, phase.duration, self.rng)
        cursor = 0
        start = self.network.now
        for second in range(1, int(phase.duration) + 1):
            self._advance((start + second) - self.network.now)
            while cursor < len(events) and events[cursor][0] <= second:
                nid = events[cursor][1]
                cursor += 1
                self._kill(nid, rejoin=True)

    def _run_converge(self, phase: Converge) -> None:
        end = self.network.now + phase.timeout
        while self._next_measure <= end:
            self._advance(self._next_measure - self.network.now)
            if self.trace.rows and self.trace.rows[-1].ring_correct_fraction >= 1.0:
                return
        self._advance(end - self.network.now)

    def _run_merge(self, phase: Merge) -> None:
        sides = []
        for size in (phase.left, phase.right):
            seeded = topology.seed_ring(self.network, size, self.rng, self.overlay)
            for addr, node in seeded.items():
                self._addresses.add(addr)
                self.handles[self._next_id] = node
                self._next_id += 1
            sides.append(seeded)
        self._advance(phase.settle)
        left_proxy = next(iter(sides[0].values()))
        right_proxy = next(iter(sides[1].values()))
        bridge = self._spawn(proxy_ta=left_proxy.host.ta)
        bridge.add_bootstrap(right_proxy.host.ta)

    # -- entry point --------------------------------------------------------

    def run(self) -> SimTrace:
        self._next_measure = self.network.now
        for phase in self.scenario.phases:
            if isinstance(phase, Bootstrap):
                self._run_bootstrap(phase)
            elif isinstance(phase, Wait):
                self._advance(phase.seconds)
            elif isinstance(phase, MassiveJoin):
                self._run_massive_join(phase)
            elif isinstance(phase, MassiveFail):
                self._run_massive_fail(phase)
            elif isinstance(phase, Churn):
                self._run_churn(phase)
            elif isinstance(phase, Merge):
                self._run_merge(phase)
            elif isinstance(phase, Converge):
                self._run_converge(phase)
            else:
                raise ScenarioInvalid(f"unknown phase {phase!r}")
        if self._measured_at != self.network.now:
            self._measure()  # unless nothing changed since the newest row
        for node in self.handles.values():
            self._harvest_establish(node)
        self.trace.counters = dict(self.network.stats)
        return self.trace


def run(scenario: Scenario, config: SimConfig, overlay: OverlayConfig | None = None,
        trace: SimTrace | None = None) -> SimTrace:
    return ScenarioRunner(scenario, config, overlay, trace=trace).run()


def grow(n: int, seed: int, overlay: OverlayConfig) -> ScenarioRunner:
    """Build an n-node overlay by protocol: bootstrap 64 nodes, double the
    ring by massive joins until it holds n, then settle.  Returns the
    runner after its run; ``runner.trace.snapshot`` is the result."""
    phases = [Bootstrap(64, spacing=0.25), Wait(10)]
    size = 64
    while size < n:
        phases += [MassiveJoin(min(size, n - size)), Wait(12 if size < 256 else 15)]
        size *= 2
    phases[-1] = Wait(50)
    runner = ScenarioRunner(Scenario(phases, measurement_interval=60, pair_budget=200),
                            SimConfig(seed=seed), overlay)
    runner.run()
    return runner


def massive_dynamics(base: int, join: int, seed: int,
                     fail_fraction: float | None = None,
                     trace: SimTrace | None = None) -> SimTrace:
    """A base-node ring takes ``join`` newcomers at one instant and heals;
    with ``fail_fraction``, that share of the network then fails at once."""
    phases = [Bootstrap(base, spacing=0.25), Wait(10), MassiveJoin(join), Wait(40)]
    if fail_fraction is not None:
        phases += [MassiveFail(fraction=fail_fraction), Wait(60)]
    overlay = OverlayConfig(k_shortcuts=4, status_interval=4.0,
                            push_status_debounce=0.5, handshake_timeout=1.0,
                            connreq_timeout=8.0)
    return run(Scenario(phases, measurement_interval=0.5, pair_budget=1200),
               SimConfig(seed=seed, latency=UniformLatency(0.05, 0.35)), overlay, trace)


def churn_sweep(nodes: int, multiples, duration: float,
                seed: int) -> tuple[float, dict]:
    """Steady-state rows under churn whose mean session time is each
    multiple of ``t_establish``: the mean time a late joiner takes to hold
    its ring position plus a first shortcut on a quiet overlay.  Returns
    ``t_establish`` and, per multiple, the rows after the first third of
    the churn."""
    overlay = OverlayConfig(k_shortcuts=4, status_interval=1.0, probe_timeout=0.3,
                            probe_retries=2, tick_interval=0.5,
                            handshake_timeout=0.3, join_retry_timeout=1.5)
    probe = Scenario([Bootstrap(nodes, spacing=0.25), Wait(5), MassiveJoin(8),
                      Wait(10)], measurement_interval=60, pair_budget=100)
    t_establish = mean(run(probe, SimConfig(seed=seed), overlay)
                       .establish_durations[-8:])
    sweep = {mult: Scenario([Bootstrap(nodes, spacing=0.25), Wait(10),
                             Churn(duration, 1.0 / (t_establish * mult))],
                            measurement_interval=5, pair_budget=1200)
             for mult in multiples}
    for mult, scenario in sweep.items():  # every multiple, before the first run
        try:
            scenario.validate()
        except ScenarioInvalid as exc:
            raise ScenarioInvalid(f"session multiple {mult}: {exc}") from None
    steady_from = nodes * 0.25 + 10 + duration / 3
    return t_establish, {mult: [r for r in run(scenario, SimConfig(seed=seed), overlay).rows
                                if r.simulated_time_s > steady_from]
                         for mult, scenario in sweep.items()}


# Wall-clock runs want snappier timers than the simulator defaults.
LOOPBACK_OVERLAY = OverlayConfig(tick_interval=0.25, status_interval=2.0,
                                 handshake_timeout=0.25, join_retry_timeout=1.5,
                                 push_status_debounce=0.05, k_shortcuts=2)


def loopback(n: int, transport: str = "udp", budget: float = 60.0,
             seed: int = 7) -> SimTrace:
    """Bootstrap n nodes over loopback ``udp``, ``tcp`` or ``mixed`` sockets
    and measure until the ring is correct or ``budget`` more seconds pass;
    the last row's time is the run's wall seconds.  Spacing the joins
    10 ms apart gives each a random joined proxy; with no spacing, every
    joiner's proxy would be the genesis node."""
    network = RealNetwork(transport)
    scenario = Scenario([Bootstrap(n, spacing=0.01), Converge(budget)],
                        measurement_interval=0.25, pair_budget=100)
    try:
        return ScenarioRunner(scenario, SimConfig(seed=seed), LOOPBACK_OVERLAY,
                              network).run()
    finally:
        network.close()
