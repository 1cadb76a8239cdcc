"""Per-layer tracing of ringnet from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS``
with a wrapper. A module-level function is replaced under every name
that points at it in every loaded ``ringnet`` module, because modules
import functions by name (``node`` holds its own ``decode``, ``scenarios``
its own ``routability``). A method is replaced on its class.

"span" targets record a span per call: id, parent id, name, start, end
and trace id. A span's self time is its duration minus the time covered
by its child spans. Spans caused by a benchmark lookup carry the lookup's
trace id: the benchmark opens the lookup's span, and a datagram that
carries a lookup body starts a span with that lookup's id. "count"
targets are called too often for a span each, so they only count calls.

Aggregates cover every call. The span log is kept in memory up to
``SPAN_CAP`` spans and written out at the end; spans past the cap are
counted, not kept.

Untraced runs never construct a Tracer, so they run the program as is.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time

from ringnet.packet import HEADER_LEN, PAYLOAD_APP, TYPE_ROUTED

SPAN = "span"
COUNT = "count"

# (module, attribute or Class.method, kind); the metric name is
# "<module>.<function>".
TARGETS = (
    ("packet", "decode", SPAN),
    ("packet", "encode", SPAN),
    ("packet", "advance_hop", SPAN),
    ("messages", "decode_link_body", SPAN),
    ("messages", "encode_status", SPAN),
    ("messages", "encode_link", SPAN),
    ("messages", "decode_connect_body", SPAN),
    ("routing", "greedy_next_hop", SPAN),
    ("routing", "annealing_next_hop", SPAN),
    ("routing", "directional_next_hop", SPAN),
    ("connections", "ConnectionTable.structured_peers", SPAN),
    ("connections", "ConnectionTable.with_role", SPAN),
    ("connections", "ConnectionTable.near_sorted", SPAN),
    ("connections", "ConnectionTable.add", SPAN),
    ("connections", "ConnectionTable.remove", SPAN),
    ("node", "NodeState.on_datagram", SPAN),
    ("node", "NodeState.tick", SPAN),
    ("node", "NodeState.originate", SPAN),
    ("node", "NodeState.initiate_link", SPAN),
    ("simnet", "SimNetwork.transmit", SPAN),
    ("simnet", "SimNetwork.run_until", SPAN),
    ("transport", "parse_ta", SPAN),
    ("transport", "format_ta", SPAN),
    ("scenarios", "take_snapshot", SPAN),
    ("topology", "seed_ring", SPAN),
    ("topology", "synthetic_snapshot", SPAN),
    ("metrics", "routability", SPAN),
    ("metrics", "ring_correct", SPAN),
    ("metrics", "missing_edges", SPAN),
    ("metrics", "shortcut_cdf", SPAN),
    ("metrics", "read_snapshot", SPAN),
    ("metrics", "write_snapshot", SPAN),
    ("address", "ring_distance", COUNT),
    ("address", "directed_distance", COUNT),
    ("simnet", "SimNetwork.call_later", COUNT),
    ("node", "NodeState.__init__", COUNT),
)

# Node counters summed over every node the run created.
NODE_COUNTERS = ("link_failed", "probe_deaths", "near_trimmed",
                 "shortcut_refreshed", "forward_no_edge", "expired_packets",
                 "join_failed", "connect_requests")

SPAN_CAP = 100_000



def lookup_trace_id(lookup_id: int) -> int:
    """Trace id of a lookup's spans; 0 means "no lookup"."""
    return lookup_id + 1


def _datagram_trace(args) -> int:
    """Trace id of a datagram carrying a lookup body: a routed packet whose
    header ends with the application payload type, the lookup id next."""
    data = args[2]
    if (len(data) >= HEADER_LEN + 8 and data[0] == TYPE_ROUTED
            and data[HEADER_LEN - 1] == PAYLOAD_APP):
        return lookup_trace_id(int.from_bytes(data[HEADER_LEN:HEADER_LEN + 8], "big"))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.nodes: list = []          # every NodeState created
        self.status_bytes = 0          # summed encode_status output sizes
        self.candidates = 0            # summed adjacency sizes at deciders
        self.pairs = 0                 # summed routability pairs tested
        self.links_initiated = 0       # initiate_link calls that opened an attempt
        self._stack: list[list] = []   # frames: [span id, child time, trace id]
        self._ids = itertools.count()
        self._installed: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        return len(self.names) - 1

    def _span_wrapper(self, idx: int, fn, pre=None, post=None):
        stack, calls, spans = self._stack, self.calls, self.spans
        self_s, incl_s = self.self_s, self.incl_s
        ids, clock, tracer = self._ids, time.perf_counter, self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            trace = parent[2] if parent is not None else 0
            if pre is not None:
                trace = pre(args) or trace
            frame = [next(ids), 0.0, trace]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                incl_s[idx] += dur
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0] if parent is not None else -1,
                                  idx, start, end, frame[2]))
                else:
                    tracer.dropped_spans += 1
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _count_wrapper(self, idx: int, fn, post=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _hooks(self, name: str):
        """Extra per-call facts some metrics need: (pre, post) or Nones."""
        def add_status(args, result):
            self.status_bytes += len(result)

        def add_candidates(args, result):
            self.candidates += len(args[1])

        def add_pairs(args, result):
            self.pairs += result.pairs_tested

        def add_node(args, result):
            self.nodes.append(args[0])

        def add_link(args, result):
            self.links_initiated += result is not None

        return {
            "node.on_datagram": (_datagram_trace, None),
            "messages.encode_status": (None, add_status),
            "routing.greedy_next_hop": (None, add_candidates),
            "routing.annealing_next_hop": (None, add_candidates),
            "routing.directional_next_hop": (None, add_candidates),
            "metrics.routability": (None, add_pairs),
            "node.__init__": (None, add_node),
            "node.initiate_link": (None, add_link),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap every target; raises if a target is missing or never bound."""
        for module_name, attr, kind in TARGETS:
            module = importlib.import_module(f"ringnet.{module_name}")
            owner_name, _, func_name = attr.rpartition(".")
            name = f"{module_name}.{func_name}"
            idx = self._index(name)
            pre, post = self._hooks(name)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[func_name]
            else:
                original = getattr(module, func_name)
            if kind == SPAN:
                wrapper = self._span_wrapper(idx, original, pre, post)
            else:
                wrapper = self._count_wrapper(idx, original, post)
            if owner_name:
                setattr(owner, func_name, wrapper)
                self._installed.append((owner, func_name, original))
                continue
            bound = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ringnet" or mod_name.startswith("ringnet.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name}: no module binds it")
        self._lookup_wrapper = self._span_wrapper(
            self._index("bench.lookup"), lambda trace, fn: fn(),
            pre=lambda args: args[0])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def lookup_span(self, lookup_id: int, fn) -> None:
        """Run fn as the root span of one benchmark lookup."""
        self._lookup_wrapper(lookup_trace_id(lookup_id), fn)

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time of every target, plus derived layer facts."""
        out: dict[str, float] = {}
        kinds = {f"{m}.{a.rpartition('.')[2]}": k for m, a, k in TARGETS}
        for idx, name in enumerate(self.names):
            if name.startswith("bench.") or name == "node.__init__":
                continue
            out[f"{name}.calls"] = self.calls[idx]
            if kinds[name] == SPAN:
                out[f"{name}.self_s"] = self.self_s[idx]
        calls = dict(zip(self.names, self.calls))
        inclusive = dict(zip(self.names, self.incl_s))
        encode_status = calls["messages.encode_status"]
        out["messages.status_bytes_mean"] = (
            self.status_bytes / encode_status if encode_status else 0.0)
        decisions = sum(calls[f"routing.{f}_next_hop"]
                        for f in ("greedy", "annealing", "directional"))
        out["routing.candidates_mean"] = self.candidates / decisions if decisions else 0.0
        out["metrics.routability.pairs"] = self.pairs
        # Per pair, routability's whole span counts: the greedy replay
        # it drives is the per-pair work.
        out["metrics.routability.pair_us"] = (
            1e6 * inclusive["metrics.routability"] / self.pairs if self.pairs else 0.0)
        out["node.nodes_created"] = len(self.nodes)
        stats = {key: 0 for key in NODE_COUNTERS}
        for node in self.nodes:
            for key in NODE_COUNTERS:
                stats[key] += node.stats[key]
        for key in NODE_COUNTERS:
            out[f"node.stats.{key}"] = stats[key]
        # An attempt ends established, or counted in link_failed, or is
        # still pending when the run stops (or its node was killed).
        initiated = self.links_initiated
        pending = sum(len(node.pending_links) for node in self.nodes)
        out["node.links_initiated"] = initiated
        out["node.link_success_ratio"] = (
            (initiated - stats["link_failed"] - pending) / initiated if initiated else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,trace_id\n")
            for sid, parent, idx, start, end, trace in self.spans:
                fh.write(f"{sid},{parent},{self.names[idx]},{start:.9f},"
                         f"{end:.9f},{trace}\n")
