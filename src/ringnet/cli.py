"""Experiment runner and operator entry point.

Subcommands:

* ``run``        - execute a scenario manifest against the simulator,
                   writing each seed's trace rows and snapshots as
                   they are measured, and checking metric thresholds;
* ``demo-real``  - run ``scenarios.loopback``: the scenario runner on a
                   ``RealNetwork`` bootstraps a small ring over loopback
                   UDP, TCP or both, and reports correctness;
* ``analyze``    - verify a snapshot file offline and emit DOT;
* ``hops``, ``churn-sweep``, ``massive-dynamics`` - print the paper's
                   figures (``metrics.hop_law``, ``scenarios``' experiments).

Exit codes: 0 success, 1 a metric threshold was violated, 2 usage or
configuration error.

Manifests and scenario files are plain ``key = value`` sections.  One
table-driven reader checks every line and reports the first bad one as
``path:line``: in file order in ``[scenario]``, every key before any
value in the other sections.  The sections and their keys:

* ``[run]``: ``scenario``, ``seeds`` and ``output`` (required), ``mode``
  (``sim`` only) and ``dot`` (``yes`` or ``no``);
* ``[thresholds]``, checked on the final row: ``routability_floor``,
  ``ring_correct_floor``, ``missing_edges_max`` and ``ks_ceiling``;
* ``[scenario]``: ``measurement_interval``, ``pair_budget`` and one
  ``phase = NAME k=v ...`` line per phase, run in order: ``bootstrap n
  spacing``, ``wait t``, ``massive_join n``, ``massive_fail n`` or
  ``fraction``, ``churn duration p_leave``, ``merge left right settle``;
* ``[sim]``: ``latency`` (``constant S`` or ``uniform LO HI``) and
  ``loss_rate``;
* ``[overlay]``: ``k_shortcuts``, ``status_interval`` (or ``off``) and
  ``tick_interval``.

README.md shows a whole manifest and scenario file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from statistics import mean

from . import scenarios as sc
from .metrics import (
    InsufficientSamples,
    hop_law,
    read_snapshot,
    ring_correct,
    routability,
    shortcut_cdf,
    to_dot,
)
from .node import OverlayConfig
from .simnet import ConstantLatency, SimConfig, UniformLatency
from .topology import synthetic_snapshot

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict[str, list[tuple[int, str, str]]]:
    """INI-style parser keeping line numbers and repeated keys."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


def _read(where: str, entries, spec: dict, unknown: str = "unknown key {!r}",
          first: tuple | None = None) -> list[tuple[str, object]]:
    """Parse each ``(lineno, key, value)`` entry with ``spec[key]`` into
    ``(key, parsed)`` pairs.  An error starts ``where:lineno:`` (just the
    message if ``where`` is empty): a key not in ``spec``, a parser's
    ``ValueError`` as a bad value, or its ``ConfigError``.  Entries are read
    in order, key then value; given ``first``, every key is checked before
    any value, and the keys in ``first`` are parsed first, in that order."""
    if first is not None:
        _read(where, entries, dict.fromkeys(spec, str))
        rank = {key: i for i, key in enumerate(first)}
        entries = sorted(entries, key=lambda entry: rank.get(entry[1], len(first)))
    parsed = []
    for lineno, key, value in entries:
        at = f"{where}:{lineno}: " if where else ""
        if key not in spec:
            raise ConfigError(at + unknown.format(key))
        try:
            parsed.append((key, spec[key](value)))
        except ConfigError as exc:
            raise ConfigError(f"{at}{exc}")
        except ValueError:
            raise ConfigError(f"{at}bad value for {key!r}")
    return parsed


def _checked(parse, ok):
    """``parse``, rejecting as a bad value what ``ok`` refuses."""
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse_checked


_finite = _checked(float, math.isfinite)
# NaN, infinity or a negative value would silently skip a phase or timer.
_seconds = _checked(float, lambda value: 0 <= value < math.inf)


_PHASE_SPECS = {
    "bootstrap": (sc.Bootstrap, {"n": int, "spacing": _seconds}),
    "wait": (sc.Wait, {"t": _seconds}),
    "massive_join": (sc.MassiveJoin, {"n": int}),
    "massive_fail": (sc.MassiveFail, {"n": int, "fraction": float}),
    "churn": (sc.Churn, {"duration": _checked(_seconds, float.is_integer),
                         "p_leave": float}),
    "merge": (sc.Merge, {"left": int, "right": int, "settle": _seconds}),
}
# Phase arguments whose dataclass field has another name.
_FIELDS = {("wait", "t"): "seconds", ("massive_fail", "n"): "count"}


def _phase(text: str):
    name, *parts = text.split() or [""]
    if not name:
        raise ConfigError("empty phase")
    if name not in _PHASE_SPECS:
        raise ConfigError(f"unknown phase {name!r}")
    if not all("=" in part for part in parts):
        raise ConfigError("phase arguments must be k=v")
    cls, argspec = _PHASE_SPECS[name]
    args = _read("", [(0, *part.split("=", 1)) for part in parts], argspec,
                 f"unknown argument {{!r}} for phase {name}")
    try:
        return cls(**{_FIELDS.get((name, key), key): value for key, value in args})
    except TypeError as exc:
        raise ConfigError(str(exc))


def _latency(text: str):
    kind, *bounds = text.split() or [""]
    try:
        if kind == "constant" and len(bounds) == 1:
            return ConstantLatency(float(bounds[0]))
        if kind == "uniform" and len(bounds) == 2:
            return UniformLatency(float(bounds[0]), float(bounds[1]))
    except ValueError:
        pass
    raise ConfigError("latency must be 'constant S' or 'uniform LO HI', "
                      "in finite seconds >= 0")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split():
        try:
            seeds.append(int(part))
        except ValueError:
            raise ConfigError(f"bad seed {part!r}")
    if not seeds:
        raise ConfigError("need at least one seed")
    return seeds


def _mode(text: str) -> str:
    if text != "sim":
        raise ConfigError("only mode = sim is supported by 'run' "
                          "(use demo-real for loopback transports)")
    return text


_SCENARIO = {"phase": _phase, "measurement_interval": _seconds, "pair_budget": int}
_SIM = {"latency": _latency,
        # SimConfig checks that the loss rate is a probability.
        "loss_rate": lambda text: SimConfig(loss_rate=float(text)).loss_rate}
_OVERLAY = {
    # A negative count would run as 0 and never establish.
    "k_shortcuts": _checked(int, lambda value: value >= 0),
    "status_interval": lambda text: None if text == "off" else _seconds(text),
    # At zero, each tick would reschedule itself at once.
    "tick_interval": _checked(float, lambda value: 0 < value < math.inf),
}
_RUN = {"scenario": str, "seeds": _seeds, "output": str, "mode": _mode,
        "dot": _checked(str, lambda value: value in ("yes", "no"))}
_THRESHOLDS = dict.fromkeys(("routability_floor", "ring_correct_floor",
                             "missing_edges_max", "ks_ceiling"), _finite)


def load_scenario(path: str) -> tuple[sc.Scenario, SimConfig, OverlayConfig]:
    sections = parse_config(path)
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")
    entries = _read(path, sections["scenario"], _SCENARIO)
    phases = [value for key, value in entries if key == "phase"]
    if not phases:
        raise ConfigError(f"{path}: scenario has no phases")
    scenario = sc.Scenario(phases, **{k: v for k, v in entries if k != "phase"})
    sim = _read(path, sections.get("sim", []), _SIM, first=("latency",))
    overlay = _read(path, sections.get("overlay", []), _OVERLAY, first=())
    try:
        scenario.validate()
    except sc.ScenarioInvalid as exc:
        raise ConfigError(f"{path}: {exc}")
    return scenario, SimConfig(**dict(sim)), OverlayConfig(**dict(overlay))


def load_manifest(path: str) -> dict:
    sections = parse_config(path)
    if "run" not in sections:
        raise ConfigError(f"{path}: missing [run] section")
    _read(path, sections["run"], dict.fromkeys(_RUN, str))  # unknown keys first
    for required in ("scenario", "seeds", "output"):
        if required not in {key for _, key, _ in sections["run"]}:
            raise ConfigError(f"{path}: [run] needs {required!r}")
    run = dict(_read(path, sections["run"], _RUN, first=("mode", "dot", "seeds")))
    scenario_path = run["scenario"]
    if not os.path.isabs(scenario_path):
        scenario_path = os.path.join(os.path.dirname(path) or ".", scenario_path)
    return {
        "scenario_path": scenario_path,
        "seeds": run["seeds"],
        "output": run["output"],
        "dot": run.get("dot") == "yes",
        "thresholds": dict(_read(path, sections.get("thresholds", []), _THRESHOLDS,
                                 first=())),
    }


def _check_thresholds(trace: sc.SimTrace, thresholds: dict) -> list[str]:
    failures = []
    if not trace.rows:
        return ["no measurements recorded"]
    final = trace.rows[-1]
    floor = thresholds.get("routability_floor")
    if floor is not None and final.routability < floor:
        failures.append(f"routability {final.routability:.4f} < {floor}")
    floor = thresholds.get("ring_correct_floor")
    if floor is not None and final.ring_correct_fraction < floor:
        failures.append(f"ring_correct {final.ring_correct_fraction:.4f} < {floor}")
    ceiling = thresholds.get("missing_edges_max")
    if ceiling is not None and final.missing_edges > ceiling:
        failures.append(f"missing_edges {final.missing_edges} > {ceiling:g}")
    ceiling = thresholds.get("ks_ceiling")
    if ceiling is not None:
        try:
            report = shortcut_cdf(trace.snapshot)
            if report.ks_distance > ceiling:
                failures.append(f"shortcut KS {report.ks_distance:.4f} > {ceiling}")
        except InsufficientSamples as exc:
            failures.append(f"shortcut KS unavailable: {exc}")
    return failures


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def cmd_run(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
        scenario, sim_config, overlay = load_scenario(manifest["scenario_path"])
    except ConfigError as exc:
        return _usage(f"config error: {exc}")
    failed = False
    for seed in manifest["seeds"]:
        trace = sc.SimTrace(os.path.join(manifest["output"], f"seed-{seed}"),
                            manifest["dot"])
        sc.run(scenario, dataclasses.replace(sim_config, seed=seed), overlay, trace)
        failures = _check_thresholds(trace, manifest["thresholds"])
        verdict = "PASS" if not failures else "FAIL"
        final = trace.rows[-1] if trace.rows else None
        summary = (f"routability={final.routability:.4f} "
                   f"ring_correct={final.ring_correct_fraction:.4f} "
                   f"missing={final.missing_edges}" if final else "no rows")
        print(f"seed {seed}: {verdict} {summary}")
        for failure in failures:
            print(f"  threshold: {failure}")
        failed = failed or bool(failures)
    return EXIT_THRESHOLD if failed else EXIT_OK


def cmd_demo_real(args) -> int:
    if args.n < 1 or args.n > 64:
        return _usage("demo-real supports 1..64 nodes")
    try:
        final = sc.loopback(args.n, args.transport, budget=args.budget).rows[-1]
    except OSError as exc:
        return _usage(f"transport error: {exc}")
    print(f"ring_correct={final.ring_correct_fraction:.4f} after "
          f"{final.simulated_time_s:.1f}s ({args.n} nodes, {args.transport})")
    return EXIT_OK if final.ring_correct_fraction >= 1.0 else EXIT_THRESHOLD


def cmd_analyze(args) -> int:
    if args.pair_budget is not None and args.pair_budget < 1:
        return _usage("--pair-budget must be at least 1")
    try:
        snap = read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        return _usage(f"malformed snapshot: {exc}")
    deficits, correct = ring_correct(snap)
    report = routability(snap, args.pair_budget)
    print(f"nodes: {len(snap.nodes)}")
    print(f"ring_correct_fraction: {correct:.6f}")
    print(f"routability: {report.routability:.6f} "
          f"({report.pairs_routable}/{report.pairs_tested} pairs, "
          f"mean_hops={report.mean_hops:.2f}, max_hops={report.max_hops})")
    print(f"missing_edges: {sum(deficits.values())}")
    try:
        shortcut = shortcut_cdf(snap)
        print(f"shortcut_ks: {shortcut.ks_distance:.6f} "
              f"over {shortcut.samples} shortcuts")
    except InsufficientSamples as exc:
        print(f"shortcut_ks: unavailable ({exc})")
    dot_path = args.snapshot + ".dot"
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(snap))
    print(f"wrote {dot_path}")
    return EXIT_OK


def cmd_hops(args) -> int:
    if min(args.sizes) < 2 or min(args.ks) < 1 or args.pairs < 1:
        return _usage("hops needs --sizes >= 2, --ks >= 1 and --pairs >= 1")
    print("n,k,mean_hops,max_hops,c_fit")
    for k in args.ks:
        cells = {n: routability(synthetic_snapshot(n, k=k, seed=args.seed + n + 31 * k),
                                pair_budget=args.pairs, seed=args.seed)
                 for n in args.sizes}
        c, _ = hop_law({n: rep.mean_hops for n, rep in cells.items()}, k)
        for n, rep in cells.items():
            print(f"{n},{k},{rep.mean_hops:.3f},{rep.max_hops},{c:.4f}")
    return EXIT_OK


def cmd_churn_sweep(args) -> int:
    if not all(mult > 0 for mult in args.multiples):
        return _usage("--multiples must be positive")
    # Refuse a duration the sweep's runs would refuse, before its probe run.
    sc.Scenario([sc.Bootstrap(args.nodes), sc.Churn(args.duration, 0.0)]).validate()
    t_join, sweep = sc.churn_sweep(args.nodes, args.multiples, args.duration, args.seed)
    print(f"# mean establish time: {t_join:.2f}s")
    print("session_multiple,session_s,routability_mean,routability_min,"
          "ring_correct_mean")
    for mult, rows in sweep.items():
        rts = [r.routability for r in rows]
        print(f"{mult},{t_join * mult:.1f},{mean(rts):.4f},{min(rts):.4f},"
              f"{mean(r.ring_correct_fraction for r in rows):.4f}")
    return EXIT_OK


def cmd_massive_dynamics(args) -> int:
    # Refuse what the run would refuse, before SimTrace creates --out.
    sc.Scenario([sc.Bootstrap(args.base), sc.MassiveJoin(args.join),
                 sc.MassiveFail(fraction=args.fail_fraction)]).validate()
    trace = sc.massive_dynamics(args.base, args.join, args.seed, args.fail_fraction,
                                sc.SimTrace(args.out, dot=True))
    final = trace.rows[-1]
    print(f"final: live={final.live_nodes} routability={final.routability:.4f} "
          f"missing={final.missing_edges}")
    print(f"wrote {args.out}/trace.csv and snapshots")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringnet", description="ring overlay experiment tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario manifest")
    p_run.add_argument("manifest")
    p_run.set_defaults(fn=cmd_run)

    p_demo = sub.add_parser("demo-real",
                            help="bootstrap a loopback ring over real sockets")
    p_demo.add_argument("-n", type=int, default=8)
    p_demo.add_argument("--transport", choices=("udp", "tcp", "mixed"),
                        default="udp")
    p_demo.add_argument("--budget", type=float, default=60.0,
                        help="wall-clock seconds after the bootstrap to "
                             "reach a correct ring")
    p_demo.set_defaults(fn=cmd_demo_real)

    p_an = sub.add_parser("analyze", help="verify a snapshot file")
    p_an.add_argument("snapshot")
    p_an.add_argument("--pair-budget", type=int, default=None)
    p_an.set_defaults(fn=cmd_analyze)

    p_hops = sub.add_parser("hops", help="mean greedy hops versus size and k")
    p_hops.add_argument("--sizes", type=int, nargs="+", default=[256, 1024, 4096])
    p_hops.add_argument("--ks", type=int, nargs="+", default=[1, 2, 4, 8])
    p_hops.add_argument("--pairs", type=int, default=10_000)
    p_hops.add_argument("--seed", type=int, default=1)
    p_hops.set_defaults(fn=cmd_hops)

    p_churn = sub.add_parser("churn-sweep", help="routability versus session time")
    p_churn.add_argument("--nodes", type=int, default=256)
    p_churn.add_argument("--multiples", type=float, nargs="+", default=[100, 30, 10, 3])
    p_churn.add_argument("--duration", type=float, default=120.0)
    p_churn.add_argument("--seed", type=int, default=3)
    p_churn.set_defaults(fn=cmd_churn_sweep)

    p_dyn = sub.add_parser("massive-dynamics", help="massive join, then failure")
    p_dyn.add_argument("--base", type=int, default=256)
    p_dyn.add_argument("--join", type=int, default=250)
    p_dyn.add_argument("--fail-fraction", type=float, default=0.3)
    p_dyn.add_argument("--seed", type=int, default=11)
    p_dyn.add_argument("--out", default="out/massive")
    p_dyn.set_defaults(fn=cmd_massive_dynamics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except sc.ScenarioInvalid as exc:  # the experiments validate before they run
        return _usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
