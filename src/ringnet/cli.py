"""Experiment runner and operator entry point.

Subcommands:

* ``run``        - execute a scenario manifest against the simulator,
                   writing each seed's trace rows and snapshots as
                   they are measured, and checking metric thresholds;
* ``demo-real``  - run ``scenarios.loopback``: the scenario runner on a
                   ``RealNetwork`` bootstraps a small ring over loopback
                   UDP, TCP or both, and reports correctness;
* ``analyze``    - verify a snapshot file offline and emit DOT.

Exit codes: 0 success, 1 a metric threshold was violated, 2 usage or
configuration error.

Manifests and scenario files are plain ``key = value`` sections::

    [run]
    scenario = scenarios/churn.cfg
    seeds = 1 2 3
    output = out/churn
    mode = sim

    [thresholds]
    routability_floor = 0.99
    missing_edges_max = 0

The scenario file names its phases one per ``phase =`` line, in order:

    [scenario]
    measurement_interval = 2.0
    phase = bootstrap n=64 spacing=0.5
    phase = wait t=30
    phase = churn duration=300 p_leave=0.0014

    [sim]
    latency = constant 0.01
    loss_rate = 0.0

    [overlay]
    k_shortcuts = 4
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import scenarios as sc
from .metrics import (
    InsufficientSamples,
    read_snapshot,
    ring_correct,
    routability,
    shortcut_cdf,
    to_dot,
)
from .node import OverlayConfig
from .simnet import ConstantLatency, SimConfig, UniformLatency

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


def _known_keys(path: str, section: list[tuple[int, str, str]],
                allowed: set[str]) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, key, value in section:
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = (lineno, value)
    return out


def _parse_kv_args(path: str, lineno: int, parts: list[str]) -> dict[str, str]:
    args = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"{path}:{lineno}: phase arguments must be k=v")
        k, v = part.split("=", 1)
        args[k] = v
    return args


def _seconds(text: str) -> float:
    # NaN, infinity or a negative value would silently skip a phase or timer.
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(text)
    return value


_PHASE_SPECS = {
    "bootstrap": (sc.Bootstrap, {"n": int, "spacing": _seconds}),
    "wait": (sc.Wait, {"t": _seconds}),
    "massive_join": (sc.MassiveJoin, {"n": int}),
    "massive_fail": (sc.MassiveFail, {"n": int, "fraction": float}),
    "churn": (sc.Churn, {"duration": _seconds, "p_leave": float}),
    "merge": (sc.Merge, {"left": int, "right": int, "settle": _seconds}),
}
# Phase arguments whose dataclass field has another name.
_FIELDS = {("wait", "t"): "seconds", ("massive_fail", "n"): "count"}

def _build_phase(path: str, lineno: int, text: str):
    parts = text.split()
    if not parts:
        raise ConfigError(f"{path}:{lineno}: empty phase")
    name = parts[0]
    if name not in _PHASE_SPECS:
        raise ConfigError(f"{path}:{lineno}: unknown phase {name!r}")
    cls, argspec = _PHASE_SPECS[name]
    raw = _parse_kv_args(path, lineno, parts[1:])
    kwargs = {}
    for key, value in raw.items():
        if key not in argspec:
            raise ConfigError(f"{path}:{lineno}: unknown argument {key!r} "
                              f"for phase {name}")
        try:
            kwargs[_FIELDS.get((name, key), key)] = argspec[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}:{lineno}: {exc}")


def load_scenario(path: str) -> tuple[sc.Scenario, SimConfig, OverlayConfig]:
    sections = parse_config(path)
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")

    phases = []
    meta: dict[str, float] = {}
    numbers = {"measurement_interval": _seconds, "pair_budget": int}
    for lineno, key, value in sections["scenario"]:
        if key == "phase":
            phases.append(_build_phase(path, lineno, value))
        elif key in numbers:
            try:
                meta[key] = numbers[key](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if not phases:
        raise ConfigError(f"{path}: scenario has no phases")
    scenario = sc.Scenario(phases, **meta)

    sim_kwargs = {}
    sim = _known_keys(path, sections.get("sim", []),
                      {"latency", "loss_rate"})
    if "latency" in sim:
        lineno, value = sim["latency"]
        parts = value.split()
        try:
            if parts[0] == "constant" and len(parts) == 2:
                sim_kwargs["latency"] = ConstantLatency(float(parts[1]))
            elif parts[0] == "uniform" and len(parts) == 3:
                sim_kwargs["latency"] = UniformLatency(float(parts[1]),
                                                       float(parts[2]))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ConfigError(f"{path}:{lineno}: latency must be 'constant S' "
                              f"or 'uniform LO HI', in finite seconds >= 0")
    # Only a loss_rate that is not a number or not a probability raises.
    try:
        if "loss_rate" in sim:
            sim_kwargs["loss_rate"] = float(sim["loss_rate"][1])
        sim_config = SimConfig(**sim_kwargs)
    except ValueError:
        raise ConfigError(f"{path}:{sim['loss_rate'][0]}: bad value for 'loss_rate'")

    overlay = OverlayConfig()
    allowed = {"k_shortcuts", "status_interval", "tick_interval"}
    for key, (lineno, value) in _known_keys(
            path, sections.get("overlay", []), allowed).items():
        try:
            if key == "status_interval":
                overlay.status_interval = (None if value == "off"
                                           else _seconds(value))
            elif key == "tick_interval":
                # At zero, each tick reschedules itself at once.
                overlay.tick_interval = _seconds(value)
                if not overlay.tick_interval > 0:
                    raise ValueError
            else:
                # A negative count would run as 0 and never establish.
                overlay.k_shortcuts = int(value)
                if overlay.k_shortcuts < 0:
                    raise ValueError
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
    try:
        scenario.validate()
    except sc.ScenarioInvalid as exc:
        raise ConfigError(f"{path}: {exc}")
    return scenario, sim_config, overlay


def load_manifest(path: str) -> dict:
    sections = parse_config(path)
    if "run" not in sections:
        raise ConfigError(f"{path}: missing [run] section")
    run = _known_keys(path, sections["run"],
                      {"scenario", "seeds", "output", "mode", "dot"})
    for required in ("scenario", "seeds", "output"):
        if required not in run:
            raise ConfigError(f"{path}: [run] needs {required!r}")
    mode = run.get("mode", (0, "sim"))[1]
    if mode != "sim":
        raise ConfigError(f"{path}: only mode = sim is supported by 'run' "
                          f"(use demo-real for loopback transports)")
    lineno, dot = run.get("dot", (0, "no"))
    if dot not in ("yes", "no"):
        raise ConfigError(f"{path}:{lineno}: bad value for 'dot'")
    seeds = []
    lineno, text = run["seeds"]
    for part in text.split():
        try:
            seeds.append(int(part))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad seed {part!r}")
    if not seeds:
        raise ConfigError(f"{path}:{lineno}: need at least one seed")
    scenario_path = run["scenario"][1]
    if not os.path.isabs(scenario_path):
        scenario_path = os.path.join(os.path.dirname(path) or ".", scenario_path)

    thresholds = {}
    allowed = {"routability_floor", "ring_correct_floor", "missing_edges_max",
               "ks_ceiling"}
    for key, (lineno, value) in _known_keys(
            path, sections.get("thresholds", []), allowed).items():
        try:
            thresholds[key] = float(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
    return {
        "scenario_path": scenario_path,
        "seeds": seeds,
        "output": run["output"][1],
        "dot": dot == "yes",
        "thresholds": thresholds,
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


def cmd_run(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
        scenario, sim_config, overlay = load_scenario(manifest["scenario_path"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        print("demo-real supports 1..64 nodes", file=sys.stderr)
        return EXIT_USAGE
    try:
        final = sc.loopback(args.n, args.transport, budget=args.budget).rows[-1]
    except OSError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"ring_correct={final.ring_correct_fraction:.4f} after "
          f"{final.simulated_time_s:.1f}s ({args.n} nodes, {args.transport})")
    return EXIT_OK if final.ring_correct_fraction >= 1.0 else EXIT_THRESHOLD


def cmd_analyze(args) -> int:
    if args.pair_budget is not None and args.pair_budget < 1:
        print("--pair-budget must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        snap = read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        print(f"malformed snapshot: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
