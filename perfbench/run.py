"""ringnet benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload lookup-1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass of a workload runs in its own fresh, single-threaded process
(``worker.py``), one after another, so ``peak_rss_mb`` and ``setup_s``
belong to that pass alone. With ``--trace 0`` passes repeat until
``--seconds`` is used up (at least two), timings are medians over the
passes (``setup_s`` over at least eleven set-ups), and every pass must repeat the first one's deterministic
outputs exactly. Timings are rescaled to a reference host speed by a
calibration kernel run between chunks of each pass (see clock.py). With ``--trace 1`` one untraced pass and
one traced pass run; their deterministic outputs must match, and the
per-layer metrics come from the traced pass.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed output check is named on standard error and the exit code is 1;
a pass that cannot run at all exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("lookup-1024", "churn-256", "verify-4096")
MIN_PASSES = 2
# Set-up time is a median over at least this many set-ups; set-up-only
# processes make up the count when too few passes fit in a run.
MIN_SETUPS = 11
# Every run must end within this many seconds, passes included.
RUN_LIMIT_S = 170.0

# Output floors: acceptance 03's KS bound and scenarios/churn.cfg's floor.
KS_BOUND = 0.05
CHURN_ROUTABILITY_FLOOR = 0.99
# p99 needs at least ten samples beyond it.
MIN_LOOKUPS = 1000


class PassError(RuntimeError):
    """A pass could not run or produced no result."""


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker process (see worker.py for modes) and return its result."""
    cmd = [sys.executable, WORKER, workload, str(seed), mode]
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawn_t)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassError(f"{workload} pass printed no result:\n{proc.stdout}{proc.stderr}")
    result["wall_s"] = time.monotonic() - spawn_t
    return result


# ----------------------------------------------------------------------
# output checks


def pass_failures(workload: str, r: dict) -> list[str]:
    """Names and details of the output checks one pass fails."""
    failed = []
    if r["lookups"] < MIN_LOOKUPS:
        failed.append(f"lookup_samples: {r['lookups']} lookups, need {MIN_LOOKUPS}")
    if workload == "lookup-1024" and r["lookups_ok"] != r["lookups"]:
        failed.append(f"lookup_delivered_to_owner: {r['lookups'] - r['lookups_ok']}"
                      f" of {r['lookups']} lookups missed their owner")
    if workload == "churn-256" and r["final_routability"] < CHURN_ROUTABILITY_FLOOR:
        failed.append(f"churn_final_routability: {r['final_routability']:.6f}"
                      f" < {CHURN_ROUTABILITY_FLOOR}")
    if workload == "verify-4096":
        if r["lookup_success"] != 1.0:
            failed.append(f"verify_routability: {r['lookup_success']:.6f} != 1.0")
        if r["ring_correct_final"] != 1.0:
            failed.append(f"verify_ring_correct: {r['ring_correct_final']:.6f} != 1.0")
        if r["missing_edges"] != 0:
            failed.append(f"verify_missing_edges: {r['missing_edges']} != 0")
        if not r["shortcut_ks"] < KS_BOUND:
            failed.append(f"verify_shortcut_ks: {r['shortcut_ks']:.6f} >= {KS_BOUND}")
    return failed


def determinism_failures(check: str, results: list[dict]) -> list[str]:
    """Every result must repeat the first one's deterministic outputs."""
    first = results[0]["det"]
    return [f"{check}: gave {r['det']}, pass 0 gave {first}"
            if r["det"] != first else "" for r in results]


# ----------------------------------------------------------------------
# metrics


def end_to_end(results: list[dict], setups: list[dict]) -> dict[str, float]:
    first = results[0]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results + setups),
        "pass_s": statistics.median(r["pass_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "lookup_success": first["lookup_success"],
        "lookup_hops_mean": first["lookup_hops_mean"],
        "ring_correct_final": first["ring_correct_final"],
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    layers = dict(traced["layers"])
    datagrams = untraced.get("datagrams", 0)
    layers["simnet.events_per_s"] = (
        layers["simnet.call_later.calls"] / untraced["pass_s"] if datagrams else 0.0)
    layers["simnet.bytes_per_datagram"] = (
        untraced["bytes"] / datagrams if datagrams else 0.0)
    layers["simnet.delivered_ratio"] = (
        1.0 - untraced["undeliverable"] / datagrams if datagrams else 0.0)
    layers["scenarios.phase.bootstrap.wall_per_sim_s"] = untraced.get(
        "phase_bootstrap_wall_per_sim_s", 0.0)
    layers["scenarios.phase.churn.wall_per_sim_s"] = untraced.get(
        "phase_churn_wall_per_sim_s", 0.0)
    layers["trace_overhead"] = traced["pass_s"] / untraced["pass_s"]
    return layers


def figures(workload: str, r: dict) -> dict[str, float]:
    """The workload's own end-to-end figures, for the human-readable report.

    ``*_wall_s`` and the figures named after the wall clock are raw wall
    time; ``host_speed`` is the reference kernel time over the measured one.
    """
    out = {"setup_s": r["setup_s"], "setup_wall_s": r["setup_wall_s"],
           "pass_s": r["pass_s"], "pass_wall_s": r["pass_wall_s"],
           "host_speed": r["speed"], "peak_rss_mb": r["peak_rss_mb"],
           "lookups": r["lookups"], "lookup_success": r["lookup_success"],
           "lookup_hops_mean": r["lookup_hops_mean"],
           "ring_correct_final": r["ring_correct_final"]}
    if workload == "verify-4096":
        out.update(analyze_s=r["pass_wall_s"], missing_edges=r["missing_edges"],
                   shortcut_ks=r["shortcut_ks"], max_hops=r["max_hops"])
        return out
    out.update(wall_per_sim_s=r["pass_wall_s"] / r["sim_s"],
               datagrams_per_s=r["datagrams"] / r["pass_wall_s"],
               datagrams_per_node_s=r["datagrams_per_node_s"],
               lookup_latency_p50_ms=r["lookup_latency_p50_ms"],
               lookup_latency_p99_ms=r["lookup_latency_p99_ms"])
    if workload == "churn-256":
        out.update(final_routability=r["final_routability"],
                   phase_bootstrap_wall_per_sim_s=r["phase_bootstrap_wall_per_sim_s"],
                   phase_churn_wall_per_sim_s=r["phase_churn_wall_per_sim_s"])
    return out


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise PassError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ----------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], started: float) -> dict:
    """Run one workload's passes, check them, and return the result object."""
    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    results, setups = [], []
    if trace:
        results.append(run_pass(workload, seed, "pass", remaining()))
        results.append(run_pass(workload, seed, "traced", remaining()))
    else:
        begin = time.monotonic()
        while True:
            results.append(run_pass(workload, seed, "pass", remaining()))
            elapsed = time.monotonic() - begin
            longest = max(r["wall_s"] for r in results)
            if len(results) >= MIN_PASSES and elapsed + longest > seconds:
                break
        setups = [run_pass(workload, seed, "setup", remaining())
                  for _ in range(MIN_SETUPS - len(results))]

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"passes-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(passes=results, setups=setups), fh)
    failures, failed_passes = [], 0
    repeats = determinism_failures(
        "determinism_traced" if trace else "determinism_repeats", results)
    for i, r in enumerate(results):
        tag = "traced " if trace and i == 1 else ""
        print(f"{workload} seed {seed} {tag}pass {i}: wall {r['wall_s']:.3f} s, "
              f"setup {r['setup_s']:.3f} s, pass {r['pass_s']:.3f} s "
              f"(wall {r['pass_wall_s']:.3f} s, host speed {r['speed']:.3f}), "
              f"rss {r['peak_rss_mb']:.1f} MB")
        found = pass_failures(workload, r) + ([repeats[i]] if repeats[i] else [])
        failures += [f"pass {i}: {f}" for f in found]
        failed_passes += bool(found)

    for name, value in figures(workload, results[0]).items():
        print(f"  {name} = {value}")
    if trace:
        values = per_layer(results[0], results[1])
        print(f"  spans kept {results[1]['spans_kept']}, dropped "
              f"{results[1]['spans_dropped']}, written to {results[1]['spans_path']}")
    else:
        values = end_to_end(results, setups)
    for f in failures:
        print(f"CHECK FAILED: {workload}: {f}", file=sys.stderr)
    return {"correct": not failures, "attempted": len(results),
            "failed": failed_passes,
            "metrics": with_units(values, units)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()}")
    try:
        units = load_declared()[args.trace]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outcome = {}
        for workload in names:
            outcome[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), units, time.monotonic())
    except (PassError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload, result in outcome.items():
            print(f"{workload}: {json.dumps(result)}")
        result = {
            "correct": all(r["correct"] for r in outcome.values()),
            "attempted": sum(r["attempted"] for r in outcome.values()),
            "failed": sum(r["failed"] for r in outcome.values()),
            "metrics": {f"{w}.{name}": m for w, r in outcome.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        result = outcome[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
