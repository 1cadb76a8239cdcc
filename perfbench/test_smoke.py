"""Smoke test of the benchmark at tiny sizes.

Run with: python3 -m pytest -q perfbench/test_smoke.py

Covers the output checks (each must name the failure it finds), the
determinism cross-checks between repeats and between an untraced and a
traced pass, and the result line's shape and exit codes.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "lookup-1024": dict(nodes=32, k=2, rate=200.0, sim_s=5.0, drain_s=1.0),
    "churn-256": dict(nodes=16, k=2, spacing=0.25, settle_s=3.0, churn_s=5.0,
                      final_settle_s=3.0, departures_per_s=0.2, status_interval=1.5,
                      measure_interval=2.0, pair_budget=100, lookup_rate=100.0),
    "verify-4096": dict(nodes=512, k=4, pair_budget=1000),
}


def tiny_pass(workload: str, seed: int = 3, tracer=None) -> dict:
    setup, run = workloads.WORKLOADS[workload]
    result = run(setup(seed, TINY[workload], tracer))
    result.update(setup_s=0.1, setup_wall_s=0.1, peak_rss_mb=workloads.peak_rss_mb(), wall_s=0.2)
    return result


@pytest.fixture(scope="module")
def passes() -> dict:
    return {w: [tiny_pass(w), tiny_pass(w)] for w in bench.WORKLOADS}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_passes_pass_every_check(passes, workload):
    first, second = passes[workload]
    assert bench.pass_failures(workload, first) == []
    assert bench.determinism_failures("determinism_repeats", [first, second]) == ["", ""]


def test_traced_pass_repeats_untraced_outputs(passes):
    tracer = Tracer()
    tracer.install()
    try:
        traced = tiny_pass("churn-256", tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = passes["churn-256"][0]
    assert bench.determinism_failures("determinism_traced", [untraced, traced]) == ["", ""]
    layers = bench.per_layer(untraced, dict(traced, layers=tracer.layer_metrics()))
    declared = bench.load_declared()[1]
    assert set(layers) == set(declared)
    for name in ("packet.decode", "messages.decode_link_body", "node.on_datagram",
                 "simnet.transmit", "connections.with_role", "scenarios.take_snapshot",
                 "metrics.routability", "address.directed_distance"):
        assert layers[f"{name}.calls"] > 0, name
    assert any(trace for *_, trace in tracer.spans), "no span carries a lookup id"


@pytest.mark.parametrize("workload, field, value, check", [
    ("lookup-1024", "lookups_ok", -1, "lookup_delivered_to_owner"),
    ("lookup-1024", "lookups", 999, "lookup_samples"),
    ("churn-256", "final_routability", 0.98, "churn_final_routability"),
    ("verify-4096", "lookup_success", 0.999, "verify_routability"),
    ("verify-4096", "ring_correct_final", 0.99, "verify_ring_correct"),
    ("verify-4096", "missing_edges", 1, "verify_missing_edges"),
    ("verify-4096", "shortcut_ks", 0.05, "verify_shortcut_ks"),
])
def test_each_check_names_its_failure(passes, workload, field, value, check):
    broken = copy.deepcopy(passes[workload][0])
    broken[field] = broken[field] + value if value == -1 else value
    failures = bench.pass_failures(workload, broken)
    assert failures and failures[0].startswith(check + ":")


def test_a_differing_repeat_fails_determinism(passes):
    first = passes["lookup-1024"][0]
    other = copy.deepcopy(first)
    other["det"]["datagrams"] += 1
    found = bench.determinism_failures("determinism_repeats", [first, other])
    assert found[0] == "" and found[1].startswith("determinism_repeats:")


def test_result_line_and_exit_codes(passes, monkeypatch, capsys):
    canned = passes["verify-4096"]
    calls = itertools.count()
    monkeypatch.setattr(bench, "run_pass",
                        lambda *a: copy.deepcopy(canned[next(calls) % 2]))
    assert bench.main(["--workload", "verify-4096", "--seed", "3",
                       "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.load_declared()[0])

    broken = copy.deepcopy(canned[1])
    broken["missing_edges"] = 2
    monkeypatch.setattr(bench, "run_pass", lambda *a: copy.deepcopy(broken))
    assert bench.main(["--workload", "verify-4096", "--seed", "3",
                       "--seconds", "0"]) == 1
    out, err = capsys.readouterr()
    assert "verify_missing_edges" in err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 2
