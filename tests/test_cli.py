"""CLI tests: config parsing, run/analyze/experiment flows, exit codes."""

import hashlib
import itertools
import os
import re

import pytest

from ringnet import cli, scenarios
from ringnet.cli import EXIT_OK, EXIT_THRESHOLD, EXIT_USAGE, ConfigError
from ringnet.metrics import read_snapshot, to_dot, write_snapshot
from ringnet.topology import synthetic_snapshot

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SCENARIO = """
[scenario]
measurement_interval = 2.0
pair_budget = 200
phase = bootstrap n=10 spacing=0.4
phase = wait t=10

[sim]
latency = constant 0.01

[overlay]
k_shortcuts = 2
"""


def manifest_text(scenario_name, extra=""):
    return f"""
[run]
scenario = {scenario_name}
seeds = 1 2
output = out
mode = sim

[thresholds]
routability_floor = 0.99
missing_edges_max = 0
{extra}
"""


# ----------------------------------------------------------------------
# config parsing


def test_parse_config_keeps_lines_and_repeats(tmp_path):
    path = write(tmp_path / "c.cfg", "[a]\nx = 1\nx = 2\n# comment\n[b]\ny = 3\n")
    sections = cli.parse_config(path)
    assert sections["a"] == [(2, "x", "1"), (3, "x", "2")]
    assert sections["b"] == [(6, "y", "3")]


def test_parse_config_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path / "c.cfg", "[a]\nnonsense\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(path)
    assert ":2:" in str(err.value)


def test_unknown_scenario_key_is_rejected(tmp_path):
    path = write(tmp_path / "s.cfg", "[scenario]\nphase = wait t=1\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        cli.load_scenario(path)
    assert "bogus" in str(err.value) and ":3:" in str(err.value)
    # The near set size is fixed by the protocol, not an [overlay] key.
    path = write(tmp_path / "o.cfg",
                 "[scenario]\nphase = wait t=1\n[overlay]\nnear_per_side = 3\n")
    with pytest.raises(ConfigError) as err:
        cli.load_scenario(path)
    assert "near_per_side" in str(err.value) and ":4:" in str(err.value)


def test_unknown_phase_and_arguments_are_rejected(tmp_path):
    path = write(tmp_path / "s.cfg", "[scenario]\nphase = warp n=1\n")
    with pytest.raises(ConfigError):
        cli.load_scenario(path)
    path = write(tmp_path / "s2.cfg", "[scenario]\nphase = wait seconds=1\n")
    with pytest.raises(ConfigError):
        cli.load_scenario(path)


def test_shipped_scenarios_parse():
    for name in ("smoke.cfg", "churn.cfg", "merge.cfg", "join_fail.cfg"):
        scenario, sim_config, overlay = cli.load_scenario(
            os.path.join(REPO, "scenarios", name))
        assert scenario.phases


def test_load_scenario_builds_expected_objects(tmp_path):
    path = write(tmp_path / "s.cfg", """
[scenario]
measurement_interval = 1.5
phase = bootstrap n=4 spacing=0.2
phase = churn duration=10 p_leave=0.01
[sim]
latency = uniform 0.01 0.02
loss_rate = 0.1
[overlay]
status_interval = off
tick_interval = 0.5
""")
    scenario, sim_config, overlay = cli.load_scenario(path)
    assert scenario.measurement_interval == 1.5
    assert len(scenario.phases) == 2
    assert sim_config.loss_rate == 0.1
    assert overlay.status_interval is None
    assert overlay.tick_interval == 0.5


# ----------------------------------------------------------------------
# run command


def test_cmd_run_writes_artifacts_and_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg"))
    assert cli.main(["run", manifest]) == EXIT_OK
    out = capsys.readouterr().out
    assert "seed 1: PASS" in out and "seed 2: PASS" in out
    for seed in (1, 2):
        csv_path = tmp_path / "out" / f"seed-{seed}" / "trace.csv"
        text = csv_path.read_text()
        assert text.startswith("simulated_time_s,live_nodes,routability,"
                               "ring_correct_fraction,missing_edges,mean_hops")
        snaps = [p for p in os.listdir(tmp_path / "out" / f"seed-{seed}")
                 if p.endswith(".snap")]
        assert snaps


def test_cmd_run_is_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    first = write(tmp_path / "m1.cfg", manifest_text("s.cfg").replace(
        "output = out", "output = out1"))
    second = write(tmp_path / "m2.cfg", manifest_text("s.cfg").replace(
        "output = out", "output = out2"))
    assert cli.main(["run", first]) == EXIT_OK
    assert cli.main(["run", second]) == EXIT_OK
    for seed in (1, 2):
        a = (tmp_path / "out1" / f"seed-{seed}" / "trace.csv").read_bytes()
        b = (tmp_path / "out2" / f"seed-{seed}" / "trace.csv").read_bytes()
        assert a == b


def test_cmd_run_dot_yes_writes_a_dot_beside_every_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg").replace(
        "mode = sim", "mode = sim\ndot = yes"))
    assert cli.main(["run", manifest]) == EXIT_OK
    for seed in (1, 2):
        seed_dir = tmp_path / "out" / f"seed-{seed}"
        names = os.listdir(seed_dir)
        snaps = sorted(n[:-len(".snap")] for n in names if n.endswith(".snap"))
        assert snaps
        assert sorted(n[:-len(".dot")] for n in names if n.endswith(".dot")) == snaps
        for base in snaps:
            snap = read_snapshot(str(seed_dir / f"{base}.snap"))
            assert (seed_dir / f"{base}.dot").read_text() == to_dot(snap)


@pytest.mark.parametrize("value", ["true", "Yes"])
def test_cmd_run_bad_dot_value_exits_two(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg").replace(
        "mode = sim", f"mode = sim\ndot = {value}"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert "m.cfg:7: bad value for 'dot'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_cmd_run_writes_each_measurement_before_the_next(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg").replace(
        "seeds = 1 2", "seeds = 1"))
    seed_dir = tmp_path / "out" / "seed-1"
    measured = []
    take = scenarios.take_snapshot

    def checking(nodes, timestamp):
        rows = (seed_dir / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == measured
        for stamp in measured:
            assert (seed_dir / f"snapshot_{float(stamp):012.3f}.snap").exists()
        snap = take(nodes, timestamp)
        if snap.nodes:
            measured.append(f"{timestamp:.3f}")
        return snap

    monkeypatch.setattr(scenarios, "take_snapshot", checking)
    assert cli.main(["run", manifest]) == EXIT_OK
    assert len(measured) > 3


def test_cmd_run_again_into_the_same_output_starts_the_trace_afresh(tmp_path,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg").replace(
        "seeds = 1 2", "seeds = 1"))
    assert cli.main(["run", manifest]) == EXIT_OK
    csv_path = tmp_path / "out" / "seed-1" / "trace.csv"
    first = csv_path.read_bytes()
    seen = []
    take = scenarios.take_snapshot

    def peeking(nodes, timestamp):
        seen.append(csv_path.read_bytes())
        return take(nodes, timestamp)

    monkeypatch.setattr(scenarios, "take_snapshot", peeking)
    assert cli.main(["run", manifest]) == EXIT_OK
    # The second run's file held only the header when it first measured,
    # and ends with one header and one copy of each row.
    assert seen[0] == first.splitlines(keepends=True)[0]
    assert csv_path.read_bytes() == first

    # A shorter rerun without DOT files leaves only its own snapshots
    # beside the new trace, and no other file is touched.
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    seed_dir = tmp_path / "out" / "seed-1"
    (seed_dir / "notes.txt").write_text("kept")
    for wait, dot in (("6", "yes"), ("2", "no")):
        write(tmp_path / "s.cfg", f"[scenario]\nphase = bootstrap n=6\n"
                                  f"phase = wait t={wait}\n")
        write(tmp_path / "m.cfg", manifest_text("s.cfg").replace(
            "seeds = 1 2", f"seeds = 1\ndot = {dot}"))
        assert cli.main(["run", manifest]) in (EXIT_OK, EXIT_THRESHOLD)
    stamps = [line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]]
    assert stamps[-1] == "5.000"
    assert sorted(os.listdir(seed_dir)) == sorted(
        ["notes.txt", "trace.csv"]
        + [f"snapshot_{float(stamp):012.3f}.snap" for stamp in stamps])


def test_cmd_run_threshold_failure_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg",
                     manifest_text("s.cfg", extra="ks_ceiling = 0.05\n"))
    # Ten nodes have far fewer than 50 shortcut edges, so the KS check
    # reports unavailable, which counts as a threshold failure.
    assert cli.main(["run", manifest]) == EXIT_THRESHOLD
    assert "FAIL" in capsys.readouterr().out


def test_cmd_run_unknown_key_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg",
                     manifest_text("s.cfg", extra="surprise = 1\n"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


MODE_HINT = "only mode = sim is supported by 'run' (use demo-real for loopback transports)"
BAD_MANIFEST_LINES = [
    ("seeds = 1 2", "seeds = 1 x", "m.cfg:4: bad seed 'x'"),
    ("seeds = 1 2", "seeds =", "m.cfg:4: need at least one seed"),
    ("seeds = 1 2\n", "", "m.cfg: [run] needs 'seeds'"),
    ("mode = sim", "mode = udp", MODE_HINT),
    ("missing_edges_max = 0", "missing_edges_min = 0",
     "m.cfg:10: unknown key 'missing_edges_min'"),
    ("missing_edges_max = 0", "ks_ceiling = low", "m.cfg:10: bad value for 'ks_ceiling'"),
]


@pytest.mark.parametrize("line, replacement, message", BAD_MANIFEST_LINES,
                         ids=[message for _, _, message in BAD_MANIFEST_LINES])
def test_cmd_run_bad_manifest_line_exits_two(tmp_path, monkeypatch, capsys,
                                             line, replacement, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg",
                     manifest_text("s.cfg").replace(line, replacement))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "m.cfg" in err and message in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("key", ["routability_floor", "ring_correct_floor",
                                 "missing_edges_max", "ks_ceiling"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cmd_run_non_finite_threshold_exits_two(tmp_path, monkeypatch, capsys,
                                                key, value):
    # A NaN bound compares false and an infinite one always or never
    # holds, so either would switch its check off.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", SCENARIO)
    manifest = write(tmp_path / "m.cfg",
                     manifest_text("s.cfg", extra=f"{key} = {value}\n"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert f"m.cfg:11: bad value for '{key}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


BAD_PHASE_LINES = [
    ("phase = wait 5", "s.cfg:2: phase arguments must be k=v"),
    ("phase = bootstrap spacing=1",
     "s.cfg:2: Bootstrap.__init__() missing 1 required positional argument: 'n'"),
    ("phase = wait t=1 x=2", "s.cfg:2: unknown argument 'x' for phase wait"),
]


@pytest.mark.parametrize("line, message", BAD_PHASE_LINES,
                         ids=[line for line, _ in BAD_PHASE_LINES])
def test_cmd_run_bad_phase_line_exits_two(tmp_path, monkeypatch, capsys, line,
                                          message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", f"[scenario]\n{line}\n")
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_first_bad_line_is_reported_in_section_then_file_order(tmp_path):
    # [scenario] is read before [sim], whatever their order in the file;
    # within [scenario], the earlier of two bad lines is reported.
    path = write(tmp_path / "s.cfg", "[sim]\nloss_rate = abc\n[scenario]\n"
                                     "phase = wait t=1\npair_budget = x\n"
                                     "phase = wait t=nan\n")
    with pytest.raises(ConfigError) as err:
        cli.load_scenario(path)
    assert str(err.value) == f"{path}:5: bad value for 'pair_budget'"


# In [run], [sim], [overlay] and [thresholds], every key is checked before
# any value; [run] then needs its three keys and checks mode, dot, seeds.
KEYS_BEFORE_VALUES = [
    ("m.cfg", "[run]\nscenario = s.cfg\noutput = out\nmode = udp\n",
     ": [run] needs 'seeds'"),
    ("m.cfg", "[run]\nseeds = 1\ndot = true\nbogus = 1\n", ":4: unknown key 'bogus'"),
    ("m.cfg", "[run]\nscenario = s.cfg\nseeds = 1 x\noutput = out\ndot = true\n"
              "mode = udp\n", ":6: " + MODE_HINT),
    ("m.cfg", "[run]\nscenario = s.cfg\nseeds = 1 x\noutput = out\ndot = true\n",
     ":5: bad value for 'dot'"),
    ("m.cfg", "[run]\nscenario = s.cfg\nseeds = 1\noutput = out\n[thresholds]\n"
              "ks_ceiling = low\nmissing = 1\n", ":7: unknown key 'missing'"),
    ("s.cfg", "[scenario]\nphase = wait t=1\n[sim]\nloss_rate = 2\n"
              "latency = gauss 1\n", ":5: latency must be 'constant S' or "
                                    "'uniform LO HI', in finite seconds >= 0"),
    ("s.cfg", "[scenario]\nphase = wait t=1\n[overlay]\nk_shortcuts = -1\n"
              "near_per_side = 3\n", ":5: unknown key 'near_per_side'"),
]


@pytest.mark.parametrize("name, text, message", KEYS_BEFORE_VALUES, ids=[
    "missing-key-before-mode", "unknown-key-before-missing-key", "mode-before-dot",
    "dot-before-seeds", "thresholds-unknown-key-first", "sim-latency-first",
    "overlay-unknown-key-first"])
def test_first_error_within_a_section_checks_keys_before_values(tmp_path, name,
                                                                 text, message):
    path = write(tmp_path / name, text)
    load = cli.load_manifest if name == "m.cfg" else cli.load_scenario
    with pytest.raises(ConfigError) as err:
        load(path)
    assert str(err.value) == path + message


BAD_VALUE = ":4: bad value for '{}'"
BELOW_ONE = "{} must be at least 1"
BAD_SCENARIO_VALUES = [
    ("scenario", "measurement_interval = abc", BAD_VALUE),
    ("scenario", "pair_budget = x", BAD_VALUE),
    ("scenario", "pair_budget = 0", BELOW_ONE),
    ("scenario", "pair_budget = -3", BELOW_ONE),
    ("sim", "loss_rate = abc", BAD_VALUE),
    ("sim", "loss_rate = 2", BAD_VALUE),
]


@pytest.mark.parametrize("section, line, message", BAD_SCENARIO_VALUES,
                         ids=[line for _, line, _ in BAD_SCENARIO_VALUES])
def test_cmd_run_bad_scenario_value_exits_two(tmp_path, monkeypatch, capsys,
                                              section, line, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", f"[scenario]\nphase = wait t=1\n[{section}]\n{line}\n")
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "s.cfg" in err and message.format(line.split()[0]) in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_tick_interval_is_rejected(tmp_path, value):
    # Each tick would reschedule itself at the same simulated instant.
    path = write(tmp_path / "s.cfg",
                 f"[scenario]\nphase = wait t=1\n[overlay]\ntick_interval = {value}\n")
    with pytest.raises(ConfigError) as err:
        cli.load_scenario(path)
    assert ":4: bad value for 'tick_interval'" in str(err.value)


def test_cmd_run_missing_manifest_exits_two(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


@pytest.mark.parametrize("line, message", [
    ("massive_fail n=10", "cannot fail 10 of 4 nodes"),
    ("massive_fail fraction=0.1", "cannot fail 0 of 4 nodes"),
    ("merge left=2 right=2", "merge must start from an empty population"),
    ("churn duration=nan p_leave=0.01", ":4: bad value for 'duration'"),
    # Departures are drawn per whole second: these would run 0 s and 2 s.
    ("churn duration=0.5 p_leave=0.01", ":4: bad value for 'duration'"),
    ("churn duration=2.5 p_leave=0.01", ":4: bad value for 'duration'"),
])
def test_cmd_run_scenario_that_cannot_run_exits_two(tmp_path, monkeypatch, capsys,
                                                     line, message):
    # Rejected at load, before the bootstrap runs.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", f"[scenario]\nphase = bootstrap n=4\nphase = wait t=1\n"
                              f"phase = {line}\n")
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


SILENT_NO_OPS = [
    ("scenario", "phase = wait t=-1", "bad value for 't'"),
    ("scenario", "phase = wait t=nan", "bad value for 't'"),
    ("scenario", "phase = bootstrap n=4 spacing=nan", "bad value for 'spacing'"),
    ("scenario", "phase = merge left=2 right=2 settle=nan", "bad value for 'settle'"),
    ("scenario", "measurement_interval = nan", "bad value for 'measurement_interval'"),
    ("overlay", "tick_interval = inf", "bad value for 'tick_interval'"),
    ("overlay", "status_interval = nan", "bad value for 'status_interval'"),
    ("sim", "latency = constant -1", "latency must be"),
    ("sim", "latency = uniform -1 0", "latency must be"),
]


@pytest.mark.parametrize("section, line, message", SILENT_NO_OPS,
                         ids=[line for _, line, _ in SILENT_NO_OPS])
def test_value_that_disables_a_phase_or_timer_is_rejected(tmp_path, section, line,
                                                          message):
    path = write(tmp_path / "s.cfg", f"[{section}]\n{line}\n[scenario]\nphase = wait t=1\n")
    with pytest.raises(ConfigError) as err:
        cli.load_scenario(path)
    assert f"s.cfg:2: {message}" in str(err.value)


def test_cmd_run_negative_k_shortcuts_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "s.cfg", "[scenario]\nphase = bootstrap n=4\n"
                              "[overlay]\nk_shortcuts = -1\n")
    manifest = write(tmp_path / "m.cfg", manifest_text("s.cfg"))
    assert cli.main(["run", manifest]) == EXIT_USAGE
    assert "s.cfg:4: bad value for 'k_shortcuts'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    write(tmp_path / "s.cfg", "[scenario]\nphase = bootstrap n=4\n"
                              "[overlay]\nk_shortcuts = 0\n")
    assert cli.load_scenario("s.cfg")[2].k_shortcuts == 0


def read_readme():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_scenario_example_loads(tmp_path):
    blocks = read_readme().split("```")
    example = next(b for b in blocks if b.lstrip().startswith("[scenario]"))
    scenario, _, _ = cli.load_scenario(write(tmp_path / "readme.cfg", example))
    assert len(scenario.phases) >= 4


def test_readme_manifest_example_loads(tmp_path):
    blocks = read_readme().split("```")
    example = next(b for b in blocks if b.lstrip().startswith("[run]"))
    manifest = cli.load_manifest(write(tmp_path / "readme.cfg", example))
    assert manifest["seeds"] and manifest["dot"]
    assert sorted(manifest["thresholds"]) == sorted(cli._THRESHOLDS)


def test_readme_names_every_key_the_reader_accepts():
    readme = read_readme()
    for spec in (cli._RUN, cli._THRESHOLDS, cli._SCENARIO, cli._SIM, cli._OVERLAY):
        for key in spec:
            assert re.search(rf"^{key} = ", readme, re.MULTILINE), key
    for name, (_, arguments) in cli._PHASE_SPECS.items():
        # Every "name k=v ..." run in README, anywhere: examples and prose.
        named = {key for run in re.findall(rf"\b{name}((?: \w+=\S+)+)", readme)
                 for key in re.findall(r"(\w+)=", run)}
        assert set(arguments) <= named, name


def test_readme_commands_parse():
    # Every "ringnet ..." line in a fenced block, comment stripped; an
    # alternative written a|b|c is parsed once per choice.
    blocks = read_readme().split("```")[1::2]
    lines = [line.split("#", 1)[0].split() for block in blocks
             for line in block.splitlines() if line.startswith("ringnet ")]
    assert len(lines) >= 6
    for words in lines:
        for argv in itertools.product(*(word.split("|") for word in words[1:])):
            cli.build_parser().parse_args(list(argv))


# ----------------------------------------------------------------------
# analyze command


def test_cmd_analyze_reports_perfect_fixture(tmp_path, capsys):
    snap = synthetic_snapshot(64, k=2, seed=3)
    path = str(tmp_path / "topo.snap")
    write_snapshot(snap, path)
    assert cli.main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "routability: 1.000000" in out
    assert "ring_correct_fraction: 1.000000" in out
    assert "missing_edges: 0" in out
    assert os.path.exists(path + ".dot")


def test_cmd_analyze_split_fixture_reports_fraction(tmp_path, capsys):
    from ringnet.metrics import NEAR_LABEL, TopologySnapshot
    from ringnet.topology import ring_addresses
    from random import Random
    ring = ring_addresses(12, Random(2))
    half_a, half_b = ring[:6], ring[6:]
    edges = []
    for part in (half_a, half_b):
        for i in range(len(part)):
            for step in (1, 2):
                j = i + step
                if j < len(part):
                    x, y = part[i], part[j]
                    edges.append((min(x, y), max(x, y), NEAR_LABEL))
    snap = TopologySnapshot(0.0, tuple(ring), tuple(edges))
    path = str(tmp_path / "split.snap")
    write_snapshot(snap, path)
    assert cli.main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    # 2 * 6*5 routable of 12*11 ordered pairs at most.
    assert "routability: 0." in out


def test_cmd_analyze_empty_file_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.snap"
    path.write_text("")
    assert cli.main(["analyze", str(path)]) == EXIT_USAGE
    assert "malformed" in capsys.readouterr().err


NODE = "node " + "0" * 39 + "1\n"


@pytest.mark.parametrize("text, message", [
    ("# ringnet-snapshot time=0.000\n", "no node line"),
    ("# ringnet-snapshot time=0.000\n" + NODE + NODE, ":3: repeated node"),
], ids=["header-only", "repeated-node"])
def test_cmd_analyze_malformed_snapshot_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.snap"
    path.write_text(text)
    assert cli.main(["analyze", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "malformed" in err and message in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cmd_analyze_rejects_a_pair_budget_below_one(tmp_path, capsys, budget):
    path = str(tmp_path / "topo.snap")
    write_snapshot(synthetic_snapshot(16, k=2, seed=3), path)
    assert cli.main(["analyze", path, "--pair-budget", budget]) == EXIT_USAGE
    assert "--pair-budget" in capsys.readouterr().err


def test_demo_real_rejects_silly_sizes(capsys):
    assert cli.main(["demo-real", "-n", "0"]) == EXIT_USAGE
    assert cli.main(["demo-real", "-n", "65"]) == EXIT_USAGE


def test_demo_real_single_node(capsys):
    assert cli.main(["demo-real", "-n", "1", "--budget", "5"]) == EXIT_OK
    assert "ring_correct=1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("transport", ["udp", "mixed", "tcp"])
def test_demo_real_converges_at_the_largest_advertised_size(capsys, transport):
    assert cli.main(["demo-real", "-n", "64", "--transport", transport,
                     "--budget", "60"]) == EXIT_OK
    assert "ring_correct=1.0000" in capsys.readouterr().out


# ----------------------------------------------------------------------
# experiment commands


def _forbidden(*args, **kwargs):
    raise AssertionError("an experiment ran on bad input")


@pytest.mark.parametrize("argv", [
    ["hops", "--sizes", "1"],
    ["hops", "--ks", "0"],
    ["hops", "--pairs", "0"],
    ["churn-sweep", "--duration", "0.5"],
    ["churn-sweep", "--multiples", "10", "0"],
    ["massive-dynamics", "--fail-fraction", "1.5"],
])
def test_bad_experiment_input_exits_two_before_any_work(tmp_path, monkeypatch,
                                                        capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "routability", _forbidden)
    monkeypatch.setattr(scenarios, "run", _forbidden)
    assert cli.main(argv) == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert os.listdir(tmp_path) == []  # massive-dynamics makes no --out


def test_hops_prints_the_hop_table(capsys):
    assert cli.main(["hops", "--sizes", "64", "256", "--ks", "1", "4",
                     "--pairs", "500"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "n,k,mean_hops,max_hops,c_fit\n"
        "64,1,3.992,10,0.2341\n"
        "256,1,7.232,20,0.2341\n"
        "64,4,2.496,6,0.5277\n"
        "256,4,3.936,10,0.5277\n")


def test_hops_default_table_is_unchanged(capsys):
    assert cli.main(["hops"]) == EXIT_OK
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == (
        "74e37fbfcc211e82dbc04bdf7ff5493b")


def test_churn_sweep_prints_one_row_per_multiple(capsys):
    assert cli.main(["churn-sweep", "--nodes", "32", "--multiples", "10", "3",
                     "--duration", "30"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "# mean establish time: 1.30s\n"
        "session_multiple,session_s,routability_mean,routability_min,"
        "ring_correct_mean\n"
        "10.0,13.0,0.9423,0.8700,0.7937\n"
        "3.0,3.9,0.3230,0.1179,0.0375\n")


def test_churn_sweep_refuses_a_short_multiple_before_its_first_sweep_run(monkeypatch,
                                                                        capsys):
    # 1 / (t_establish * 0.5) with t_establish 1.3 s is a churn probability above 1.
    ran = []
    real_run = scenarios.run
    monkeypatch.setattr(scenarios, "run",
                        lambda scenario, *rest: ran.append(scenario) or real_run(
                            scenario, *rest))
    assert cli.main(["churn-sweep", "--nodes", "32", "--multiples", "2", "0.5",
                     "--duration", "10"]) == EXIT_USAGE
    assert len(ran) == 1  # the establish probe, and no sweep run
    assert capsys.readouterr().err == (
        "session multiple 0.5: churn probability must be in [0, 1)\n")


def test_massive_dynamics_writes_the_trace_and_every_snapshot(tmp_path, capsys):
    out = tmp_path / "D"
    assert cli.main(["massive-dynamics", "--base", "16", "--join", "16",
                     "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "final: live=22 routability=1.0000 missing=0\n"
        f"wrote {out}/trace.csv and snapshots\n")
    names = sorted(os.listdir(out))
    assert len(names) == 459  # trace.csv and 229 .snap/.dot pairs
    assert hashlib.md5((out / "trace.csv").read_bytes()).hexdigest() == (
        "0f9ba1b9f654d23cbd51e2c841954ccd")
    digest = hashlib.md5()
    for name in names:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    assert digest.hexdigest() == "1a02b870b1cfb010eddb129d29ba5e9c"
