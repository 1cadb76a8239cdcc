"""Golden traces: seed-1 runs of the shipped scenarios, pinned byte for byte.

Beside them: synthetic snapshot files of 1024 and 4096 nodes, a
pre-wired ring's connection tables, the snapshot of a 256-node pre-wired
ring, and small merge and churn runs with loss, whose departures and
failed joins both respawn nodes.

The digests below were taken from the protocol as it stands.  A change
meant to keep behaviour (a refactor, a faster codec or table) must leave
them all unchanged.  A deliberate protocol change regenerates them; run
this file with ``RINGNET_PRINT_GOLDEN=1`` and ``-s`` to print the new
values.
"""

import hashlib
import os
from random import Random

import pytest

from ringnet import cli, topology
from ringnet import scenarios as sc
from ringnet.address import Direction, directed_distance
from ringnet.metrics import write_snapshot
from ringnet.node import OverlayConfig
from ringnet.simnet import ConstantLatency, SimConfig, SimNetwork

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# scenario file -> "artifact sha256" lines, one per file of seed-1/
GOLDEN = {
    "join_fail.cfg": """
snapshot_00000000.000.snap b0f43450f58f24362e7f1ce97bdf6e6c59b27c7f84e954dbe81bf1f0a1afa298
snapshot_00000002.000.snap d5db85e955a194da410b0388502b9d6215b62b40f7a889e488137356b9f35b03
snapshot_00000004.000.snap 629f1b8560e7fe014a97843d1b70a873503f46bb5d915a393bec3494e71a651a
snapshot_00000006.000.snap 41fb530215b71784dca97e0157678ad82c98eb23f1cc901eefd3c5942268709c
snapshot_00000008.000.snap 8d4d92ea05daa5130e4122ddd1616a7d6377d57faa3dc1dcdd69a0b06e4547f8
snapshot_00000010.000.snap 8b80dea9e447c2a5eaa0e6a114c3b672a2ff509c53d402d390c7496f265a1b7c
snapshot_00000012.000.snap 76a8e3993064ec92ce8de0964c41b38274939973457c2e73a76329534acd663a
snapshot_00000014.000.snap 9cb6795accbc891e683d135e4ec7f9f9a184f299b31632efae293870321f6684
snapshot_00000016.000.snap 3916daaeabef23e974b88cdf09b459c23a172d6f66c205a87a7c2eb8e88425c9
snapshot_00000018.000.snap 0d4ef810234c4d5bac04cf099297ea1c825e934545309b07f543bdb0cd913de4
snapshot_00000020.000.snap 39b87e810edcdc0d7e5192ef6f0af494ec02ef5bf9821133f04217a93b9ee21c
snapshot_00000022.000.snap a2f1d6771139b92a8a669f64ca0a3ecd9655a9f9ed520701de9b33ef0fc1ec42
snapshot_00000024.000.snap 3abc4a919b859f0e7ed2be409fd54bd7ba4c1f4088ff4281d5ff015cf8015cb2
snapshot_00000026.000.snap a1acb7ee6c92f651f2af03287dbffa42d024d8db6f7002d4eabfada2fe48da63
snapshot_00000028.000.snap c8228cc1367365dd03c23f48770398845da9d0e9a040cb51c57f34b3b5d1c35c
snapshot_00000030.000.snap b915600828c42017c623c3f50a8fa161c27dbd01d9a25042055b7f80790e40db
snapshot_00000032.000.snap 757b68148e69f6c6e4560b117aa0eaa2c2a0d4de40948aae7f24e9f85afaca1d
snapshot_00000034.000.snap 6b956c225c261be1c4dcfeb7d6993ec8fc11a9df6aae3f4cf3275ad916a054e8
snapshot_00000036.000.snap 708e11704a351cb8c70075d7907df021528d41564e3f72c5e805c313c26e832b
snapshot_00000038.000.snap 30897d3e45b098dc80a55e7a7753ff9f1a502813ab1f6e29123199f5745c3535
snapshot_00000040.000.snap 1b9c8d63cdbba965e1fe0203dda1038cbf001e8c066244e6f07b77f6c40ba696
snapshot_00000042.000.snap af129fb3fec1c12a2e9dcc77cd1098d9cc8146ad78238fbbaadc0ea8fa7fe0a2
snapshot_00000044.000.snap 5b4a7ce973609ad5f8c6278b4c50afe0851492dc4e10bba9d5a4a046e0a85a9a
snapshot_00000046.000.snap d500a51574fdd6ebfe32ffaeb5528c84b81a6f7f49393c3044714e26f96603d0
snapshot_00000048.000.snap 15e5a82c47b908c8890f0fea8ac85860eaf86cb4a3155c8211a6731ff3f4eae6
snapshot_00000050.000.snap 543532e3359fe5669f7999c8f6d894031e31ba64e7aea59a739990574082dcd1
snapshot_00000052.000.snap e6e9c7e786bc9ec37400a8ff164bcd968b36f412cfb9cdd4a4a807595c09a840
snapshot_00000054.000.snap 9126437789cceb5cb7d2d2ce19ea80ab7f7332d00a269b23a2bea04d23e92349
snapshot_00000056.000.snap f1a0cdd41ab9b05a870152fc5bcd416f76c6507232e949fa45258cd28cafde90
snapshot_00000058.000.snap 2ffbe83ac4a874a4d261647f2dd7fc6b0390f85ff374a5640e6fda72e5583b69
snapshot_00000060.000.snap 4649868c54f7345873e66ca089d992e4aecaa5eb34209863dbc271f2813f6a7b
snapshot_00000062.000.snap c6446ca5a373a6229c2ba1d34d8b11c3f16593de09c213a64bc3f0b0f7c2b910
snapshot_00000064.000.snap 50ca621ee484b351f50f81cd0c90adaca014c0ec03f2d6285119d5e40aee71da
snapshot_00000066.000.snap aa930817b57e2f13910652dcfa4b5453cbdbb22cc1fdec602a6579571fc271d3
snapshot_00000068.000.snap f65453b1ed529d4c5bc200ceb3e70e740d91ab9369b0fd77619ee2d55d249cc2
snapshot_00000070.000.snap 64c9009cda57854cdb87b49e65802fc81efbd0fac254f1d5d4ff354ff58189de
snapshot_00000072.000.snap 1b4168195daa32efa269b40f6025cd4b29a29ea89808f2ae16f2bd69f5a51787
snapshot_00000074.000.snap 469885f672db2210065dc20d770236274d01a37b3d09c9253745a1b193a387d0
snapshot_00000076.000.snap 321737e51bb495240b86270fd024e1e2de7354fe54a8918da22c784be120c235
snapshot_00000078.000.snap 5e9ef49231e4a30a2c7cc2987bd7e3aa130b0869d7c30bcc29648236aaa7c2ba
snapshot_00000080.000.snap f2e9508664536ea392aec60814afe8e2cfcb14fb81bcc21a2b2e6f5c59ae5a5a
snapshot_00000082.000.snap 298989519deddce84a6a97ee1d8aa6efa3ad62d22371eac8ca04757238e24b27
snapshot_00000084.000.snap 08b7dba1460a79ce11a9958b5379b2b27712a0139bae8631ae21ef1226d05d8d
snapshot_00000086.000.snap 089be7417ddfe1eefbb1852b015e47557d84ab07e48b13e81601915a9137061f
snapshot_00000088.000.snap ff8ceb22328225ddba0f36d83e2f3910e6b5369500bff073129529ad76550e2f
snapshot_00000090.000.snap a91f6cbaa4b6417ecf264bb5fb148eaebf6dfc87a1ba80157f6f297cff0eeaf7
snapshot_00000092.000.snap 73a939624f6896fcb73bdb823af8b1fcb7661a946abf4e1632b56bc90aa9f62f
snapshot_00000094.000.snap 2a28f24698747ac5e265d3d8226b8d91b98044ad4e65c6ecb63bf5506dc6f109
snapshot_00000096.000.snap 2e4be126edc07daa3cae484cb536c9710bc79a52e87fe2525d35e5436ef35390
snapshot_00000098.000.snap fd94b12ee36f8cf0544e22f161df3bba45075d88bc0a2297d1f7a14242538150
snapshot_00000100.000.snap de2e33d512b72257cf813b5a814933f95ed3e7a76a531e2326424bfef0a3fae7
snapshot_00000102.000.snap 1785d57320a42163ef406bec0679231d099c0c11214a8d5b8f49e1b15cf23b03
snapshot_00000104.000.snap 536c0cad0e0da3920a6b8ccf5a69e3ce864d9baa881530a29c5748e5a17df194
snapshot_00000106.000.snap fc2a74f0ab7e87951244e17c9129cd9455c3044966965899c0fb53c5ce0aff75
snapshot_00000108.000.snap b781b61edca27272bed644fb4e67eac13b811b6bfc5dbaea999534272d8e270b
snapshot_00000110.000.snap df791bf81ef6618bd314194720a0cdd926a07e18deea96397564921d20b941cc
snapshot_00000112.000.snap 64c836ee3eae6b1db1eb605a2bf52e83e334bc7c2300b7344573492fe5ebd274
snapshot_00000114.000.snap 047ec3f615bac7c95b7f3a85ed6e4bbdf3a3056bad315720b0542d338d6b6761
snapshot_00000116.000.snap a13fd427e56a0751baee19a0ce4d1f81cfe45919f2140a6332aa5f1c3a07e54d
snapshot_00000118.000.snap 8c84d763a396bd0db4e849dd8332fb83daa45bf746750ec6ff34c0adede8988c
snapshot_00000120.000.snap a8d9937823f37476fe6377331a0fa852d4917148f1da8407447049b629086584
snapshot_00000122.000.snap 7bb9da366ef1968af0c615e6d53d43d1d2f03635f85a9a5462fb49e46410f0f1
snapshot_00000124.000.snap bb904d3463d60ee6ca28d40bb044e0e81c4e657f1869f0a8f6a32c7dc3e7bf8c
snapshot_00000126.000.snap d301fb5e323e9d38081cf3bf0b9b9d99dc1564da22a043365ec42ebacb1d6341
snapshot_00000128.000.snap e5fb52e20d3b77e1482634485146d9292816c99cb6ab5502c43553979687a21d
snapshot_00000130.000.snap abd962da9143fc6b3a5a20751d358172c1e6ea2b02fa805ebc30718422613dad
snapshot_00000132.000.snap da575992c4334e41357e544eaff35ac1aecc72c5ab6dfb60b3daea358af038de
snapshot_00000134.000.snap 23391c64f3641ebbd92f90e7cfc9de11b28388ebec31c7ba3938cbefffe0ab13
snapshot_00000136.000.snap 5d489b3438bed76cb559f022998ab173406290dd39c7c48d66c9bfb41f32c99b
snapshot_00000138.000.snap 0b32eb87600945900e1d0c76f131f375d211240dc65da2fadbb2f6dfe400fc64
snapshot_00000140.000.snap 47c638d2339f06060783b2ac3bb000f943dc44ef1679d669a510750eddbcd32a
snapshot_00000142.000.snap 8588a098df4d1ff9cad139713515efc4e3e56111cf45eb4f683729a7b5b13d5e
snapshot_00000144.000.snap ce54c991586d92ba92b25b2918951dd5fd3c35354cf6516ba4658e82fcae644f
snapshot_00000146.000.snap 4889fc28fdaafbc27209432ebf24337567f6453525d82fa43a2dc436f480dda6
snapshot_00000148.000.snap c6578c1dc7b5830a8e15a52415287ffba1a643030af98fd13c8eac563189fc87
snapshot_00000148.400.snap 0569ec15344051dd45d062f81a9f463e0fd3a1a0a79e0d5e3149c3326c3bfc2b
trace.csv 9681a41fb4b9cbd68bae0cee050e91a834ee83de0f7520d0c23b61c373ce7bd6
""",
    "smoke.cfg": """
snapshot_00000000.000.snap b0f43450f58f24362e7f1ce97bdf6e6c59b27c7f84e954dbe81bf1f0a1afa298
snapshot_00000002.000.snap fffeb71bca5cd8175e755586ec84730e6fdf828af2172fccd2b6e007ca4d4d57
snapshot_00000004.000.snap e309a097d3df4426d9fa1024fe605a68ce8bac0004219ac28af0539c3e78f02f
snapshot_00000006.000.snap 48acdbb45cdfeff9c275bedde3897fca3a66cdaad6205e29b79c66240b114aa1
snapshot_00000008.000.snap 0c96e042a349a5c9457ba75f121433bb808539fba06d7a94292294883321fc11
snapshot_00000010.000.snap 65337fb5d795a6a857f3d045e93784edc87eb1e07a07656b9a141eed1e095d47
snapshot_00000012.000.snap 57278d09f158a9cbb3120569a8502e8c09786a0f19083296123d84d6cb7b71aa
snapshot_00000014.000.snap fc04b6bb05fb20d31f6ff9ca938b53707fc76dac76484b976c1538ca6d0a4b82
snapshot_00000016.000.snap c62c668f7be997757cd032187589610f5756374a5e47edca7b1d73e3ac2172ac
snapshot_00000018.000.snap 58dff49a1f46bb2ca6392c97518506da757995bd9ea4208902eef77d33b65204
snapshot_00000020.000.snap de42b727bb51c0a3a9587b3f284085b696ad7cc62b17469add67b1b86fece3b3
snapshot_00000021.400.snap 93fb03ee4535b707e1db611e2bdac136735a8af2e3b90128144f192548e445cb
trace.csv af207a7ae518d5cabbbcec4c015e78d32ec06e8ea44cb14cbb761b48ca9d8a5f
""",
}

# One node's OverlayConfig.trace (node 5 of the smoke run, seed 1): event
# count and the sha256 of one repr() line per event.
SMOKE_NODE = 5
SMOKE_NODE_TRACE = (
    58, "7518d0d01fc0d1886ad98f7d05fc23a5e98d3ca47efc9cb77700f71edb722f8b")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(name, got) -> None:
    if os.environ.get("RINGNET_PRINT_GOLDEN"):
        print(f"\n{name}: {got!r}")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_one_artifacts_are_byte_identical(tmp_path, name):
    scenario = os.path.join(REPO, "scenarios", name)
    out = tmp_path / "out"
    manifest = tmp_path / "run.cfg"
    manifest.write_text(f"[run]\nscenario = {scenario}\nseeds = 1\n"
                        f"output = {out}\n", encoding="utf-8")
    assert cli.main(["run", str(manifest)]) in (cli.EXIT_OK, cli.EXIT_THRESHOLD)
    seed_dir = out / "seed-1"
    got = {p.name: _sha256(p) for p in sorted(seed_dir.iterdir())}
    _report(name, got)
    want = dict(line.split() for line in GOLDEN[name].strip().splitlines())
    assert got == want


def test_smoke_node_decision_trace_is_pinned():
    scenario, sim_config, overlay = cli.load_scenario(
        os.path.join(REPO, "scenarios", "smoke.cfg"))
    overlay.trace = True
    config = SimConfig(seed=1, latency=sim_config.latency,
                       loss_rate=sim_config.loss_rate)
    runner = sc.ScenarioRunner(scenario, config, overlay)
    runner.run()
    events = runner.handles[SMOKE_NODE].trace
    text = "".join(repr(event) + "\n" for event in events)
    got = (len(events), hashlib.sha256(text.encode()).hexdigest())
    _report("node trace", got)
    assert got == SMOKE_NODE_TRACE


SYNTHETIC_SNAPSHOT = "347dab185dae657246714cb9aaaa38284d2509b513492ebb48a000fa3068dadd"
SEED_RING = "ee35de4822852fd196b496afaf26456a7a265b21693f8c462a439e2410ab3e48"
# At benchmark scale: the snapshot file of synthetic_snapshot(4096, 4, seed
# 1), and the repr() of take_snapshot over seed_ring(256, k=4, seed 1).
SYNTHETIC_SNAPSHOT_4096 = "7f9c9a69741c1fb37293fbb29cb98c89241ce72dd6b48701f88d606e46e79292"
SEED_RING_SNAPSHOT_256 = "a3478955241710a1d176ec312619404bcf565041b8b0d0d651b30209a0dddfb7"
SMALL_RUNS = {
    "churn": "2d538ee165284356ac3c488fd0be5eb8e24d27e21db10863669a1ac36dc24b41",
    "merge": "e0ded578c0f42ed6f80d98324c2533ed716872cfed140502ef91fad8272fe6fd",
}


def _repr_sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_synthetic_snapshot_file_is_pinned(tmp_path):
    path = tmp_path / "synthetic.snap"
    write_snapshot(topology.synthetic_snapshot(1024, 4, 1), str(path))
    got = _sha256(path)
    _report("synthetic snapshot", got)
    assert got == SYNTHETIC_SNAPSHOT


def test_synthetic_snapshot_file_at_4096_nodes_is_pinned(tmp_path):
    path = tmp_path / "synthetic.snap"
    write_snapshot(topology.synthetic_snapshot(4096, 4, seed=1), str(path))
    got = _sha256(path)
    _report("synthetic snapshot 4096", got)
    assert got == SYNTHETIC_SNAPSHOT_4096


def test_seed_ring_snapshot_at_256_nodes_is_pinned():
    nodes = topology.seed_ring(SimNetwork(SimConfig(seed=1)), 256, Random(1),
                               OverlayConfig(k_shortcuts=4), k=4)
    got = _repr_sha256(sc.take_snapshot(list(nodes.values()), 0.0))
    _report("seed_ring snapshot 256", got)
    assert got == SEED_RING_SNAPSHOT_256


def test_seed_ring_tables_are_pinned():
    """Every connection seed_ring wires (64 nodes, k=4, seed 1), its
    shortcut bookkeeping, and the next draw of every generator it used."""
    rng = Random(1)
    nodes = topology.seed_ring(SimNetwork(SimConfig(seed=1)), 64, rng,
                               OverlayConfig(k_shortcuts=4), k=4)
    rows = sorted((a, c.peer, sorted(c.roles), c.initiated_shortcut,
                   (directed_distance(a, c.peer, Direction.CLOCKWISE)
                    if c.initiated_shortcut else None),
                   c.sampled_gap)
                  for a, node in nodes.items() for c in node.table.by_peer.values())
    got = _repr_sha256((rows, rng.random(), [nodes[a].rng.random() for a in sorted(nodes)]))
    _report("seed_ring", got)
    assert got == SEED_RING


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_small_run_with_respawns_is_pinned(name, taken_snapshots):
    """Seed 1 with 15 % loss: churn departures rejoin through _kill and
    failed joins through _respawn; rows, snapshots, establish times and
    counters are pinned."""
    start = sc.Merge(16, 16, settle=2.0) if name == "merge" else sc.Bootstrap(16, 0.3)
    runner = sc.ScenarioRunner(
        sc.Scenario([start, sc.Wait(5.0), sc.Churn(20.0, 0.05), sc.Wait(5.0)],
                    measurement_interval=2.0, pair_budget=200),
        SimConfig(seed=1, latency=ConstantLatency(0.01), loss_rate=0.15),
        OverlayConfig(k_shortcuts=2, status_interval=1.5))
    calls = set()
    kill, respawn = runner._kill, runner._respawn

    def counting_kill(node_id, rejoin):
        calls.add(("kill", rejoin))
        kill(node_id, rejoin)

    def counting_respawn(node_id):
        calls.add(("respawn", node_id in runner.handles))
        respawn(node_id)

    runner._kill, runner._respawn = counting_kill, counting_respawn
    trace = runner.run()
    assert {("kill", True), ("respawn", True)} <= calls
    got = _repr_sha256((trace.rows, taken_snapshots, trace.establish_durations,
                        sorted(trace.counters.items())))
    _report(name, got)
    assert got == SMALL_RUNS[name]
