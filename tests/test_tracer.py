"""The benchmark's per-layer tracer (``perfbench/tracer.py``) still finds
every ringnet function it wraps, and puts each one back afterwards.

Renaming or deleting a traced function then fails here, not only in a
``--trace 1`` benchmark run.
"""

import importlib.util
import pathlib

from ringnet import packet, simnet

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    decode = packet.decode
    transmit = simnet.SimNetwork.__dict__["transmit"]
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert packet.decode is not decode
    finally:
        tracer.uninstall()
    assert packet.decode is decode
    assert simnet.SimNetwork.__dict__["transmit"] is transmit
