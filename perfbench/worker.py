"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SPAWN_T

MODE is ``pass`` (set up, then run the timed pass), ``traced`` (the same
under the tracer) or ``setup`` (set up only, to sample set-up time).

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes on the host, so
``setup_s`` covers interpreter start, imports and input construction,
rescaled to the reference speed (see clock.py) like every pass timing.
Prints one JSON object. ringnet is imported from the checkout's ``src``
and nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_ringnet() -> None:
    sys.path.insert(0, SRC)
    import ringnet
    if not os.path.abspath(ringnet.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ringnet imported from {ringnet.__file__}, not {SRC}")


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn_t = argv[0], int(argv[1]), argv[2], float(argv[3])
    if mode not in ("pass", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    # Set-up time is rescaled by the slower of a calibration at process
    # start and one after set-up, like a chunk of a pass; the first
    # calibration's own time is left out of it.
    from clock import calibration_s, rescale
    cal_begin = time.monotonic()
    cal_before_s = calibration_s(runs=5)
    cal_wall_s = time.monotonic() - cal_begin
    import_ringnet()
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import OUT_DIR, SIZES, WORKLOADS, discard, peak_rss_mb
    setup, run = WORKLOADS[workload]
    state = setup(seed, SIZES[workload], tracer)
    setup_wall_s = time.monotonic() - spawn_t - cal_wall_s
    result = dict(setup_s=rescale(setup_wall_s, cal_before_s),
                  setup_wall_s=setup_wall_s)
    if mode == "setup":
        discard(state)
    else:
        result.update(run(state))
        result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped_spans
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv")
        tracer.write_spans(spans_path)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
