#!/usr/bin/env python3
"""Routability and missing-edge time series under massive membership
changes: acceptance 05's run (``scenarios.massive_dynamics``), which grows
a ring and joins a comparable batch at one instant, followed by the
failure of a fraction of the network.  Writes the standard trace CSV and
snapshot files (with DOT) to --out, each row and snapshot as it is
measured."""

import argparse

from ringnet.scenarios import SimTrace, massive_dynamics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=256)
    parser.add_argument("--join", type=int, default=250)
    parser.add_argument("--fail-fraction", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="out/massive")
    args = parser.parse_args()

    trace = massive_dynamics(args.base, args.join, args.seed, args.fail_fraction,
                             SimTrace(args.out, dot=True))
    final = trace.rows[-1]
    print(f"final: live={final.live_nodes} routability={final.routability:.4f} "
          f"missing={final.missing_edges}")
    print(f"wrote {args.out}/trace.csv and snapshots")


if __name__ == "__main__":
    main()
