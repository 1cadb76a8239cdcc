#!/usr/bin/env python3
"""Steady-state routability as a function of mean session time.

Runs ``scenarios.churn_sweep``: bootstraps a ring, measures how long late
joiners take to establish (ring position plus first shortcut), then
churns the network at session times that are multiples of that baseline.
Prints one CSV row per sweep point; the defaults are acceptance 08's run.
"""

import argparse
from statistics import mean

from ringnet.scenarios import churn_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=256)
    parser.add_argument("--multiples", type=float, nargs="+",
                        default=[100, 30, 10, 3])
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    t_join, sweep = churn_sweep(args.nodes, args.multiples, args.duration, args.seed)
    print(f"# mean establish time: {t_join:.2f}s")
    print("session_multiple,session_s,routability_mean,routability_min,"
          "ring_correct_mean")
    for mult, rows in sweep.items():
        rts = [r.routability for r in rows]
        print(f"{mult},{t_join * mult:.1f},{mean(rts):.4f},{min(rts):.4f},"
              f"{mean(r.ring_correct_fraction for r in rows):.4f}")


if __name__ == "__main__":
    main()
