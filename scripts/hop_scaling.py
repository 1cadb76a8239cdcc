#!/usr/bin/env python3
"""Mean greedy hop count versus network size and shortcut budget.

Builds law-distributed ring topologies directly (no protocol run) and
replays greedy routing over sampled pairs.  Prints one CSV row per
(n, k) cell plus the constant ``metrics.hop_law`` fits for
hops = c * log^2(N) / k.
"""

import argparse

from ringnet.metrics import hop_law, routability
from ringnet.topology import synthetic_snapshot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[256, 1024, 4096])
    parser.add_argument("--ks", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--pairs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print("n,k,mean_hops,max_hops,c_fit")
    for k in args.ks:
        cells = {n: routability(synthetic_snapshot(n, k=k, seed=args.seed + n + 31 * k),
                                pair_budget=args.pairs, seed=args.seed)
                 for n in args.sizes}
        c, _ = hop_law({n: rep.mean_hops for n, rep in cells.items()}, k)
        for n, rep in cells.items():
            print(f"{n},{k},{rep.mean_hops:.3f},{rep.max_hops},{c:.4f}")


if __name__ == "__main__":
    main()
