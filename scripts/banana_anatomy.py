#!/usr/bin/env python3
"""Dissect the classic 8-vertex counterexample to 3D counting conditions.

Prints, step by step, why every combinatorial necessary condition holds
while the graph is still flexible: edge count, (3,6)-sparsity of every
vertex subset, 3-connectivity, and the exact generic rank.
"""
from metaform.generate import banana
from metaform.rigidity import (
    generic_rank_oracle,
    rigid_3d_check,
    sparsity_violation,
    three_connectivity,
)


def main():
    f = banana()
    und = f.underlying()
    n, m = len(f.vertices), len(f.edges)
    print(f"vertices: {n}, edges: {m} (3n-6 = {3 * n - 6})")
    violation = sparsity_violation(und)
    print(f"(3,6)-sparsity violation: {violation}")
    connected, pair = three_connectivity(und)
    print(f"3-connected: {connected}, separating pair: {pair}")
    rank = generic_rank_oracle(und, 3, seed=0, trials=3)
    print(f"generic rank: {rank} of {3 * n - 6} required")
    verdict = rigid_3d_check(und)
    print(f"rigid: {verdict.rigid}")
    print(
        "\nThe two triangle halves can rotate independently around the "
        "axis through the separating pair, which the counting conditions "
        "cannot see; the rank test does."
    )


if __name__ == "__main__":
    main()
