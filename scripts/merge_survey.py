#!/usr/bin/env python3
"""Survey merge planning over random persistent collections.

Generates seeded collections, proves each member persistent once, plans a
minimal persistent merge for each feasible collection, verifies the plan,
and prints summary statistics.

Usage: python scripts/merge_survey.py [--dim 3] [--rounds 50] [--seed 0]
"""
import argparse
import random
import sys
import time

from metaform.generate import gen
from metaform.graph import Formation
from metaform.planner import feasibility, plan_collection, prove_members, verify_plan


def shift(f, offset):
    return Formation(
        vertices=tuple(v + offset for v in f.vertices),
        edges=tuple((t + offset, h + offset) for t, h in f.edges),
    )


def random_collection(rng, dim):
    members = []
    base = 1
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.2:
            members.append(Formation(vertices=(base,), edges=()))
            base += 1
            continue
        size = rng.randint(dim + 1, dim + 3)
        kind = f"min-persistent-{dim}d"
        members.append(shift(gen(kind, size, rng.randint(0, 10**6)), base - 1))
        base += size
    return members


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, choices=(2, 3), default=3)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    planned = verified = 0
    edge_total = 0
    t0 = time.time()
    for i in range(args.rounds):
        coll = random_collection(rng, args.dim)
        members = prove_members(coll, args.dim)
        feas = feasibility(members, args.dim)
        if not feas.feasible:
            print(f"[{i:03d}] infeasible: {feas.reason}")
            continue
        plan = plan_collection(members, args.dim)
        planned += 1
        edge_total += len(plan.edges)
        rep = verify_plan(members, plan, args.dim)
        status = "ok" if rep.persistent and rep.edge_optimal_persistent else "FAILED"
        if status == "ok":
            verified += 1
        sizes = "+".join(str(len(f.vertices)) for f in coll)
        print(
            f"[{i:03d}] members {sizes:12s} edges {len(plan.edges):2d} "
            f"order {plan.merge_order} verify {status}"
        )
    dt = time.time() - t0
    print(
        f"\n{planned} planned, {verified} verified, "
        f"{edge_total} total edges, {dt:.2f}s"
    )
    return 0 if planned == verified else 1


if __name__ == "__main__":
    sys.exit(main())
