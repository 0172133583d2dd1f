#!/usr/bin/env python3
"""Survey the three tree upper bounds against verified strategy budgets.

For k-ary trees (optionally subdivided) this prints, per tree: the order
bound ceil(log2 n), the depth bound floor(d/4)+2, the level bound
ceil(max nonleaf-per-level / 3)+1, the vertex h-index h_V of the exact
isoperimetric profile with the prox1 lower bound it gives
(prox1 > h_V/(Delta+1)), and the mechanically verified cop budgets of the
depth and level schedules.  The lower bound and the smaller verified
budget make a verified prox1 window.

Usage: python scripts/tree_bound_survey.py [K,D[,SUB] ...]
Each argument is one tree: the K-ary tree of depth D (K, D >= 1), each
edge subdivided SUB times (default 0); for example ``2,8,3 3,6``.  A
malformed argument prints the usage line and exits 2.
Default survey: kary(3,3) with subdivisions 0, 10, 100.
"""

import sys

from lzl.graphs import generate, subdivide
from lzl.iso import assemble_bounds, h_index, iso_profile
from lzl.prox import run_schedule
from lzl.strategies import level_decomposition, strat_tree_depth, strat_tree_levels


def survey(k: int, d: int, sub: int) -> None:
    g = subdivide(generate("kary", k=k, d=d), sub)
    ld = level_decomposition(g, 0)
    order_bound = (g.n - 1).bit_length()
    depth_bound = ld.depth // 4 + 2
    level_bound = -(-ld.max_nonleaf // 3) + 1
    h_v = h_index(iso_profile(g)[0])
    lower = assemble_bounds(g, h_vertex=h_v).best("prox1")[0]

    sched_d = strat_tree_depth(g, 0)
    ok_d = run_schedule(g, sched_d).cleared
    sched_l = strat_tree_levels(g, 0)
    ok_l = run_schedule(g, sched_l).cleared

    print(
        f"kary({k},{d})+sub{sub}: n={g.n} depth={ld.depth} | "
        f"order {order_bound}, depth {depth_bound}, levels {level_bound} | "
        f"h_V {h_v}, prox1 >= {lower} (h-index-vertex) | "
        f"depth-schedule {sched_d.cops} cops ({'ok' if ok_d else 'FAIL'}), "
        f"level-schedule {sched_l.cops} cops ({'ok' if ok_l else 'FAIL'})"
    )


USAGE = "usage: tree_bound_survey.py [K,D[,SUB] ...]"


def parse_tree(arg: str) -> tuple[int, int, int]:
    """``K,D`` or ``K,D,SUB`` as (k, d, sub); ValueError when malformed."""
    fields = [int(f) for f in arg.split(",")]
    if len(fields) not in (2, 3):
        raise ValueError(f"expected K,D or K,D,SUB, got {arg!r}")
    k, d, sub = fields + [0] * (3 - len(fields))
    if k < 1 or d < 1 or sub < 0:
        raise ValueError(f"need K >= 1, D >= 1 and SUB >= 0, got {arg!r}")
    return k, d, sub


def main() -> int:
    try:
        trees = [parse_tree(a) for a in sys.argv[1:]]
    except ValueError as exc:
        print(f"{USAGE}\n{exc}", file=sys.stderr)
        return 2
    for k, d, sub in trees or [(3, 3, sub) for sub in (0, 10, 100)]:
        survey(k, d, sub)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
