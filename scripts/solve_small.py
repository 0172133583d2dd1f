#!/usr/bin/env python3
"""Exactly solve prox1 and zeta1 on a shelf of small graphs.

Prints both game values next to the h-index lower bound and the degree
lift, so the inequality chain prox1 <= zeta1 <= Delta * prox1 and the
strict bound prox1 > H_V/(Delta+1) can be eyeballed per graph.
"""

from lzl.graphs import generate, max_degree
from lzl.iso import assemble_bounds, h_index, iso_profile
from lzl.prox import prox_number
from lzl.zeta import ZETA_CAP, zeta_number

SHELF = [
    ("P4", "path", {"n": 4}),
    ("P8", "path", {"n": 8}),
    ("C5", "cycle", {"n": 5}),
    ("C8", "cycle", {"n": 8}),
    ("K4", "complete", {"n": 4}),
    ("K6", "complete", {"n": 6}),
    ("star6", "spider", {"arms": [1] * 6}),
    ("spider222", "spider", {"arms": [2, 2, 2]}),
    ("spider333", "spider", {"arms": [3, 3, 3]}),
    ("grid2", "grid", {"n": 2}),
    ("grid3", "grid", {"n": 3}),
    ("kary22", "kary", {"k": 2, "d": 2}),
]


def main() -> int:
    print(f"{'graph':>10} {'n':>3} {'Delta':>5} {'prox1':>5} {'zeta1':>5} "
          f"{'H_V':>4} {'h-bound':>7} {'lift':>5}")
    for name, family, params in SHELF:
        g = generate(family, **params)
        delta = max_degree(g)
        p = prox_number(g)
        z = zeta_number(g) if g.n <= ZETA_CAP else None
        hv = h_index(iso_profile(g)[0])
        bound = assemble_bounds(g, {"h_vertex": hv}).best("prox1")[0]
        assert p >= bound
        if z is not None:
            assert p <= z <= delta * p
        print(f"{name:>10} {g.n:>3} {delta:>5} {p:>5} "
              f"{z if z is not None else '-':>5} {hv:>4} {bound:>7} {delta * p:>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
