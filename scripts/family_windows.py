#!/usr/bin/env python3
"""Windows on the paper's families: each exact value and verified budget beside its bounds.

Usage: python scripts/family_windows.py [SPEC ...]

Each SPEC is a graph spec or file, exactly as ``lzl`` reads it.  Every
number printed comes from the report of an ``lzl`` command run in-process:
``bounds --solve`` gives n, Delta, H_V, the exact prox1 and zeta1 where the
caps allow, and the best window on each; ``strat grid-sweep`` runs on a
grid, and ``strat tree-depth`` and ``strat tree-levels`` on a tree.  The
one exception is a tree's order, depth and level upper bounds, from
``tree_upper_bounds``: no command reports them for an arbitrary tree.

Each exact value must lie inside its own window, and each verified
schedule must clear with a budget at or above prox1's lower end, or the
script raises AssertionError.  A spec that ``lzl`` refuses exits with
lzl's code, printing the usage line and lzl's error before any row.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from lzl.cli import EXIT_NEGATIVE, EXIT_OK, load_graph, main as lzl_main
from lzl.strategies import tree_upper_bounds

USAGE = "usage: family_windows.py [SPEC ...]"

DEFAULT_SPECS = [
    "path:4", "path:8", "cycle:5", "cycle:8", "complete:4", "complete:6",
    "spider:1,1,1,1,1,1", "spider:2,2,2", "spider:3,3,3",
    "grid:2", "grid:3", "kary:2,2",
    "grid:11", "grid:16", "grid:21", "grid:26",
    "kary:3,3", "kary:3,3:sub10", "kary:3,3:sub100",
]


def lzl(*argv: str) -> dict:
    """The report of ``lzl ARGV``; a refusal exits with lzl's exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lzl_main(list(argv))
    if code not in (EXIT_OK, EXIT_NEGATIVE):
        sys.stderr.write(f"{USAGE}\n{err.getvalue()}")
        raise SystemExit(code)
    return json.loads(out.getvalue())["report"]


def window(best: dict) -> str:
    return "..".join("?" if end is None else str(end) for end in (best["lower"], best["upper"]))


def main() -> int:
    specs = sys.argv[1:] or DEFAULT_SPECS
    # "--graph=SPEC", so that a spec starting with "-" is read as a spec
    reports = [lzl("bounds", "--solve", f"--graph={spec}") for spec in specs]
    width = max(map(len, specs))
    print(f"{'graph':<{width}} {'n':>5} {'Delta':>5} {'H_V':>4} "
          f"{'prox1':>5} {'window':>7} {'zeta1':>5} {'window':>9}")
    for spec, report in zip(specs, reports):
        graph, results = report["graph"], report["results"]
        quantities, best = results["quantities"], results["best"]
        exact = {t: quantities.get(t, "-") for t in ("prox1", "zeta1", "h_vertex")}
        print(f"{spec:<{width}} {graph['n']:>5} {graph['max_degree']:>5} {exact['h_vertex']:>4} "
              f"{exact['prox1']:>5} {window(best['prox1']):>7} "
              f"{exact['zeta1']:>5} {window(best['zeta1']):>9}")
        for target in ("prox1", "zeta1"):
            if target in quantities:
                value, lo, hi = quantities[target], best[target]["lower"], best[target]["upper"]
                assert (lo is None or lo <= value) and (hi is None or value <= hi), (
                    f"{spec}: {target} = {value} lies outside its window {window(best[target])}")

        verified = []
        if "grid_side" in quantities:
            verified.append(("grid-sweep", lzl("strat", "grid-sweep", f"--n={quantities['grid_side']}")))
        # graphs are connected, so n - 1 edges make a tree
        if graph["m"] == graph["n"] - 1:
            order, depth, levels = tree_upper_bounds(load_graph(spec)[0], 0)
            print(f"  tree bounds: order {order}, depth {depth}, levels {levels}")
            verified += [(name, lzl("strat", name, f"--graph={spec}"))
                         for name in ("tree-depth", "tree-levels")]
        for name, strat in verified:
            r = strat["results"]
            print(f"  {name}: budget {r['budget']}, cleared {r['cleared']}, "
                  f"clear round {r['clear_round']}, {r['rounds']} rounds")
            # a cleared schedule's budget is an upper bound on prox1
            lower = best["prox1"]["lower"] or 0
            assert r["cleared"] and r["budget"] >= lower, (
                f"{spec}: {name} with budget {r['budget']} against prox1 >= {lower}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
