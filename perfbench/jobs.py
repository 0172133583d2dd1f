"""Workloads, their job lists, and the known answer for every job.

A workload is a list of segments; each segment runs in one fresh driver
process, its jobs one after another (a closed loop with one client).  A job
is the argv of one ``lzl`` command.  ``{name}`` in an argv stands for the
path of the generated input ``name``.

Every job carries a check that turns its exit code and JSON report into a
verdict, and says where the expected answer comes from:

* ``closed-form``: a formula that holds for every seed;
* ``paper``: a value stated in the paper or the README;
* ``pinned``: a value recorded for the default seed, used when the input's
  sha256 matches the one recorded here;
* ``law``: for any other seed, the game laws the answer must obey
  (``1 <= prox1 <= a dominating set's size``,
  ``prox1 <= zeta1 <= max_degree * prox1``, h-index at most the peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 1

# sha256 of each seeded input at DEFAULT_SEED; see inputs.py.
DEFAULT_SHA256 = {
    "rand10": "f653b90865fcbf972d45721967e74c2e2fe80714b4b204c7c4a6afa56bd646f5",
    "rand16": "ff54464aa3e8ba5f15b995335b80e862405aa559826e4383a8d4d7aa4d9bcf23",
    "tree512": "e2acac68a1279361c17d671f1ad85f5b47cd116b89da0c914dc274768ac33c7b",
    "rand20": "d5e329b8d15ee36a09b6d1d11d20c97d0a8a5c02e967cd49d99735c1138829bb",
}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: Callable  # (results, ctx) -> (ok, basis)


@dataclass(frozen=True)
class Segment:
    jobs: tuple[Job, ...]
    env: dict = field(default_factory=dict)


@dataclass
class Context:
    """What checks may consult besides the job's own report."""

    inputs: dict  # name -> manifest entry (n, m, max_degree, sha256)
    adjacency: dict  # name -> list of neighbour sets, parsed by the driver
    results: dict  # job id -> results of earlier jobs in the segment


# -- checks -------------------------------------------------------------------


def _subset_equal(results: dict, expected: dict) -> bool:
    return all(results.get(k) == v for k, v in expected.items())


def equals(expected: dict, basis: str):
    def check(results, ctx):
        return _subset_equal(results, expected), basis
    return check


def is_default_input(name: str, ctx) -> bool:
    return ctx.inputs[name]["sha256"] == DEFAULT_SHA256[name]


def pinned_or_law(name: str, expected: dict, law: Callable):
    """The pinned value when the input is the default seed's, else the law."""
    def check(results, ctx):
        if is_default_input(name, ctx):
            return _subset_equal(results, expected), "pinned"
        return law(results, ctx), "law"
    return check


def greedy_dominating_size(adj: list[set[int]]) -> int:
    """Size of a greedy dominating set: an upper bound on prox1, since
    probing a dominating set clears every vertex in the first round."""
    undominated = set(range(len(adj)))
    size = 0
    while undominated:
        best = max(range(len(adj)), key=lambda v: len(({v} | adj[v]) & undominated))
        undominated -= {best} | adj[best]
        size += 1
    return size


def prox_law(name: str):
    def law(results, ctx):
        return 1 <= results["prox1"] <= greedy_dominating_size(ctx.adjacency[name])
    return law


def zeta_law(name: str, prox_job: str):
    def law(results, ctx):
        prox1 = ctx.results[prox_job]["prox1"]
        delta = ctx.inputs[name]["max_degree"]
        n = ctx.inputs[name]["n"]
        return prox1 <= results["zeta1"] <= min(delta * prox1, n - 1)
    return law


def bounds_law(name: str):
    def law(results, ctx):
        info = ctx.inputs[name]
        q = results["quantities"]
        consistent = all(
            b["lower"] is None or b["upper"] is None or b["lower"] <= b["upper"]
            for b in results["best"].values()
        )
        return (
            consistent
            and (results["n"], results["m"], results["max_degree"])
            == (info["n"], info["m"], info["max_degree"])
            and 1 <= q["h_vertex"] <= q["phi_vertex_peak"]
            and 1 <= q["h_edge"] <= q["phi_edge_peak"]
            and results["best"]["prox1"]["lower"] >= 1
        )
    return law


def tree_log_check(pinned_worst: int):
    """Budget ceil(log2 n) and capture hold for every tree; the worst
    capture round is pinned for the default seed only."""
    def check(results, ctx):
        n = ctx.inputs["tree512"]["n"]
        ok = (
            results["budget"] == (n - 1).bit_length()
            and results["outcome"] == "captured-all-branches"
        )
        if is_default_input("tree512", ctx):
            return ok and results["worst_capture_round"] == pinned_worst, "pinned"
        return ok, "closed-form"
    return check


def grid_budget(n: int) -> int:
    """m + 3 for the odd m with 0 <= 5m - n <= 9."""
    m = 1
    while not 0 <= 5 * m - n <= 9:
        m += 2
    return m + 3


def path_profile(n: int) -> dict:
    """Phi(P_n, k) = 1 for k < n and 0 for k = n; peak and h-index 1."""
    return {"values": [1] * (n - 1) + [0], "peak": 1, "h_index": 1, "exact": True}


# -- workloads ----------------------------------------------------------------

PATH_N = 21
# the 1- and 2-worker runs of one profile; spans.py compares their times
ISO_1W, ISO_2W = "iso-path-1w", "iso-path-2w"

WORKLOADS: dict[str, tuple[Segment, ...]] = {
    # The exact solvers: zeta_winnable and prox_winnable do nearly all the
    # work, and neither runs in any other workload.
    "exact": (
        Segment((
            Job("zeta-complete9", ("zeta", "solve", "--graph", "complete:9"),
                equals({"zeta1": 8}, "closed-form")),
            Job("zeta-cycle12", ("zeta", "solve", "--graph", "cycle:12"),
                equals({"zeta1": 2}, "pinned")),
            Job("zeta-spider333", ("zeta", "solve", "--graph", "spider:3,3,3"),
                equals({"zeta1": 2}, "paper")),
            Job("prox-rand10", ("prox", "solve", "--graph", "{rand10}"),
                pinned_or_law("rand10", {"prox1": 1}, prox_law("rand10"))),
            Job("zeta-rand10", ("zeta", "solve", "--graph", "{rand10}"),
                pinned_or_law("rand10", {"zeta1": 3}, zeta_law("rand10", "prox-rand10"))),
            Job("prox-grid4", ("prox", "solve", "--graph", "grid:4"),
                equals({"prox1": 2}, "pinned")),
            Job("prox-torus4x4", ("prox", "solve", "--graph", "{torus4x4}"),
                equals({"prox1": 2}, "pinned")),
            Job("prox-rand16", ("prox", "solve", "--graph", "{rand16}"),
                pinned_or_law("rand16", {"prox1": 2}, prox_law("rand16"))),
            Job("bounds-grid4", ("bounds", "--graph", "grid:4", "--solve"),
                equals({"best": {"prox1": {"lower": 2, "upper": 5},
                                 "zeta1": {"lower": 2, "upper": 8}}}, "pinned")),
            Job("lift-spider555", ("strat", "lift-tree", "--graph", "spider:5,5,5"),
                equals({"budget": 2, "outcome": "captured-all-branches",
                        "worst_capture_round": 28}, "pinned")),
        )),
    ),
    # Lattice sweeps: contamination verification (run_schedule) on a grid,
    # plus the gridsweep plan and clip.
    "grid": (
        Segment(tuple(
            Job(f"grid-sweep{n}", ("strat", "grid-sweep", "--n", str(n)),
                equals({"budget": grid_budget(n), "cleared": True}, "closed-form"))
            for n in (51, 61)
        )),
    ),
    # The same verifier on trees, used sparsely and incrementally, and the
    # branch simulator; kept apart from grid so a lattice gain cannot hide a
    # tree loss.
    "trees": (
        Segment((
            Job("tree-depth-kary3-8", ("strat", "tree-depth", "--graph", "kary:3,8"),
                equals({"budget": 3, "cleared": True, "rounds": 13122}, "closed-form")),
            Job("tree-levels-t100", ("strat", "tree-levels", "--graph", "kary:3,3:sub100"),
                equals({"budget": 10, "cleared": True, "rounds": 4189}, "paper")),
            Job("tree-log-rand512", ("strat", "tree-log", "--graph", "{tree512}"),
                tree_log_check(295)),
        )),
    ),
    # Gray-code isoperimetric scans.  The 2-worker run gets its own process
    # because iso_profile memoizes by graph within a process.
    "profile": (
        Segment((
            Job(ISO_1W, ("iso", "--graph", f"path:{PATH_N}", "--h-index", "--peak"),
                equals(path_profile(PATH_N), "closed-form")),
            Job("bounds-rand20", ("bounds", "--graph", "{rand20}"),
                pinned_or_law("rand20", {
                    "quantities": {"h_edge": 9, "h_vertex": 5,
                                   "phi_edge_peak": 13, "phi_vertex_peak": 7},
                    "best": {"prox1": {"lower": 1, "upper": None},
                             "zeta1": {"lower": None, "upper": 19}}}, bounds_law("rand20"))),
        )),
        Segment((
            Job(ISO_2W, ("iso", "--graph", f"path:{PATH_N}", "--h-index", "--peak"),
                equals(path_profile(PATH_N), "closed-form")),
        ), env={"LZL_THREADS": "2"}),
    ),
}


def job_argv(job: Job, inputs: dict) -> list[str]:
    return [a.format(**{k: v["path"] for k, v in inputs.items()}) for a in job.argv]
