"""Spans around the public entry points of each lzl module, and the
per-layer metrics computed from them.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each listed function in every ``lzl`` namespace that holds it, so
calls through ``from .prox import run_schedule`` are traced as well as calls
through ``lzl.prox.run_schedule``.  Per-call kernels such as
``closed_nb_bits`` are deliberately not wrapped: their call counts would
make the traced run measure the tracer.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

from jobs import ISO_1W, ISO_2W

# layer -> functions wrapped in that layer's module
LAYERS = {
    "cli": ("lzl.cli", ("main", "load_graph")),
    "graphs": ("lzl.graphs", ("generate", "parse_graph", "subdivide")),
    "zeta": ("lzl.zeta", ("zeta_number", "zeta_winnable", "simulate_policy")),
    "prox": ("lzl.prox", ("prox_number", "prox_winnable", "run_schedule")),
    "iso": ("lzl.iso", ("iso_profile", "assemble_bounds")),
    "gridsweep": ("lzl.gridsweep", ("grid_strategy", "five_panel_schedule", "clip_schedule")),
    "strategies": ("lzl.strategies", ("strat_tree_log", "strat_tree_depth",
                                      "strat_tree_levels", "lift_prox_to_zeta")),
}

# span fields
NAME, START, END, PARENT, JOB, WORK = range(6)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    job id, and a work count taken from the call's result."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self._profiled: set = set()

    def _work(self, name: str, args, kwargs, result) -> int:
        if name in ("graphs.generate", "graphs.parse_graph", "graphs.subdivide"):
            return result.n
        if name == "zeta.simulate_policy":
            return result.branches
        if name == "prox.run_schedule":
            return len(result.counts)
        if name == "iso.iso_profile":
            # iso_profile memoizes by graph within a process: a repeat scans
            # nothing.  Both modes come from one scan of all 2^n subsets.
            g, budget = args[0], kwargs.get("budget")
            key = (g.content_hash(), budget)
            if key in self._profiled:
                return 0
            self._profiled.add(key)
            return 1 << g.n if budget is None else budget
        return 1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[WORK] = self._work(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever an lzl module imported it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lzl" or n.startswith("lzl."))]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + s[WORK]

    def t(name):
        return total.get(name, 0.0)

    def layer_self(layer):
        return sum((v for k, v in self_time.items() if k.startswith(layer + ".")), 0.0)

    graph_builders = ("graphs.generate", "graphs.parse_graph", "graphs.subdivide")
    simulate_s = t("zeta.simulate_policy")
    run_schedule_s = t("prox.run_schedule")
    profile_s = t("iso.iso_profile")
    return {
        "cli.self_s": layer_self("cli"),
        "cli.load_graph_s": t("cli.load_graph"),
        "graphs.build_s": sum(t(n) for n in graph_builders),
        "graphs.vertices_built": sum(work.get(n, 0) for n in graph_builders),
        "zeta.winnable_s": t("zeta.zeta_winnable"),
        "zeta.winnable_calls": calls.get("zeta.zeta_winnable", 0),
        "zeta.simulate_s": simulate_s,
        "zeta.simulate_branches": work.get("zeta.simulate_policy", 0),
        "zeta.branches_per_s": _ratio(work.get("zeta.simulate_policy", 0), simulate_s),
        "prox.winnable_s": t("prox.prox_winnable"),
        "prox.winnable_calls": calls.get("prox.prox_winnable", 0),
        "prox.run_schedule_s": run_schedule_s,
        "prox.rounds_verified": work.get("prox.run_schedule", 0),
        "prox.rounds_per_s": _ratio(work.get("prox.run_schedule", 0), run_schedule_s),
        "gridsweep.plan_s": t("gridsweep.five_panel_schedule"),
        "gridsweep.clip_s": t("gridsweep.clip_schedule"),
        "strategies.build_s": layer_self("strategies"),
        "iso.profile_s": profile_s,
        "iso.subsets_scanned": work.get("iso.iso_profile", 0),
        "iso.subsets_per_s": _ratio(work.get("iso.iso_profile", 0), profile_s),
        "iso.speedup_2w": _ratio(_job_time(spans, "iso.iso_profile", ISO_1W),
                                 _job_time(spans, "iso.iso_profile", ISO_2W)),
        "iso.assemble_s": t("iso.assemble_bounds"),
    }


def _job_time(spans: list[list], name: str, job: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name and s[JOB] == job)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
