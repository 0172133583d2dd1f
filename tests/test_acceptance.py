"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is also part of the default pytest run.
"""

import random

import pytest

from lzl.cli import TABLE1_EXPECTED, table1_rows
from lzl.graphs import closed_nb_bits, generate, max_degree
from lzl.gridsweep import five_panel_schedule, grid_strategy, probe_set
from lzl.iso import h_index, iso_profile
from lzl.prox import prox_number, run_schedule
from lzl.strategies import (
    _midway,
    brute_pathwidth,
    strat_tree_depth,
    strat_tree_levels,
    strat_tree_log,
)
from lzl.zeta import simulate_policy, zeta_number

from conftest import grid_profile_oracle, induced_connected, panel_rounds, peak_to_h_lower


def _ok(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): PASS")


def test_criterion_1_exact_values():
    for n in (3, 4, 5):
        assert zeta_number(generate("complete", n=n)) == n - 1
    spider = generate("spider", arms=[3, 3, 3])
    assert zeta_number(spider) == 2
    for n in range(2, 7):
        assert prox_number(generate("complete", n=n)) == 1
    p, z = prox_number(spider), zeta_number(spider)
    assert p <= z <= p + 1
    _ok(1, "exact values")


def test_criterion_2_tree_laws(tree_batch):
    assert len(tree_batch) >= 200
    rng = random.Random(7)
    subtree_checks = 0
    for t in tree_batch:
        p = prox_number(t)
        z = zeta_number(t)
        assert p <= z <= p + 1
        assert z <= (t.n - 1).bit_length()
        if t.n >= 2:
            assert z <= max(brute_pathwidth(t).width, 1)
        if subtree_checks < 60 and t.n >= 4:
            subtree_checks += 1
            keep = 1 << rng.randrange(t.n)
            for _ in range(rng.randint(1, t.n - 2)):
                frontier = closed_nb_bits(t, keep) & ~keep
                if not frontier:
                    break
                choices = [v for v in range(t.n) if (frontier >> v) & 1]
                keep |= 1 << rng.choice(choices)
            assert zeta_number(induced_connected(t, keep)) <= z
    _ok(2, f"tree laws on {len(tree_batch)} trees, {subtree_checks} subtree samples")


def test_criterion_3_conversion(corpus):
    equalities = 0
    for name, g in corpus:
        if g.n < 2 or g.n > 8:
            continue
        p = prox_number(g)
        z = zeta_number(g)
        delta = max_degree(g)
        assert z <= delta * p, name
        if name.startswith("K"):
            assert z == delta * p, name
            equalities += 1
        if p >= delta * delta:
            assert z == p, name
    assert equalities >= 5
    _ok(3, "prox-to-zeta conversion laws")


ISO_SUITE = [
    ("grid3", lambda: generate("grid", n=3)),
    ("grid4", lambda: generate("grid", n=4)),
    ("kary23", lambda: generate("kary", k=2, d=3)),
    ("path12", lambda: generate("path", n=12)),
    ("cycle12", lambda: generate("cycle", n=12)),
    ("spider555", lambda: generate("spider", arms=[5, 5, 5])),
]


def test_criterion_4_isoperimetric(corpus):
    graphs = [(name, g) for name, g in corpus] + [
        (name, build()) for name, build in ISO_SUITE
    ]
    for name, g in graphs:
        if g.n < 2:
            continue
        pv, pe = iso_profile(g)
        delta = max_degree(g)
        for k in range(1, g.n + 1):
            assert pv[k - 1] <= pe[k - 1] <= delta * pv[k - 1], name
        for k in range(1, g.n):
            assert pv[k] >= pv[k - 1] - 1, name
            assert pv[k - 1] >= pv[k] - delta, name
            assert pe[k] >= pe[k - 1] - delta, name
        hv, he = h_index(pv), h_index(pe)
        assert he <= delta * hv and hv <= he, name
        assert peak_to_h_lower(max(pv), delta, "vertex") <= hv, name
        assert peak_to_h_lower(max(pe), delta, "edge") <= he, name
    for n in (3, 4):
        prof = iso_profile(generate("grid", n=n))[0]
        lo, hi, val = grid_profile_oracle(n)
        for k in range(lo, hi + 1):
            assert prof[k - 1] == val
    assert h_index(iso_profile(generate("grid", n=4))[0]) == 4
    _ok(4, f"isoperimetric laws on {len(graphs)} graphs")


GRID_CASES = [(11, 6), (16, 8), (21, 8), (26, 10)]


def test_criterion_5_grid_theorem():
    for n, budget in GRID_CASES:
        schedule, trace = grid_strategy(n)
        assert schedule.cops == budget, n
        assert trace.cleared, n
        lo = -(-n // 5) + 1
        window = range(lo, lo + 4)
        assert budget in window, n

        plan = five_panel_schedule(n)
        m = plan.m
        panels = panel_rounds(plan)
        first = panels[0]
        for alpha in range(4):
            t = 1 + 5 * m * alpha
            if t not in first:
                break
            # the probes of round 1 + 5m*alpha are S(-2m + alpha, m)
            assert first[t] == tuple(
                (r - 2 * m + alpha, c) for r, c in probe_set(m, m)
            )
        shift = (m - 1) // 2
        for a, b in zip(panels, panels[1:]):
            for t, probes in a.items():
                if t + 1 in b:
                    assert set(b[t + 1]) == {(r + shift, c + m) for r, c in probes}
    _ok(5, "grid sweeps verified at n=11,16,21,26 with budgets 6,8,8,10")


def test_criterion_6_tree_strategies(tree_batch):
    for k in (2, 3):
        for d in range(2, 9):
            g = generate("kary", k=k, d=d)
            sched = strat_tree_depth(g, 0)
            assert sched.cops <= d // 4 + 1, (k, d)
            assert run_schedule(g, sched).cleared, (k, d)
    t32 = generate("kary", k=3, d=2)
    sched = strat_tree_levels(t32, _midway(t32, range(t32.n)))
    assert sched.cops == 2 and run_schedule(t32, sched).cleared
    t33 = generate("kary", k=3, d=3)
    sched = strat_tree_levels(t33, 0)
    assert sched.cops == 4 and run_schedule(t33, sched).cleared
    captured = 0
    for t in tree_batch:
        if t.n < 2:
            continue
        policy = strat_tree_log(t)
        assert policy.budget <= (t.n - 1).bit_length()
        sim = simulate_policy(t, policy)
        assert sim.captured
        captured += 1
    _ok(6, f"tree strategies (depth/levels verified, log captured on {captured} trees)")


def test_criterion_7_table1():
    rows = table1_rows()
    for name, expected in TABLE1_EXPECTED.items():
        assert rows[name] == expected, name
    _ok(7, "table of tree upper bounds reproduced (9/9 cells)")


def test_criterion_8_lower_bound_realization(corpus):
    g4 = generate("grid", n=4)
    hv = h_index(iso_profile(g4)[0])
    delta = max_degree(g4)
    bound = hv // (delta + 1) + 1
    assert bound == 1
    p4 = prox_number(g4)
    assert p4 >= bound
    assert p4 > hv / (delta + 1)
    for name, g in corpus:
        if g.n < 2:
            continue
        hv = h_index(iso_profile(g)[0])
        p = prox_number(g)
        assert p > hv / (max_degree(g) + 1), name
    _ok(8, "h-index lower bounds realized against exact solver values")


def test_criterion_4_long_mode_grid5():
    prof = iso_profile(generate("grid", n=5))[0]
    lo, hi, val = grid_profile_oracle(5)
    for k in range(lo, hi + 1):
        assert prof[k - 1] == val
    assert h_index(prof) >= 5
    _ok(4, "long mode: grid 5 profile matches the closed-form window")
