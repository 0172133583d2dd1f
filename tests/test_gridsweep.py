from dataclasses import dataclass

import pytest

from lzl.graphs import closed_nb_bits, generate
from lzl.gridsweep import (
    GridSweepPlan,
    _sweep,
    clip_schedule,
    f_eval,
    five_panel_schedule,
    grid_strategy,
    m_of_n,
    probe_set,
)
from lzl.prox import ProbeSchedule, run_schedule

from conftest import CoordinatePlan, cartesian_product, panel_rounds, plan_coordinates


def lattice(n_rows, n_cols):
    """The n_rows-by-n_cols grid, (row, col)-labelled, row-major."""
    return cartesian_product(generate("path", n=n_rows), generate("path", n=n_cols))


def single_panel(m, n):
    """One width-m panel on columns [1, m], started in round 1 at index -2m."""
    return _sweep([(1, -2 * m, 0)], m, n)


# -- the forced-region automaton the planner replaced, kept as its oracle ----


@dataclass(frozen=True)
class ForcedRegionIndex:
    """Index (i, j) of a forced region on an n-row panel of width m."""

    i: int
    j: int
    m: int
    n: int

    def foot(self, c):
        return f_eval(self.i, self.j, c)

    def is_empty(self):
        # feet fall leftward from the focus and rise to its right, so with
        # the focus j >= 1 the lowest foot on columns [1, m] is column 1's
        return self.foot(1) > self.n


def forced_region(idx):
    """Mask of the region's vertices on the panel lattice, rows clipped to [1, n].

    Vertex (r, c) lives at index (r-1)*m + (c-1) of an n*m lattice.
    """
    bits = 0
    for c in range(1, idx.m + 1):
        for r in range(max(1, idx.foot(c)), idx.n + 1):
            bits |= 1 << ((r - 1) * idx.m + (c - 1))
    return bits


def reference_probe_set(idx, window):
    """Knight-spaced probes S(i, j) within the column window, unclipped."""
    lo, hi = window
    out = []
    for c in range(lo, hi + 1):
        delta = c - idx.j
        if (delta > 0 and delta % 2 == 1) or (delta <= 0 and delta % 2 == 0):
            out.append((idx.foot(c) + 1, c))
    return tuple(out)


def natural_step(idx):
    """Post-probe region: (i, j) -> (i+2, j-1), reindexing at focus zero."""
    i, j = idx.i + 2, idx.j - 1
    if j == 0:
        i += (idx.m + 1) // 2
        j = idx.m
    return ForcedRegionIndex(i, j, idx.m, idx.n)


def spread_step(idx):
    """Silent-round relaxation: (i, j) -> (i-1, j)."""
    return ForcedRegionIndex(idx.i - 1, idx.j, idx.m, idx.n)


class TestFEval:
    def test_right_of_focus(self):
        assert f_eval(0, 3, 5) == 2

    def test_at_focus(self):
        assert f_eval(0, 3, 3) == 0

    def test_left_of_focus(self):
        assert f_eval(0, 3, 1) == -1

    def test_linearity_in_i(self):
        for c in range(-3, 12):
            assert f_eval(5, 4, c) == f_eval(0, 4, c) + 5

    def test_adjacent_columns_step_by_at_most_one(self):
        for j in range(0, 8):
            for c in range(-5, 15):
                assert 0 <= f_eval(0, j, c + 1) - f_eval(0, j, c) <= 1


class TestForcedRegion:
    def test_reindexing_identity(self):
        # a region with focus zero equals the focus-m region shifted (m+1)/2
        for m in (3, 5, 7, 9):
            for i in (-4, -1, 0, 2, 5):
                left = ForcedRegionIndex(i, 0, m, 12)
                right = ForcedRegionIndex(i + (m + 1) // 2, m, m, 12)
                assert forced_region(left) == forced_region(right), (m, i)

    def test_empty_when_foot_above_top(self):
        idx = ForcedRegionIndex(40, 3, 3, 11)
        assert idx.is_empty()
        assert not forced_region(idx)

    def test_is_empty_matches_lowest_foot(self):
        # both forms compare one threshold with n, so n = lowest - 1 and
        # n = lowest pin the threshold and with it every other n
        for m in range(1, 40, 2):
            for j in range(1, m + 1):
                for i in range(-200, 200):
                    lowest = min(f_eval(i, j, c) for c in range(1, m + 1))
                    for n in (lowest - 1, lowest):
                        assert ForcedRegionIndex(i, j, m, n).is_empty() == (lowest > n)

    def test_clipping_to_row_one(self):
        idx = ForcedRegionIndex(0, 7, 7, 5)
        region = forced_region(idx)
        # column 7 foot is 0, clipped to 1: the whole column is present
        for r in range(1, 6):
            assert (region >> ((r - 1) * 7 + 6)) & 1


class TestProbeSet:
    def test_example_pattern(self):
        probes = probe_set(3, 7)
        assert set(probes) == {(0, 1), (1, 3), (2, 4), (3, 6), (4, 8)}
        assert len(probes) == (7 + 3) // 2

    def test_focus_at_right_edge(self):
        m = 7
        lefts = [c for _, c in probe_set(m, m) if c <= m]
        assert len(lefts) == m // 2 + 1

    def test_rows_below_one_retained(self):
        assert any(r <= 0 for r, _ in probe_set(3, 3))

    def test_count_bound_all_indices(self):
        for m in (3, 5, 7):
            for j in range(1, m + 1):
                assert len(probe_set(j, m)) <= (m + 3) // 2

    def test_shifted_pattern_is_reference_probe_set(self):
        # S(i, j) is S(0, j) shifted up i rows
        for m in range(1, 16, 2):
            for j in range(1, m + 1):
                for i in range(-2 * m, 5):
                    shifted = tuple((r + i, c) for r, c in probe_set(j, m))
                    idx = ForcedRegionIndex(i, j, m, 11)
                    assert shifted == reference_probe_set(idx, (0, m + 1)), (m, j, i)


def region_minus_probes(g, idx, window, n, m):
    reg = forced_region(idx)
    probe_bits = 0
    for r, c in reference_probe_set(idx, window):
        for rr, cc in ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 1 <= rr <= n and 1 <= cc <= m:
                probe_bits |= 1 << ((rr - 1) * m + (cc - 1))
    return reg & ~probe_bits


class TestStepIdentities:
    def test_natural_move_posterior(self):
        # probing S(i,j) shrinks F(i,j) to F(i+2,j-1) on the panel lattice
        n, m = 14, 7
        g = lattice(n, m)
        for i in (0, 1, 3):
            for j in range(1, m + 1):
                idx = ForcedRegionIndex(i, j, m, n)
                survivors = region_minus_probes(g, idx, (0, m + 1), n, m)
                post = natural_step(idx)
                assert survivors == forced_region(
                    ForcedRegionIndex(i + 2, j - 1, m, n)
                ), (i, j)
                if j > 1:
                    assert post == ForcedRegionIndex(i + 2, j - 1, m, n)

    def test_reindex_after_focus_one(self):
        idx = ForcedRegionIndex(4, 1, 7, 11)
        post = natural_step(idx)
        assert (post.i, post.j) == (4 + 2 + 4, 7)

    def test_spread_identity(self):
        # one silent round relaxes F(i,j) to F(i-1,j)
        n, m = 14, 7
        g = lattice(n, m)
        for i in (2, 4):
            for j in range(1, m + 1):
                idx = ForcedRegionIndex(i, j, m, n)
                if idx.is_empty():
                    continue
                spread = closed_nb_bits(g, forced_region(idx))
                assert spread == forced_region(spread_step(idx)), (i, j)

    def test_five_round_cadence(self):
        # probe, three spreads, probe, two spreads: net (i, j) -> (i-1, j-2)
        idx = ForcedRegionIndex(0, 7, 7, 30)
        step = natural_step(idx)
        for _ in range(3):
            step = spread_step(step)
        step = natural_step(step)
        for _ in range(2):
            step = spread_step(step)
        assert (step.i, step.j) == (idx.i - 1, idx.j - 2)


class TestMOfN:
    @pytest.mark.parametrize("n,m", [(11, 3), (25, 5), (16, 5), (21, 5), (26, 7), (2, 1)])
    def test_examples(self, n, m):
        assert m_of_n(n) == m

    def test_defining_property(self):
        for n in range(1, 80):
            m = m_of_n(n)
            assert m % 2 == 1 and 0 <= 5 * m - n <= 9


def clip_one_round(placements, m, n):
    """The (row, col) pairs that clip_schedule makes of one round of placements."""
    rounds = clip_schedule(GridSweepPlan(m, [list(placements)]), n).rounds
    return {(v // n + 1, v % n + 1) for v in rounds[0]} if rounds else set()


class TestClip:
    def test_fold_bottom(self):
        # S(0, 3) of width 3 moved three columns right: (0, 4), (1, 6), (2, 7)
        assert clip_one_round([(3, 3, 0)], 3, 11) == {(1, 4), (1, 6), (2, 7)}

    def test_delete_far(self):
        # S(-4, 1) of width 1 moved one column right: (-3, 2), (-2, 3)
        assert clip_one_round([(1, 1, -4)], 1, 11) == set()

    def test_fold_all_sides(self):
        placements = [
            (0, 2, 0),   # (0, 0), (1, 2), (2, 3)
            (0, 2, 5),   # (5, 0), (6, 2), (7, 3)
            (4, 3, 12),  # (12, 5), (13, 7), (14, 8)
            (8, 3, 3),   # (3, 9), (4, 11), (5, 12)
        ]
        assert clip_one_round(placements, 3, 11) == {
            (1, 1), (1, 2), (2, 3),
            (5, 1), (6, 2), (7, 3),
            (11, 5),
            (3, 9), (4, 11), (5, 11),
        }

    def test_never_increases_round_size(self):
        plan = five_panel_schedule(11)
        sched = clip_schedule(plan, 11)
        for raw, clipped in zip(plan_coordinates(plan).rounds, sched.rounds):
            assert len(clipped) <= max(len(raw), 1)

    @pytest.mark.parametrize("m", range(1, 16, 2))
    def test_interior_shortcut_boundaries(self, m):
        # every focus and column offset 0..4m, at each row shift within 2 of
        # the first and last shift that keeps every surviving probe row in
        # [1, n]; one placement per round, so each round is a one-placement plan
        for n in sorted({max(2, 5 * m - 9), 5 * m}):
            placements = []
            for j in range(1, m + 1):
                for offset in range(4 * m + 1):
                    rows = [r for r, c in probe_set(j, m) if 0 <= c + offset <= n + 1]
                    if not rows:
                        continue
                    first, last = 1 - min(rows), n - max(rows)
                    shifts = {first + d for d in range(-2, 3)} | {last + d for d in range(-2, 3)}
                    placements += [(offset, j, i) for i in sorted(shifts)]
            sched = clip_schedule(GridSweepPlan(m, [[p] for p in placements]), n)
            for t, placement in enumerate(placements):
                clipped = sched.rounds[t] if t < len(sched.rounds) else ()
                coords = plan_coordinates(GridSweepPlan(m, [[placement]])).rounds[0]
                expected = {(r - 1) * n + (c - 1) for r, c in reference_clip_round(coords, n, n)}
                assert clipped == tuple(sorted(expected)), (n, placement)


class TestPanel:
    def test_single_panel_clears_lattice(self):
        sched = reference_clip_schedule(plan_coordinates(single_panel(3, 11)), 11, 3)
        trace = run_schedule(lattice(11, 3), sched)
        assert trace.cleared
        assert sched.cops <= 3  # (m+3)/2

    def test_active_round_budget(self):
        plan = single_panel(5, 16)
        for probes in plan_coordinates(plan).rounds:
            assert len(probes) <= 4  # (5+3)/2

    def test_property1_cadence(self):
        # probes in round 1 + 5m*a land on S(-2m+a, m)
        m, n = 3, 11
        probes_by_round = panel_rounds(single_panel(m, n), 1)[0]
        for alpha in range(0, 4):
            t = 1 + 5 * m * alpha
            if t not in probes_by_round:
                break
            expected = reference_probe_set(
                ForcedRegionIndex(-2 * m + alpha, m, m, n), (0, m + 1)
            )
            assert probes_by_round[t] == expected


class TestFivePanel:
    def test_start_stagger(self):
        # panel j first probes in round j: S(-2m + (j-1)(m-1)/2, m) on its columns
        plan = five_panel_schedule(11)
        m = plan.m
        for j, panel in enumerate(panel_rounds(plan), 1):
            start_i = -2 * m + (j - 1) * (m - 1) // 2
            assert min(panel) == j
            assert panel[j] == tuple(
                (r + start_i, c + (j - 1) * m) for r, c in probe_set(m, m)
            )

    def test_two_panels_per_round(self):
        plan = five_panel_schedule(11)
        m = plan.m
        panels = panel_rounds(plan)
        active = [t for t, probes in enumerate(plan_coordinates(plan).rounds, 1) if probes]
        for t in active[: 5 * m]:
            assert sum(1 for p in panels if t in p) <= 2

    def test_property4_shift(self):
        plan = five_panel_schedule(11)
        m = plan.m
        shift = (m - 1) // 2
        panels = panel_rounds(plan)
        for a, b in zip(panels, panels[1:]):
            for t, probes in a.items():
                if t + 1 in b:
                    assert set(b[t + 1]) == {(r + shift, c + m) for r, c in probes}

    def test_budget_m_plus_3(self):
        for n in (11, 16):
            plan = five_panel_schedule(n)
            for probes in plan_coordinates(plan).rounds:
                assert len(set(probes)) <= plan.m + 3


class TestGridStrategy:
    @pytest.mark.parametrize("n,budget", [
        (11, 6),
        (16, 8),
        pytest.param(101, 24, marks=pytest.mark.slow),
        pytest.param(126, 30, marks=pytest.mark.slow),
        pytest.param(128, 30, marks=pytest.mark.slow),
    ])
    def test_verified_budgets(self, n, budget):
        sched, trace = grid_strategy(n)
        assert sched.cops == budget
        assert trace.cleared

    @pytest.mark.parametrize("n", [2, 5, 7, 9, 13, 25])
    def test_off_window_sizes_verify(self, n):
        sched, trace = grid_strategy(n)
        assert trace.cleared
        assert sched.cops <= m_of_n(n) + 3


class ReferencePanel:
    """The per-round sweep automaton the planner replaced, kept as its oracle.

    It walks a ForcedRegionIndex through spread_step and natural_step and
    calls reference_probe_set afresh on every active round.
    """

    def __init__(self, m, n, start_round, start_i, col_offset):
        self.m = m
        self.n = n
        self.start_round = start_round
        self.start_i = start_i
        self.col_offset = col_offset
        self.idx = ForcedRegionIndex(start_i + 1, m, m, n)
        self.empty_from = None

    def active(self, t):
        r = self.start_round % 5
        return t >= self.start_round and t % 5 in (r, (r + 3) % 5)

    def round(self, t):
        if t < self.start_round or self.empty_from is not None:
            return []
        self.idx = spread_step(self.idx)
        if self.idx.is_empty():
            self.empty_from = t
            return []
        if not self.active(t):
            return []
        pre = self.idx
        local = reference_probe_set(pre, (0, self.m + 1))
        probes = [(r, c + self.col_offset) for r, c in local]
        if len(probes) > (self.m + 3) // 2:
            raise AssertionError("panel probe budget exceeded")
        self.idx = natural_step(pre)
        return probes


def reference_sweep(panels, m, n):
    rounds = []
    hard_cap = 10 * m * (n + 4 * m) + 100
    while any(p.empty_from is None for p in panels):
        if len(rounds) >= hard_cap:
            raise AssertionError("grid sweep failed to terminate")
        t = len(rounds) + 1
        rounds.append([probe for p in panels for probe in p.round(t)])
    rounds.extend([] for _ in range(5 * m))
    return CoordinatePlan(m, rounds)


def reference_clip_round(probes, n_rows, n_cols):
    """Delete probes outside [0, n+1]^2 and fold border probes inward."""
    out = set()
    for r, c in probes:
        if not (0 <= r <= n_rows + 1 and 0 <= c <= n_cols + 1):
            continue
        out.add((min(max(r, 1), n_rows), min(max(c, 1), n_cols)))
    return out


def reference_clip_schedule(plan, n, n_cols):
    """Clip probe by probe through coordinate tuples, then number the vertices."""
    vertex_rounds = []
    for probes in plan.rounds:
        clipped = reference_clip_round(probes, n, n_cols)
        vertex_rounds.append({(r - 1) * n_cols + (c - 1) for r, c in clipped})
    while vertex_rounds and not vertex_rounds[-1]:
        vertex_rounds.pop()
    budget = max((len(r) for r in vertex_rounds), default=1) or 1
    return ProbeSchedule.from_lists(budget, vertex_rounds)


class TestAgainstReference:
    """Expanded plans and clipped schedules equal the per-round automaton's, byte for byte."""

    @staticmethod
    def assert_same(plan, reference):
        assert plan.m == reference.m
        assert plan.rounds == reference.rounds

    @pytest.mark.parametrize("n", [
        *range(2, 71),
        pytest.param(101, marks=pytest.mark.slow),
        pytest.param(126, marks=pytest.mark.slow),
    ])
    def test_five_panel(self, n):
        m = m_of_n(n)
        reference = reference_sweep(
            [ReferencePanel(m, n, j, -2 * m + (j - 1) * (m - 1) // 2, (j - 1) * m)
             for j in range(1, 6)],
            m, n,
        )
        plan = five_panel_schedule(n)
        self.assert_same(plan_coordinates(plan), reference)
        clipped = clip_schedule(plan, n).to_json()
        assert clipped == reference_clip_schedule(reference, n, n).to_json()

    @pytest.mark.parametrize("m", range(1, 16, 2))
    def test_single_panel(self, m):
        reference = reference_sweep([ReferencePanel(m, 11, 1, -2 * m, 0)], m, 11)
        self.assert_same(plan_coordinates(single_panel(m, 11)), reference)
