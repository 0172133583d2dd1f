import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lzl import strategies
from lzl.cli import load_graph
from lzl.errors import UsageError
from lzl.graphs import (
    Graph,
    components_bits,
    generate,
    iter_bits,
    mask_of,
    max_degree,
    rooted_tree,
    subdivide,
)
from lzl.prox import ProbeSchedule, prox_number, prox_solve, prox_winnable, run_schedule
from lzl.strategies import (
    PathDecomposition,
    TreeLiftPolicy,
    _midway,
    _split_parts,
    balanced_separator_brute,
    brute_pathwidth,
    lift_prox_to_zeta,
    min_dominating_set,
    nonleaf_levels,
    strat_domination,
    strat_pathwidth,
    strat_separator,
    strat_tree_depth,
    strat_tree_levels,
    strat_tree_log,
    tree_upper_bounds,
)
from lzl.zeta import simulate_policy, zeta_number

from conftest import (
    bfs_distances,
    leaf_path_tree_depth,
    mask,
    mask_log_rounds,
    midway_by_scan,
    random_connected_graph,
    random_recursive_tree,
    random_tree,
    regrouping_tree_levels,
)


def validate_path_decomposition(g, bags):
    """Return the list of violated path-decomposition properties (empty when valid)."""
    violations = []
    cover = 0
    for b in bags:
        cover |= b
    if cover != (1 << g.n) - 1:
        violations.append("(1) bags do not cover every vertex")
    for u, v in g.edges():
        uv = (1 << u) | (1 << v)
        if not any(b & uv == uv for b in bags):
            violations.append(f"(2) edge ({u + 1}, {v + 1}) is in no bag")
            break
    for v in range(g.n):
        idx = [i for i, b in enumerate(bags) if (b >> v) & 1]
        if idx and idx != list(range(idx[0], idx[-1] + 1)):
            violations.append(f"(3) bags containing vertex {v + 1} are not contiguous")
            break
    return violations


def normalize_path_decomposition(g, bags):
    """Reference normalizer, a two-pass fixpoint over a decomposition's bags:
    drop each bag contained in a neighbor bag, then trim each vertex from its
    last bag when it has no neighbor there, until nothing changes."""
    work = list(bags)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1, -1, -1):
            if len(work) == 1:
                break
            nb = work[max(i - 1, 0):i] + work[i + 1:i + 2]
            if any(work[i] & ~other == 0 for other in nb):
                del work[i]
                changed = True
        for v in range(g.n):
            idx = [i for i, b in enumerate(work) if (b >> v) & 1]
            if len(idx) >= 2 and g.adj_bits[v] & work[idx[-1]] == 0:
                work[idx[-1]] &= ~(1 << v)
                changed = True
    return PathDecomposition(tuple(work))


def split_parts_by_scan(comps, n):
    """The old separator split: the first of the 2^len(comps) assignments, in
    integer order, whose parts each have order at most 2n/3."""
    sizes = [c.bit_count() for c in comps]
    for assign in range(1 << len(comps)):
        a = sum(sizes[i] for i in range(len(comps)) if (assign >> i) & 1)
        b = sum(sizes) - a
        if 3 * a <= 2 * n and 3 * b <= 2 * n:
            a_bits = 0
            b_bits = 0
            for i, c in enumerate(comps):
                if (assign >> i) & 1:
                    a_bits |= c
                else:
                    b_bits |= c
            return a_bits, b_bits
    return None


def midway(g):
    """The midway vertex of the whole tree ``g``."""
    return _midway(g, range(g.n))


class TestMidway:
    def test_p5(self):
        assert midway(generate("path", n=5)) == 2

    def test_star(self):
        assert midway(generate("spider", arms=[1] * 6)) == 0

    def test_p4(self):
        g = generate("path", n=4)
        v = midway(g)
        assert v == 1

    def test_rejects_non_tree(self):
        # the midway recursion runs only behind strat_tree_log's tree check
        with pytest.raises(UsageError):
            strat_tree_log(generate("cycle", n=5))

    def test_component_bound(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_tree(rng, rng.randint(2, 9))
            v = midway(t)
            for comp in components_bits(t, ((1 << t.n) - 1) & ~(1 << v)):
                assert 2 * comp.bit_count() <= t.n

    def test_matches_scan_on_random_subtrees(self):
        rng = random.Random(8)
        for _ in range(200):
            t = random_tree(rng, rng.randint(1, 40))
            # a connected part: the component of a random vertex after cutting one
            cut = rng.randrange(t.n)
            comps = components_bits(t, ((1 << t.n) - 1) & ~(1 << cut)) or [1 << cut]
            for comp in [(1 << t.n) - 1, rng.choice(comps)]:
                assert _midway(t, list(iter_bits(comp))) == midway_by_scan(t, comp)

    @pytest.mark.parametrize("g", [
        generate("path", n=64),
        generate("kary", k=3, d=4),
        generate("spider", arms=[1, 4, 4, 9]),
        subdivide(generate("kary", k=2, d=3), 3),
    ] + [random_recursive_tree(random.Random(n), n) for n in (30, 120)],
        ids=["path:64", "kary:3,4", "spider:1,4,4,9", "kary:2,3:sub3", "rrt30", "rrt120"])
    def test_matches_scan_on_every_log_component(self, g, monkeypatch):
        seen = []

        def checked(g, comp):
            seen.append(mask_of(comp))
            v = _midway(g, comp)
            assert v == midway_by_scan(g, seen[-1]), comp
            return v

        monkeypatch.setattr(strategies, "_midway", checked)
        strat_tree_log(g)
        assert seen[0] == (1 << g.n) - 1 and len(seen) > 1


class TestTreeLog:
    def test_budgets(self):
        assert strat_tree_log(generate("path", n=2)).budget == 1
        assert strat_tree_log(generate("path", n=8)).budget == 3
        assert strat_tree_log(generate("spider", arms=[3, 3, 3])).budget == 4

    def test_spider_captures(self):
        g = generate("spider", arms=[3, 3, 3])
        sim = simulate_policy(g, strat_tree_log(g))
        assert sim.captured

    def test_random_trees_capture_within_budget(self):
        rng = random.Random(31)
        for _ in range(40):
            t = random_tree(rng, rng.randint(2, 9))
            policy = strat_tree_log(t)
            assert policy.budget <= (t.n - 1).bit_length()
            sim = simulate_policy(t, policy)
            assert sim.captured

    @given(st.integers(0, 10**6), st.integers(2, 120), st.booleans())
    @settings(max_examples=60)
    def test_rounds_match_mask_oracle(self, seed, n, recursive):
        # the neighbour-tuple recursion gives the bitmask recursion's rounds, in order
        rng = random.Random(seed)
        t = random_recursive_tree(rng, n) if recursive else random_tree(rng, n)
        expected = [tuple(iter_bits(r)) for r in mask_log_rounds(t, (1 << n) - 1)]
        assert strat_tree_log(t).rounds == expected

    @pytest.mark.parametrize("spec", ["kary:3,5", "spider:5,5,5", "path:64"])
    def test_builds_no_bitmask_rows(self, spec):
        g = load_graph(spec)[0]
        strat_tree_log(g)
        assert Graph.adj_bits.fget.__wrapped__ not in g._store


class TestTreeDepth:
    def test_p5_root_at_end(self):
        g = generate("path", n=5)
        sched = strat_tree_depth(g, 0)
        assert sched.cops == 2
        assert run_schedule(g, sched).cleared

    def test_t28_budget_and_clears(self):
        g = generate("kary", k=2, d=8)
        sched = strat_tree_depth(g, 0)
        assert sched.cops == 3  # floor(8/4)+1; localization bound adds one
        assert run_schedule(g, sched).cleared

    def test_t33_single_cop(self):
        g = generate("kary", k=3, d=3)
        sched = strat_tree_depth(g, 0)
        assert sched.cops == 1
        assert run_schedule(g, sched).cleared

    def test_family_budget_law(self):
        for k in (2, 3):
            for d in range(1, 7):
                g = generate("kary", k=k, d=d)
                sched = strat_tree_depth(g, 0)
                assert sched.cops <= d // 4 + 1
                assert run_schedule(g, sched).cleared, (k, d)


def levels_of(g, root=0):
    _, children, depth = rooted_tree(g, root)
    return nonleaf_levels(children, depth)


def level_bound(g):
    """ceil(max nonleaf-per-level / 3) + 1, the level strategy's budget."""
    return -(-max(map(len, levels_of(g)), default=0) // 3) + 1


def test_tree_upper_bounds_are_the_strategy_budgets():
    rng = random.Random(53)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 14))
        order, depth, level = tree_upper_bounds(t, 0)
        assert order == math.ceil(math.log2(t.n)) == strat_tree_log(t).budget
        assert depth == max(bfs_distances(t, 0)) // 4 + 2
        assert level == level_bound(t) == strat_tree_levels(t, 0).cops


class TestTreeLevels:
    def test_nonleaf_levels_shape(self):
        g = generate("kary", k=3, d=3)
        assert [len(level) for level in levels_of(g)] == [3, 9, 0]

    def test_nonleaf_levels_against_bfs(self):
        rng = random.Random(45)
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 12))
            root = rng.randrange(t.n)
            dist = bfs_distances(t, root)
            expected = [[] for _ in range(max(dist))]
            for v, d in enumerate(dist):
                if d and len(t.nbrs[v]) >= 2:
                    expected[d - 1].append(v)
            assert levels_of(t, root) == expected

    def test_t32_at_midway(self):
        g = generate("kary", k=3, d=2)
        sched = strat_tree_levels(g, midway(g))
        assert sched.cops == 2
        assert run_schedule(g, sched).cleared

    def test_t33_budget_four(self):
        g = generate("kary", k=3, d=3)
        sched = strat_tree_levels(g, 0)
        assert sched.cops == 4
        assert run_schedule(g, sched).cleared

    def test_subdivided_t33_budget_ten(self):
        g = subdivide(generate("kary", k=3, d=3), 10)
        assert max(map(len, levels_of(g))) == 27
        sched = strat_tree_levels(g, 0)
        assert sched.cops == 10
        assert run_schedule(g, sched).cleared

    def test_random_trees_clear_within_budget(self):
        rng = random.Random(44)
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 9))
            sched = strat_tree_levels(t, 0)
            assert sched.cops == level_bound(t)
            assert run_schedule(t, sched).cleared

    def test_kary_family_clears_within_budget(self):
        for k in (2, 3):
            for d in range(1, 9):
                g = generate("kary", k=k, d=d)
                sched = strat_tree_levels(g, 0)
                assert sched.cops <= level_bound(g), (k, d)
                assert run_schedule(g, sched).cleared, (k, d)


TREE_BUILDERS = {
    "tree-depth": (strat_tree_depth, leaf_path_tree_depth),
    "tree-levels": (strat_tree_levels, regrouping_tree_levels),
}


class TestTreeSchedulesAgainstOracles:
    """Both tree schedule builders give the reference builders' file bytes, round by round."""

    @pytest.mark.parametrize("builder", sorted(TREE_BUILDERS))
    @given(st.integers(0, 10**6), st.integers(1, 80), st.booleans())
    @settings(max_examples=60)
    def test_random_trees_at_random_roots(self, builder, seed, n, recursive):
        rng = random.Random(seed)
        t = random_recursive_tree(rng, n) if recursive else random_tree(rng, n)
        root = rng.randrange(n)
        build, oracle = TREE_BUILDERS[builder]
        assert build(t, root).to_json() == oracle(t, root).to_json()

    @pytest.mark.parametrize("builder", sorted(TREE_BUILDERS))
    @pytest.mark.parametrize("spec", ["kary:3,5", "kary:3,3:sub10", "spider:1,2,7,3"])
    def test_named_trees_at_four_roots(self, builder, spec):
        g = load_graph(spec)[0]
        build, oracle = TREE_BUILDERS[builder]
        for root in (0, 1, g.n // 2, g.n - 1):
            assert build(g, root).to_json() == oracle(g, root).to_json(), root


class TestPathDecomposition:
    def test_k4_single_bag(self):
        g = generate("complete", n=4)
        bags = [(1 << g.n) - 1]
        assert validate_path_decomposition(g, bags) == []
        assert PathDecomposition(tuple(bags)).width == 3

    def test_p4_chain(self):
        g = generate("path", n=4)
        bags = [mask(0, 1), mask(1, 2), mask(2, 3)]
        assert validate_path_decomposition(g, bags) == []
        assert PathDecomposition(tuple(bags)).width == 1

    def test_interpolation_violation(self):
        g = generate("path", n=3)
        bags = [mask(0, 1), mask(1, 2), mask(0, 2)]
        violations = validate_path_decomposition(g, bags)
        assert any("(3)" in v for v in violations)

    def test_missing_edge_violation(self):
        g = generate("path", n=3)
        bags = [mask(0, 1), mask(2)]
        violations = validate_path_decomposition(g, bags)
        assert any("(2)" in v for v in violations)

    def test_brute_bags_are_normalized(self):
        # the one filter in brute_pathwidth leaves nothing for the reference
        # fixpoint to drop or trim, and every bag keeps a leaving vertex
        # beside one of its neighbors, which strat_pathwidth needs
        rng = random.Random(21)
        for trial in range(300):
            g = random_connected_graph(rng, rng.randint(1, 10), extra_edges=rng.randint(0, 6))
            pd = brute_pathwidth(g)
            assert normalize_path_decomposition(g, pd.bags) == pd, trial
            assert validate_path_decomposition(g, pd.bags) == [], trial
            bags = pd.bags
            for i, bag in enumerate(bags):
                if len(bags) == 1:
                    break
                leaving = bag & ~(bags[i + 1] if i + 1 < len(bags) else bags[i - 1])
                assert any(g.adj_bits[u] & bag for u in iter_bits(leaving)), (trial, i)

    def test_brute_widths(self):
        assert brute_pathwidth(generate("complete", n=4)).width == 3
        assert brute_pathwidth(generate("path", n=6)).width == 1
        assert brute_pathwidth(generate("cycle", n=5)).width == 2
        assert brute_pathwidth(generate("grid", n=3)).width == 3

    def test_brute_output_valid(self, corpus):
        for name, g in corpus[:12]:
            pd = brute_pathwidth(g)
            assert validate_path_decomposition(g, pd.bags) == [], name


class TestPathwidthStrategy:
    def test_k4(self):
        g = generate("complete", n=4)
        policy = strat_pathwidth(g)
        sim = simulate_policy(g, policy)
        assert policy.budget == 3
        assert sim.captured and sim.worst_capture_round == 1

    def test_p6(self):
        g = generate("path", n=6)
        policy = strat_pathwidth(g)
        assert policy.budget == 1
        assert simulate_policy(g, policy).captured

    def test_grid3(self):
        g = generate("grid", n=3)
        policy = strat_pathwidth(g)
        assert policy.budget == 3
        assert simulate_policy(g, policy).captured

    def test_certifies_upper_bound(self, corpus):
        for name, g in corpus:
            if g.n < 2 or g.n > 9:
                continue
            pd = brute_pathwidth(g)
            assert zeta_number(g) <= max(pd.width, 1), name


class TestDomination:
    def test_star(self):
        g = generate("spider", arms=[1] * 5)
        policy = strat_domination(g)
        assert policy.budget == 6  # domination number 1 plus max degree 5
        sim = simulate_policy(g, policy)
        assert sim.captured and sim.worst_capture_round <= 2

    def test_p4(self):
        g = generate("path", n=4)
        policy = strat_domination(g)
        assert policy.budget == 4
        assert simulate_policy(g, policy).captured

    def test_c6(self):
        g = generate("cycle", n=6)
        policy = strat_domination(g)
        assert policy.budget == 4
        assert simulate_policy(g, policy).captured

    def test_rejects_c4(self):
        with pytest.raises(UsageError):
            strat_domination(generate("grid", n=2))

    def test_min_dominating_sets(self):
        assert min_dominating_set(generate("spider", arms=[1] * 5)).bit_count() == 1
        assert min_dominating_set(generate("path", n=4)).bit_count() == 2
        assert min_dominating_set(generate("cycle", n=6)).bit_count() == 2


class TestSeparator:
    def test_brute_contract(self, corpus):
        rng = random.Random(5)
        for name, g in corpus[:10]:
            # the whole graph, then a region mask that need not be connected
            for region in ((1 << g.n) - 1, rng.getrandbits(g.n) | 1):
                a, b, c = balanced_separator_brute(g, region)
                assert (a | b | c) == region
                assert not (a & b or a & c or b & c)
                order = region.bit_count()
                assert 3 * a.bit_count() <= 2 * order and 3 * b.bit_count() <= 2 * order
                for v in iter_bits(a):
                    assert not (g.adj_bits[v] & b), (name, region)

    def test_p9(self):
        g = generate("path", n=9)
        sched = strat_separator(g)
        assert run_schedule(g, sched).cleared
        assert sched.cops <= 5

    @pytest.mark.parametrize("leaves", [17, 19])
    def test_star_beyond_sixteen_components(self, leaves):
        # G - {head} has one component per leaf; none may be skipped
        g = generate("spider", arms=[1] * leaves)
        assert balanced_separator_brute(g, (1 << g.n) - 1)[2] == mask(0)
        assert run_schedule(g, strat_separator(g)).cleared

    def test_split_matches_scan(self):
        rng = random.Random(7)
        for _ in range(400):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(0, 16))]
            comps, low = [], 0
            for size in sizes:
                comps.append(((1 << size) - 1) << low)
                low += size
            n = low + rng.randint(0, 4)
            assert _split_parts(comps, n) == split_parts_by_scan(comps, n), (sizes, n)

    def test_star_one_round(self):
        g = generate("spider", arms=[1] * 8)
        sched = strat_separator(g)
        assert run_schedule(g, sched).cleared

    def test_grid4(self):
        g = generate("grid", n=4)
        sched = strat_separator(g)
        assert run_schedule(g, sched).cleared


class TestLifts:
    def test_k4_delta(self):
        g = generate("complete", n=4)
        policy = lift_prox_to_zeta(g, ProbeSchedule.from_lists(1, [{0}]), variant="delta")
        assert policy.budget == 3
        sim = simulate_policy(g, policy)
        assert sim.captured

    def test_p6_delta(self):
        g = generate("path", n=6)
        sweep = ProbeSchedule.from_lists(1, [{1}, {2}, {3}, {4}])
        policy = lift_prox_to_zeta(g, sweep, variant="delta")
        assert policy.budget == 2
        assert simulate_policy(g, policy).captured

    def test_budget_law(self, corpus):
        for name, g in corpus[:8]:
            if g.n < 2:
                continue
            won, witness = prox_winnable(g, prox_number(g))
            policy = lift_prox_to_zeta(g, witness, variant="delta")
            assert policy.budget <= max_degree(g) * witness.cops, name

    def test_tree_lift_spider_standoff(self):
        # regression: a flag at the guard alone once looped forever between
        # the guarded head and the arms (ring pointer was not advancing)
        g = generate("spider", arms=[3, 3, 3])
        won, witness = prox_winnable(g, 1)
        policy = lift_prox_to_zeta(g, witness, variant="tree", root=0)
        sim = simulate_policy(g, policy)
        assert sim.captured
        assert policy.budget == 2

    def test_tree_lift_captures(self):
        rng = random.Random(17)
        for _ in range(25):
            t = random_tree(rng, rng.randint(2, 9))
            won, witness = prox_winnable(t, prox_number(t))
            root = rng.randrange(t.n)
            policy = lift_prox_to_zeta(t, witness, variant="tree", root=root)
            assert policy.budget == witness.cops + 1
            sim = simulate_policy(t, policy)
            assert sim.captured

    def test_unverified_schedule_rejected(self):
        # the lifts take the exact solver's witness: one that does not clear is an engine fault
        g = generate("path", n=6)
        bad = ProbeSchedule.from_lists(1, [{0}])
        with pytest.raises(AssertionError, match="does not win the one-proximity game"):
            lift_prox_to_zeta(g, bad, variant="delta")

    def test_tree_lift_spider555_pinned(self):
        g = generate("spider", arms=[5, 5, 5])
        policy = lift_prox_to_zeta(g, prox_solve(g)[1], variant="tree")
        sim = simulate_policy(g, policy)
        assert (sim.outcome, sim.worst_capture_round, sim.branches) == (
            "captured-all-branches", 28, 408)

    def test_losing_lifts_escape(self):
        # the lift loops forever: the robber revisits a (policy state, candidates)
        # pair, which is a finite escape witness, not a run to the round cap
        g = generate("path", n=9)
        policy = TreeLiftPolicy(g, ProbeSchedule.from_lists(1, [{4}]), 0)
        sim = simulate_policy(g, policy)
        assert sim.outcome == "escape-witness" and len(sim.escape_path) <= 8

    def test_tree_lift_toward(self):
        rng = random.Random(23)
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 12))
            policy = TreeLiftPolicy(t, ProbeSchedule.from_lists(1, [{0}]), rng.randrange(t.n))
            for u in range(t.n):
                dist = bfs_distances(t, u)
                for v in range(t.n):
                    if v != u:
                        hop = policy._toward(u, v)
                        assert hop in t.nbrs[u] and bfs_distances(t, hop)[v] == dist[v] - 1

