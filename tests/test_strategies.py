import random
from fractions import Fraction

import pytest

from lzl.errors import (
    GraphValidationError,
    SeparatorContractError,
    StrategyPreconditionError,
)
from lzl.graphs import (
    components_bits,
    distances,
    generate,
    iter_bits,
    mask_of,
    max_degree,
    subdivide,
)
from lzl.prox import ProbeSchedule, prox_number, prox_solve, prox_winnable, run_schedule
from lzl.strategies import (
    EndgameLiftPolicy,
    PathDecomposition,
    TreeLiftPolicy,
    _midway_bits,
    balanced_separator_brute,
    brute_pathwidth,
    level_decomposition,
    lift_prox_to_zeta,
    min_dominating_set,
    normalize_path_decomposition,
    strat_domination,
    strat_pathwidth,
    strat_separator,
    strat_tree_depth,
    strat_tree_levels,
    strat_tree_log,
    validate_path_decomposition,
)
from lzl.zeta import simulate_policy, zeta_number

from conftest import mask, random_tree


def midway(g):
    """The midway vertex of the whole tree ``g``."""
    return _midway_bits(g, (1 << g.n) - 1)


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
        with pytest.raises(GraphValidationError):
            strat_tree_log(generate("cycle", n=5))

    def test_component_bound(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_tree(rng, rng.randint(2, 9))
            v = midway(t)
            for comp in components_bits(t, ((1 << t.n) - 1) & ~(1 << v)):
                assert 2 * comp.bit_count() <= t.n


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


class TestTreeLevels:
    def test_decomposition_shape(self):
        g = generate("kary", k=3, d=3)
        ld = level_decomposition(g, 0)
        assert ld.depth == 3
        assert ld.nonleaf_counts == (3, 9, 0)
        assert ld.max_nonleaf == 9
        union = mask(0)
        for level in ld.levels:
            assert not union & level
            union = union | level
        assert union == (1 << g.n) - 1

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
        ld = level_decomposition(g, 0)
        assert ld.max_nonleaf == 27
        sched = strat_tree_levels(g, 0)
        assert sched.cops == 10
        assert run_schedule(g, sched).cleared

    def test_random_trees_clear_within_budget(self):
        rng = random.Random(44)
        for _ in range(30):
            t = random_tree(rng, rng.randint(1, 9))
            ld_bound = (
                -(-level_decomposition(t, 0).max_nonleaf // 3) + 1 if t.n > 1 else 1
            )
            sched = strat_tree_levels(t, 0)
            assert sched.cops == ld_bound
            assert run_schedule(t, sched).cleared

    def test_kary_family_clears_within_budget(self):
        for k in (2, 3):
            for d in range(1, 9):
                g = generate("kary", k=k, d=d)
                bound = -(-level_decomposition(g, 0).max_nonleaf // 3) + 1
                sched = strat_tree_levels(g, 0)
                assert sched.cops <= bound, (k, d)
                assert run_schedule(g, sched).cleared, (k, d)


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

    def test_normalization_drops_nested(self):
        g = generate("path", n=4)
        bags = [mask(0, 1), mask(0, 1), mask(1, 2), mask(2, 3)]
        pd = normalize_path_decomposition(g, bags)
        assert len(pd.bags) == 3

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
        policy = strat_pathwidth(g, brute_pathwidth(g))
        sim = simulate_policy(g, policy)
        assert policy.budget == 3
        assert sim.captured and sim.worst_capture_round == 1

    def test_p6(self):
        g = generate("path", n=6)
        policy = strat_pathwidth(g, brute_pathwidth(g))
        assert policy.budget == 1
        assert simulate_policy(g, policy).captured

    def test_grid3(self):
        g = generate("grid", n=3)
        policy = strat_pathwidth(g, brute_pathwidth(g))
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
        with pytest.raises(StrategyPreconditionError):
            strat_domination(generate("grid", n=2))

    def test_rejects_non_dominating(self):
        g = generate("path", n=5)
        with pytest.raises(StrategyPreconditionError):
            strat_domination(g, mask(0))

    def test_min_dominating_sets(self):
        assert min_dominating_set(generate("spider", arms=[1] * 5)).bit_count() == 1
        assert min_dominating_set(generate("path", n=4)).bit_count() == 2
        assert min_dominating_set(generate("cycle", n=6)).bit_count() == 2


class TestSeparator:
    def test_brute_contract(self, corpus):
        for name, g in corpus[:10]:
            a, b, c = balanced_separator_brute(g)
            assert (a | b | c) == (1 << g.n) - 1
            assert not (a & b or a & c or b & c)
            assert 3 * a.bit_count() <= 2 * g.n and 3 * b.bit_count() <= 2 * g.n
            for v in iter_bits(a):
                assert not (g.adj_bits[v] & b), name

    def test_p9_center_oracle(self):
        g = generate("path", n=9)

        def oracle(sub):
            if sub.n == 9:
                return mask_of(range(0, 4)), mask_of(range(5, 9)), mask(4)
            return balanced_separator_brute(sub)

        sched = strat_separator(g, oracle)
        assert run_schedule(g, sched).cleared
        assert sched.cops <= 5

    def test_star_one_round(self):
        g = generate("spider", arms=[1] * 8)
        sched = strat_separator(g)
        assert run_schedule(g, sched).cleared

    def test_grid4(self):
        g = generate("grid", n=4)
        sched = strat_separator(g)
        assert run_schedule(g, sched).cleared

    def test_oracle_contract_enforced(self):
        g = generate("path", n=9)

        def bad_oracle(sub):
            half = sub.n // 2
            return mask_of(range(half)), mask_of(range(half, sub.n)), mask()

        with pytest.raises(SeparatorContractError):
            strat_separator(g, bad_oracle)


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
        g = generate("path", n=6)
        bad = ProbeSchedule.from_lists(1, [{0}])
        with pytest.raises(StrategyPreconditionError):
            lift_prox_to_zeta(g, bad, variant="delta")

    def test_endgame_requires_budget(self):
        g = generate("path", n=6)
        sweep = ProbeSchedule.from_lists(1, [{1}, {2}, {3}, {4}])
        with pytest.raises(StrategyPreconditionError):
            lift_prox_to_zeta(g, sweep, variant="endgame")

    def test_endgame_lift_captures(self):
        # four cops reach max degree squared on a path; a flag at v brings
        # the distance-two ball around v, which pins the robber next round
        n = 24
        rounds = [{min(x + d, n - 1) for d in (0, 3, 6, 9)} for x in (1, 9, 17, 25)]
        g = generate("path", n=n)
        policy = lift_prox_to_zeta(
            g, ProbeSchedule.from_lists(4, rounds), variant="endgame"
        )
        sim = simulate_policy(g, policy)
        assert sim.outcome == "captured-all-branches"
        assert (sim.worst_capture_round, sim.branches) == (4, 59)


    def test_tree_lift_spider555_pinned(self):
        g = generate("spider", arms=[5, 5, 5])
        policy = lift_prox_to_zeta(g, prox_solve(g)[1], variant="tree")
        sim = simulate_policy(g, policy)
        assert (sim.outcome, sim.worst_capture_round, sim.branches) == (
            "captured-all-branches", 28, 408)

    def test_losing_lifts_escape(self):
        # both loop forever: the robber revisits a (policy state, candidates)
        # pair, which is a finite escape witness, not a run to the round cap
        g = generate("path", n=9)
        policy = TreeLiftPolicy(g, ProbeSchedule.from_lists(1, [{4}]), 0)
        sim = simulate_policy(g, policy)
        assert sim.outcome == "escape-witness" and len(sim.escape_path) <= 8
        g = generate("path", n=6)
        policy = EndgameLiftPolicy(g, ProbeSchedule.from_lists(4, [{0}, {5}]))
        sim = simulate_policy(g, policy)
        assert sim.outcome == "escape-witness" and len(sim.escape_path) <= 8

    def test_tree_lift_toward(self):
        rng = random.Random(23)
        for _ in range(20):
            t = random_tree(rng, rng.randint(2, 12))
            policy = TreeLiftPolicy(t, ProbeSchedule.from_lists(1, [{0}]), rng.randrange(t.n))
            for u in range(t.n):
                dist = distances(t, u)
                for v in range(t.n):
                    if v != u:
                        hop = policy._toward(u, v)
                        assert t.has_edge(u, hop) and distances(t, hop)[v] == dist[v] - 1

