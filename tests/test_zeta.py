import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lzl.errors import PolicyError, SizeCapError
from lzl.graphs import (
    FAMILIES,
    closed_nb_bits,
    generate,
    induced_subgraph,
    iter_bits,
    mask_of,
    max_degree,
)
from lzl.prox import prox_number
from lzl.zeta import (
    OUT_ADJ,
    OUT_NONE,
    OUT_ON,
    SchedulePolicy,
    _partition_bits,
    build_policy,
    observe,
    simulate_policy,
    zeta_number,
    zeta_winnable,
)

from conftest import mask, random_connected_graph, random_tree


class TestObserve:
    def test_adjacent(self):
        g = generate("path", n=3)
        assert observe(g, 1, mask(0)) == ("1",)

    def test_far(self):
        g = generate("path", n=3)
        assert observe(g, 2, mask(0)) == ("*",)

    def test_on_top(self):
        g = generate("cycle", n=5)
        assert observe(g, 3, mask(3)) == ("0",)

    def test_vector_order(self):
        g = generate("path", n=4)
        assert observe(g, 1, mask(0, 2, 3)) == ("1", "1", "*")


def partition(g, m_bits, probed):
    """The classes of ``_partition_bits`` as sorted tuples of vertices."""
    return sorted(tuple(iter_bits(c)) for c in _partition_bits(g, m_bits, probed))


class TestPartition:
    def test_p3_three_classes(self):
        g = generate("path", n=3)
        assert partition(g, (1 << g.n) - 1, (0,)) == [(0,), (1,), (2,)]

    def test_k4_two_classes(self):
        g = generate("complete", n=4)
        assert partition(g, (1 << g.n) - 1, (0,)) == [(0,), (1, 2, 3)]

    def test_p5_symmetry(self):
        g = generate("path", n=5)
        assert partition(g, (1 << g.n) - 1, (2,)) == [(0, 4), (1, 3), (2,)]

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=30)
    def test_classes_partition(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        m = mask_of([v for v in range(n) if rng.random() < 0.7] or [0])
        probed = tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
        union = 0
        for c in _partition_bits(g, m, probed):
            assert c
            assert not (union & c)
            union = union | c
        assert union == m


def observe_partition(g, m_bits, probed):
    """Reference partition: group the candidates by ``observe`` and order the
    classes by outcome vector, 0 < 1 < *, first probe first."""
    rank = {OUT_ON: 0, OUT_ADJ: 1, OUT_NONE: 2}
    groups = {}
    for x in iter_bits(m_bits):
        key = tuple(rank[o] for o in observe(g, x, mask_of(probed)))
        groups[key] = groups.get(key, 0) | (1 << x)
    return [groups[key] for key in sorted(groups)]


SMALL_FAMILY_PARAMS = {
    "path": [{"n": n} for n in (1, 2, 5, 8)],
    "cycle": [{"n": n} for n in (3, 6, 9)],
    "complete": [{"n": n} for n in (1, 4, 7)],
    "grid": [{"n": n} for n in (2, 3)],
    "kary": [{"k": 2, "d": 3}, {"k": 3, "d": 2}],
    "spider": [{"arms": [1, 2, 3]}, {"arms": [3, 3, 3]}],
}


class TestPartitionAgainstObserve:
    def test_every_family_is_covered(self):
        assert set(SMALL_FAMILY_PARAMS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(SMALL_FAMILY_PARAMS))
    def test_families(self, family):
        rng = random.Random(family)
        for params in SMALL_FAMILY_PARAMS[family]:
            g = generate(family, **params)
            full = (1 << g.n) - 1
            cases = [(full, (v,)) for v in range(g.n)] + [(full, ())]
            for _ in range(150):
                m = rng.randint(1, full)
                size = rng.randint(0, min(4, g.n))
                cases.append((m, tuple(sorted(rng.sample(range(g.n), size)))))
            for m, probed in cases:
                assert _partition_bits(g, m, probed) == observe_partition(g, m, probed), (
                    family, params, m, probed)

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=60)
    def test_random_graphs(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n))
        m = rng.randint(1, (1 << n) - 1)
        probed = tuple(sorted(rng.sample(range(n), rng.randint(0, min(5, n)))))
        assert _partition_bits(g, m, probed) == observe_partition(g, m, probed)


class TestFixpoint:
    def test_complete_graphs(self):
        for n in (3, 4, 5):
            g = generate("complete", n=n)
            assert zeta_number(g) == n - 1
            assert zeta_winnable(g, n - 1)
            assert not zeta_winnable(g, n - 2)

    @pytest.mark.parametrize("n", [11, 12])
    def test_complete_at_default_cap(self, n):
        # closed form n - 1; the largest complete graphs the default cap admits
        assert zeta_number(generate("complete", n=n)) == n - 1

    def test_p2_one_cop(self):
        assert zeta_winnable(generate("path", n=2), 1)

    def test_p3(self):
        assert zeta_number(generate("path", n=3)) == 1

    def test_spider(self):
        g = generate("spider", arms=[3, 3, 3])
        assert not zeta_winnable(g, 1)
        assert zeta_winnable(g, 2)
        assert zeta_number(g) == 2

    def test_cap(self):
        with pytest.raises(SizeCapError):
            zeta_winnable(generate("grid", n=4), 2)

    def test_monotone_in_k(self, corpus):
        for name, g in corpus[:12]:
            z = zeta_number(g)
            assert zeta_winnable(g, z + 1), name

    def test_order_cap(self, corpus):
        for name, g in corpus:
            assert zeta_number(g) <= g.n - 1, name


def branch_enumerate(g, rounds):
    """Independent oracle: explicit branch-tree walk for a fixed probe list.

    Returns True when every branch reaches a singleton candidate set before
    the rounds run out.
    """

    def walk(t, candidates):
        if candidates.bit_count() == 1:
            return True
        if t > len(rounds):
            return False
        moved = closed_nb_bits(g, candidates)
        groups = {}
        for x in iter_bits(moved):
            key = observe(g, x, mask_of(rounds[t - 1]))
            groups[key] = groups.get(key, 0) | (1 << x)
        return all(walk(t + 1, grp) for grp in groups.values())

    return walk(1, (1 << g.n) - 1)


class TestSimulate:
    def test_k4_probe_all_but_one(self):
        g = generate("complete", n=4)
        sim = simulate_policy(g, build_policy("probe-all-but-one", g))
        assert sim.captured and sim.worst_capture_round == 1

    def test_spider_arm_scan_escapes(self):
        g = generate("spider", arms=[3, 3, 3])
        sim = simulate_policy(g, build_policy("arm-scan", g))
        assert sim.outcome == "escape-witness"
        assert sim.escape_path  # first escape branch is exported

    def test_p5_interior_sweep_escapes(self):
        # frozen from explicit enumeration: probing v2,v3,v4 leaves the
        # candidate pairs {1,2} and {3,5} alive after round 3
        g = generate("path", n=5)
        sim = simulate_policy(g, build_policy("sweep", g))
        assert sim.outcome == "escape-witness"
        assert not branch_enumerate(g, [[1], [2], [3]])

    def test_p5_front_sweep_captures(self):
        g = generate("path", n=5)
        sim = simulate_policy(g, build_policy("front-sweep", g))
        assert sim.captured and sim.worst_capture_round == 3
        assert branch_enumerate(g, [[0], [1], [2], [3]])

    def test_idle_round_with_rounds_left_is_not_an_escape(self):
        g = generate("path", n=5)
        front = build_policy("front-sweep", g)
        idle_first = SchedulePolicy([set()] + front.rounds, budget=1)
        sim = simulate_policy(g, idle_first)
        assert sim.captured
        assert sim.worst_capture_round == simulate_policy(g, front).worst_capture_round + 1

    @pytest.mark.parametrize("cycle", [False, True])
    def test_all_idle_schedule_escapes(self, cycle):
        g = generate("path", n=5)
        sim = simulate_policy(g, SchedulePolicy([set(), set()], budget=1, cycle=cycle))
        assert sim.outcome == "escape-witness"

    def test_empty_cycle_escapes(self):
        g = generate("path", n=5)
        sim = simulate_policy(g, SchedulePolicy([], budget=1, cycle=True))
        assert sim.outcome == "escape-witness"

    def test_deep_capture_needs_no_recursion_limit(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("simulate_policy changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        g = generate("path", n=1500)
        sim = simulate_policy(g, build_policy("front-sweep", g), round_cap=3000)
        assert sim.captured and sim.worst_capture_round == 1498

    def test_escape_paths_pinned(self):
        def frame(t, probe, obs, cands):
            return {"round": t, "probes": [probe] if probe else [],
                    "observation": [obs] if obs else None, "candidates": cands}

        g = generate("path", n=5)
        sim = simulate_policy(g, build_policy("sweep", g))
        assert sim.escape_path == [
            frame(1, 2, "1", [1, 3]), frame(2, 3, "1", [2, 4]),
            frame(3, 4, "1", [3, 5]), frame(4, None, None, [2, 3, 4, 5]),
        ]
        g = generate("spider", arms=[3, 3, 3])
        sim = simulate_policy(g, build_policy("arm-scan", g))
        steps = [
            (2, "1", [1, 3]), (3, "1", [2, 4]), (4, "*", [1, 2]), (5, "*", [2, 3, 8]),
            (6, "*", [1, 2, 3, 4, 8, 9]), (7, "*", [1, 2, 3, 4, 5, 8, 9, 10]),
            (8, "1", [1, 9]), (9, "1", [8, 10]), (10, "*", [1, 8]), (2, "*", [5, 8, 9]),
            (3, "*", [1, 5, 6, 8, 9, 10]), (4, "*", [1, 2, 5, 6, 7, 8, 9, 10]),
            (5, "1", [1, 6]), (6, "1", [5, 7]), (7, "*", [1, 5]), (8, "*", [2, 5, 6]),
            (9, "*", [1, 2, 3, 5, 6, 7]), (10, "*", [1, 2, 3, 4, 5, 6, 7, 8]),
            (2, "1", [1, 3]),
        ]
        assert (sim.outcome, sim.branches) == ("escape-witness", 38)
        assert sim.escape_path == [frame(t, *step) for t, step in enumerate(steps, 1)]

    def test_budget_violation_raises(self):
        g = generate("path", n=4)
        policy = SchedulePolicy([{0, 1, 2}], budget=2)
        with pytest.raises(PolicyError):
            simulate_policy(g, policy)

    def test_simulation_agrees_with_oracle_on_paths(self):
        for n in range(2, 7):
            g = generate("path", n=n)
            rounds = [[v] for v in range(0, n - 1)]
            sim = simulate_policy(g, SchedulePolicy([set(r) for r in rounds], budget=1))
            assert sim.captured == branch_enumerate(g, rounds)

    def test_capture_certifies_winnability(self, corpus):
        for name, g in corpus[:10]:
            if g.n < 2:
                continue
            z = zeta_number(g)
            probe_all = SchedulePolicy(
                [set(range(g.n - 1))] * 2, budget=g.n - 1, name="probe-most"
            )
            sim = simulate_policy(g, probe_all)
            if sim.captured:
                assert zeta_winnable(g, g.n - 1), name
            assert z <= g.n - 1

    def test_capture_certificates_from_tree_strategy(self, corpus):
        # a policy capture at budget k is a zeta_winnable(G, k) certificate
        from lzl.strategies import strat_tree_log

        for name, g in corpus:
            if g.n < 2 or not g.is_tree():
                continue
            policy = strat_tree_log(g)
            sim = simulate_policy(g, policy)
            assert sim.captured, name
            assert zeta_winnable(g, policy.budget), name


def bounded_round_winnable(g, k, rounds_left, r_bits=None, memo=None):
    """Independent oracle: explicit alternating-game backward induction.

    Cops win from candidate set R within T rounds iff R is a singleton or
    some probe set splits N[R] into classes all winnable within T-1.  The
    fixpoint solver must agree once T is past the state-space bound.
    """
    from itertools import combinations

    from lzl.graphs import closed_nb_bits

    if r_bits is None:
        r_bits = (1 << g.n) - 1
        memo = {}
    if r_bits.bit_count() == 1:
        return True
    if rounds_left == 0:
        return False
    key = (r_bits, rounds_left)
    if key in memo:
        return memo[key]
    m_bits = closed_nb_bits(g, r_bits)
    result = False
    for size in range(1, k + 1):
        for probed in combinations(range(g.n), size):
            classes = observe_partition(g, m_bits, probed)
            if all(
                bounded_round_winnable(g, k, rounds_left - 1, c, memo)
                for c in classes
            ):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


class TestFixpointAgainstBackwardInduction:
    def test_agreement_on_small_graphs(self):
        rng = random.Random(314)
        graphs = [
            generate("path", n=4),
            generate("cycle", n=5),
            generate("complete", n=4),
            generate("spider", arms=[1, 1, 1]),
        ] + [random_connected_graph(rng, rng.randint(3, 5)) for _ in range(6)]
        for g in graphs:
            horizon = 2 ** g.n
            for k in (1, 2, 3):
                assert zeta_winnable(g, k) == bounded_round_winnable(
                    g, k, horizon
                ), (sorted(g.edges()), k)


class TestCrossSolverLaws:
    def test_relaxation_and_degree_lift(self, corpus):
        for name, g in corpus:
            if g.n < 2:
                continue
            p = prox_number(g)
            z = zeta_number(g)
            delta = max_degree(g)
            assert p <= z, name
            assert z <= delta * p, name
            if p >= delta * delta:
                assert z == p, name

    def test_equality_on_complete_graphs(self):
        for n in (3, 4, 5, 6):
            g = generate("complete", n=n)
            assert zeta_number(g) == max_degree(g) * prox_number(g)

    def test_tree_gap_one(self, corpus):
        for name, g in corpus:
            if g.n >= 2 and g.is_tree():
                p = prox_number(g)
                z = zeta_number(g)
                assert p <= z <= p + 1, name

    def test_subtree_monotone(self):
        rng = random.Random(99)
        for _ in range(25):
            t = random_tree(rng, rng.randint(4, 9))
            z = zeta_number(t)
            # grow a random connected subtree
            start = rng.randrange(t.n)
            sub_bits = 1 << start
            for _ in range(rng.randint(1, t.n - 1)):
                frontier = closed_nb_bits(t, sub_bits) & ~sub_bits
                if not frontier:
                    break
                picks = [v for v in range(t.n) if (frontier >> v) & 1]
                sub_bits |= 1 << rng.choice(picks)
            sub, _ = induced_subgraph(t, sub_bits)
            assert zeta_number(sub) <= z
