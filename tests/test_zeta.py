import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import lzl.graphs
import lzl.zeta
from lzl.errors import SizeCapError
from lzl.graphs import (
    FAMILIES,
    Graph,
    automorphism_generators,
    closed_nb_bits,
    generate,
    iter_bits,
    mask_of,
    max_degree,
    spread_tables,
    twin_classes,
)
from lzl.prox import prox_number, prox_solve
from lzl.strategies import lift_prox_to_zeta, strat_tree_log
from lzl.zeta import (
    POLICY_REGISTRY,
    ROUND_CAP,
    Policy,
    SchedulePolicy,
    SimulationResult,
    _partition_bits,
    _probe_rows,
    _probe_sets,
    simulate_policy,
    zeta_number,
    zeta_winnable,
)

from conftest import (
    circulant,
    induced_connected,
    mask,
    random_connected_graph,
    random_recursive_tree,
    random_tree,
    small_corpus,
    symmetric_graphs,
)


def outcomes(g, x, probed):
    """Reference observation of a robber on x: per probe v, in the given
    order, 0 if v is x, 1 if v is a neighbour of x, * otherwise."""
    return tuple("0" if v == x else "1" if x in g.nbrs[v] else "*" for v in probed)


class TestOutcomes:
    def test_adjacent(self):
        assert outcomes(generate("path", n=3), 1, (0,)) == ("1",)

    def test_far(self):
        assert outcomes(generate("path", n=3), 2, (0,)) == ("*",)

    def test_on_top(self):
        assert outcomes(generate("cycle", n=5), 3, (3,)) == ("0",)

    def test_vector_order(self):
        assert outcomes(generate("path", n=4), 1, (0, 2, 3)) == ("1", "1", "*")


def partition_bits(g, m_bits, probed):
    """``_partition_bits`` of the candidate mask under the probes ``probed`` of ``g``."""
    return _partition_bits(m_bits, _probe_rows(g.adj_bits, probed))


def partition(g, m_bits, probed):
    """The classes of ``_partition_bits`` as sorted tuples of vertices."""
    return sorted(tuple(iter_bits(c)) for c in partition_bits(g, m_bits, probed))


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
        for c in partition_bits(g, m, probed):
            assert c
            assert not (union & c)
            union = union | c
        assert union == m


def observe_partition(g, m_bits, probed):
    """Reference partition: group the candidates by ``outcomes`` and order the
    classes by outcome vector, 0 < 1 < *, first probe first."""
    rank = {"0": 0, "1": 1, "*": 2}
    groups = {}
    for x in iter_bits(m_bits):
        key = tuple(rank[o] for o in outcomes(g, x, probed))
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
                assert partition_bits(g, m, probed) == observe_partition(g, m, probed), (
                    family, params, m, probed)

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=60)
    def test_random_graphs(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n))
        m = rng.randint(1, (1 << n) - 1)
        probed = tuple(sorted(rng.sample(range(n), rng.randint(0, min(5, n)))))
        assert partition_bits(g, m, probed) == observe_partition(g, m, probed)

    @given(st.integers(0, 10**6), st.integers(1, 40))
    @settings(max_examples=60)
    def test_far_probes_change_nothing(self, seed, n):
        # a sparse candidate set on a sparse graph, so most probes miss N[v] & m
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, 3))
        m = mask_of(rng.sample(range(n), rng.randint(1, min(4, n))))
        probed = tuple(sorted(rng.sample(range(n), rng.randint(0, min(8, n)))))
        rows = _probe_rows(g.adj_bits, probed)
        near = [row for row in rows if row[2] & m]
        assert _partition_bits(m, rows) == _partition_bits(m, near)
        assert _partition_bits(m, rows) == observe_partition(g, m, probed)


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

    def test_twins_cut_probe_sets_to_prefixes(self):
        # K_n at V: one set per size, not 2^n - 1; on a smaller state the
        # twins split by side, each side probed from its lowest member up
        g = generate("complete", n=12)
        rows = [row | (1 << v) for v, row in enumerate(g.adj_bits)]
        twins = twin_classes(g)
        assert _probe_sets(rows, twins, (1 << 12) - 1, 11) == [tuple(range(s)) for s in range(1, 12)]
        g = generate("complete", n=4)
        rows = [row | (1 << v) for v, row in enumerate(g.adj_bits)]
        assert _probe_sets(rows, twin_classes(g), mask(0, 1), 2) == [
            (0,), (2,), (0, 1), (0, 2), (2, 3)]

    def test_tables_built_once_across_both_solvers(self, monkeypatch):
        # the spread tables (two byte tables), the image tables (two per
        # generator) and the twin classes outlive every solver call
        built, twins_read = [], []
        union_table, probe_sets = lzl.graphs._union_table, lzl.zeta._probe_sets

        def counted_union_table(rows):
            built.append(rows)
            return union_table(rows)

        def spied_probe_sets(rows, twins, m, k):
            twins_read.append((rows, twins))
            return probe_sets(rows, twins, m, k)

        monkeypatch.setattr(lzl.graphs, "_union_table", counted_union_table)
        monkeypatch.setattr(lzl.zeta, "_probe_sets", spied_probe_sets)
        g = generate("cycle", n=12)
        for _ in range(2):
            assert (zeta_number(g), prox_number(g)) == (2, 1)
            assert len(built) == 2 + 2 * len(automorphism_generators(g))
        rows, twins = spread_tables(g)[0], twin_classes(g)
        assert twins_read and all(r is rows and t is twins for r, t in twins_read)

    def test_zeta_number_refuses_a_loss_at_n_minus_1(self, monkeypatch):
        # n - 1 cops probing all but one vertex always win, so a solver
        # that says otherwise is at fault and no zeta1 is reported
        monkeypatch.setattr(lzl.zeta, "zeta_winnable", lambda g, k: False)
        with pytest.raises(AssertionError, match="unreachable"):
            zeta_number(generate("path", n=4))

    def test_values_past_the_cap(self, monkeypatch):
        # the global passes gave these values with the cap lifted
        monkeypatch.setattr(lzl.zeta, "ZETA_CAP", 16)
        cases = [
            (generate("grid", n=4), 3),
            (generate("spider", arms=[5, 5, 5]), 2),
            (generate("kary", k=2, d=3), 2),
            (generate("complete", n=16), 15),
        ]
        for g, z in cases:
            assert zeta_number(g) == z, (g.n, z)

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
            key = outcomes(g, x, rounds[t - 1])
            groups[key] = groups.get(key, 0) | (1 << x)
        return all(walk(t + 1, grp) for grp in groups.values())

    return walk(1, (1 << g.n) - 1)


class TestSimulate:
    def test_k4_probe_all_but_one(self):
        g = generate("complete", n=4)
        sim = simulate_policy(g, POLICY_REGISTRY["probe-all-but-one"](g))
        assert sim.captured and sim.worst_capture_round == 1

    def test_spider_arm_scan_escapes(self):
        g = generate("spider", arms=[3, 3, 3])
        sim = simulate_policy(g, POLICY_REGISTRY["arm-scan"](g))
        assert sim.outcome == "escape-witness"
        assert sim.escape_path  # first escape branch is exported

    def test_p5_interior_sweep_escapes(self):
        # frozen from explicit enumeration: probing v2,v3,v4 leaves the
        # candidate pairs {1,2} and {3,5} alive after round 3
        g = generate("path", n=5)
        sim = simulate_policy(g, POLICY_REGISTRY["sweep"](g))
        assert sim.outcome == "escape-witness"
        assert not branch_enumerate(g, [[1], [2], [3]])

    def test_p5_front_sweep_captures(self):
        g = generate("path", n=5)
        sim = simulate_policy(g, POLICY_REGISTRY["front-sweep"](g))
        assert sim.captured and sim.worst_capture_round == 3
        assert branch_enumerate(g, [[0], [1], [2], [3]])

    def test_idle_round_with_rounds_left_is_not_an_escape(self):
        g = generate("path", n=5)
        front = POLICY_REGISTRY["front-sweep"](g)
        idle_first = SchedulePolicy([set()] + front.rounds, budget=1)
        sim = simulate_policy(g, idle_first)
        assert sim.captured
        assert sim.worst_capture_round == simulate_policy(g, front).worst_capture_round + 1

    @pytest.mark.parametrize("g,name", [
        (generate("path", n=5), "sweep"),
        (generate("spider", arms=[3, 3, 3]), "sweep"),
        (generate("spider", arms=[3, 3, 3]), "front-sweep"),
        (generate("cycle", n=6), "front-sweep"),
    ], ids=["path:5-sweep", "spider:3,3,3-sweep", "spider:3,3,3-front-sweep",
            "cycle:6-front-sweep"])
    def test_finished_schedule_escape_ends_on_a_repeat(self, g, name):
        # after its last round the schedule rests in one idle state, so a
        # losing play ends when two idle rounds see the same candidates
        policy = POLICY_REGISTRY[name](g)
        sim = simulate_policy(g, policy)
        assert sim.outcome == "escape-witness"
        last, before = sim.escape_path[-1], sim.escape_path[-2]
        assert last["probes"] == before["probes"] == []
        assert last["candidates"] == before["candidates"]
        assert last["round"] > len(policy.rounds)

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
        sim = simulate_policy(g, POLICY_REGISTRY["front-sweep"](g), round_cap=3000)
        assert sim.captured and sim.worst_capture_round == 1498

    def test_escape_paths_pinned(self):
        def frame(t, probe, obs, cands):
            return {"round": t, "probes": [probe] if probe else [],
                    "observation": [obs] if obs else None, "candidates": cands}

        g = generate("path", n=5)
        sim = simulate_policy(g, POLICY_REGISTRY["sweep"](g))
        assert sim.escape_path == [
            frame(1, 2, "1", [1, 3]), frame(2, 3, "1", [2, 4]),
            frame(3, 4, "1", [3, 5]), frame(4, None, None, [2, 3, 4, 5]),
            frame(5, None, None, [1, 2, 3, 4, 5]), frame(6, None, None, [1, 2, 3, 4, 5]),
        ]
        g = generate("spider", arms=[3, 3, 3])
        sim = simulate_policy(g, POLICY_REGISTRY["arm-scan"](g))
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
        with pytest.raises(AssertionError, match="round 1: policy .* probes 3 vertices, budget is 2"):
            simulate_policy(g, policy)

    def test_budget_violation_first_reached_in_round_two(self):
        # probing v1 leaves the class {v3, v4}, whose next state is over budget
        g = generate("path", n=4)
        policy = SchedulePolicy([{0}, {0, 1, 2}], budget=2)
        with pytest.raises(AssertionError, match="round 2: policy .* probes 3 vertices, budget is 2"):
            simulate_policy(g, policy)

    def test_probes_asked_once_per_state(self):
        g = random_recursive_tree(random.Random(5), 200)
        policy = strat_tree_log(g)
        asked = Counter()

        class Counting(Policy):
            name, budget = policy.name, policy.budget

            def initial_state(self):
                return policy.initial_state()

            def probes(self, state):
                asked[state] += 1
                return policy.probes(state)

            def advance(self, state, flagged):
                return policy.advance(state, flagged)

        sim = simulate_policy(g, Counting())
        assert sim == simulate_policy(g, policy) and sim.captured
        # many states are visited more than once, yet each is asked once
        assert set(asked.values()) == {1}

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
        for name, g in corpus:
            if g.n < 2 or not g.is_tree():
                continue
            policy = strat_tree_log(g)
            sim = simulate_policy(g, policy)
            assert sim.captured, name
            assert zeta_winnable(g, policy.budget), name


def split_oracle(g, m_bits, probed):
    """Three-way refinement of every class by every probe, none left whole."""
    classes = [m_bits]
    for v in probed:
        on, nb = 1 << v, g.adj_bits[v]
        classes = [
            part
            for c in classes
            for part in (c & on, c & nb, c & ~(nb | on))
            if part
        ]
    return classes


# the oracle's own round verdicts, mapped to outcomes once at the end
_CAPTURED, _ESCAPE, _CAP = 0, 1, 2


def simulate_oracle(g, policy, *, round_cap=400):
    """The branch simulator without its shortcuts: N[R] is computed on every
    visit, a sub-round already in the memo is still started and returns the
    stored worst round, and each class's flags and escape frame are read
    off the reference ``outcomes`` of its lowest candidate."""
    if g.n == 1:
        return SimulationResult("captured-all-branches", 0, 1)
    memo = {}
    onpath = set()
    branches = 0

    def run(t, state, r_bits):
        nonlocal branches
        if t > round_cap:
            return _CAP, None, []
        key = (t, state, r_bits)
        if key in memo:
            return _CAPTURED, memo[key], None
        m_bits = closed_nb_bits(g, r_bits)
        probe_set = policy.probes(state)
        if len(probe_set) > policy.budget:
            raise AssertionError("over budget")
        probed = tuple(sorted(probe_set))
        worst = 0
        for cls in split_oracle(g, m_bits, probed):
            branches += 1
            if not cls & (cls - 1):
                worst = max(worst, t)
                continue
            rep = (cls & -cls).bit_length() - 1
            seen = outcomes(g, rep, probed)
            flags = mask_of(v for v, o in zip(probed, seen) if o == "1")
            nstate = policy.advance(state, flags)
            frame = {"round": t, "probes": [v + 1 for v in probed],
                     "observation": list(seen) if probed else None,
                     "candidates": [v + 1 for v in iter_bits(cls)]}
            node = (nstate, cls)
            if node in onpath:
                return _ESCAPE, None, [frame]
            onpath.add(node)
            verdict, sub_worst, path = yield t + 1, nstate, cls
            onpath.discard(node)
            if verdict != _CAPTURED:
                return verdict, None, [frame] + path
            worst = max(worst, sub_worst)
        memo[key] = worst
        return _CAPTURED, worst, None

    stack = [run(1, policy.initial_state(), (1 << g.n) - 1)]
    result = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(run(*child))
            result = None
    verdict, worst, path = result
    if verdict == _CAPTURED:
        return SimulationResult("captured-all-branches", worst, branches)
    if verdict == _ESCAPE:
        return SimulationResult("escape-witness", None, branches, path)
    return SimulationResult("cap-exceeded", None, branches, path)


def assert_same_as_oracle(g, policy, **kw):
    got = simulate_policy(g, policy, **kw)
    assert got == simulate_oracle(g, policy, **kw)
    return got


ORACLE_GRAPHS = {
    "path:2": generate("path", n=2),
    "path:5": generate("path", n=5),
    "path:9": generate("path", n=9),
    "cycle:3": generate("cycle", n=3),
    "cycle:6": generate("cycle", n=6),
    "cycle:9": generate("cycle", n=9),
    "spider:1,2,3": generate("spider", arms=[1, 2, 3]),
    "spider:3,3,3": generate("spider", arms=[3, 3, 3]),
    "spider:5,5,5": generate("spider", arms=[5, 5, 5]),
}


class TestSimulateAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_tree_log_on_random_recursive_trees(self, seed):
        rng = random.Random(seed)
        for n in (rng.randint(2, 40), rng.randint(40, 300)):
            g = random_recursive_tree(rng, n)
            assert assert_same_as_oracle(g, strat_tree_log(g)).outcome == (
                "captured-all-branches")

    @pytest.mark.parametrize("variant", ["tree", "delta"])
    @pytest.mark.parametrize("graph", [
        generate("spider", arms=[3, 3, 3]),
        generate("spider", arms=[5, 5, 5]),
        generate("spider", arms=[1, 2, 4, 4]),
        generate("kary", k=2, d=3),
    ], ids=["spider:3,3,3", "spider:5,5,5", "spider:1,2,4,4", "kary:2,3"])
    def test_lifts(self, variant, graph):
        policy = lift_prox_to_zeta(graph, prox_solve(graph)[1], variant=variant)
        assert_same_as_oracle(graph, policy)

    @pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_registry_policies(self, policy, name):
        g = ORACLE_GRAPHS[name]
        assert_same_as_oracle(g, POLICY_REGISTRY[policy](g))

    def test_registry_gives_escape_witnesses(self):
        escapes = [
            (name, policy)
            for name, g in ORACLE_GRAPHS.items()
            for policy in POLICY_REGISTRY
            if simulate_policy(g, POLICY_REGISTRY[policy](g)).escape_path
        ]
        assert len(escapes) >= 10

    @pytest.mark.parametrize("round_cap", [1, 2, 3, 5, 8])
    def test_cap_exceeded(self, round_cap):
        rng = random.Random(round_cap)
        g = random_recursive_tree(rng, 60)
        got = assert_same_as_oracle(g, strat_tree_log(g), round_cap=round_cap)
        assert got.outcome == "cap-exceeded"
        got = assert_same_as_oracle(
            g, POLICY_REGISTRY["front-sweep"](g), round_cap=round_cap)
        assert got.outcome in ("cap-exceeded", "escape-witness")


class TestEscapeFrames:
    def test_observation_is_the_outcome_of_every_candidate(self, corpus):
        # a frame's class holds no probed vertex (a probe on the robber
        # splits it off as a capture), so its observation never reads 0 and
        # is what each of its candidates shows the probes
        shown = Counter()
        for name, g in corpus:
            witness = prox_solve(g)[1]
            runs = [(POLICY_REGISTRY[p](g), ROUND_CAP) for p in sorted(POLICY_REGISTRY)]
            runs.append((lift_prox_to_zeta(g, witness, variant="delta"), ROUND_CAP))
            if g.is_tree():
                runs.append((lift_prox_to_zeta(g, witness, variant="tree"), ROUND_CAP))
                runs += [(strat_tree_log(g), cap) for cap in range(1, 9)]
            for policy, cap in runs:
                for frame in simulate_policy(g, policy, round_cap=cap).escape_path or ():
                    probed = [v - 1 for v in frame["probes"]]
                    observation = frame["observation"]
                    assert (observation is None) == (not probed), (name, policy.name, frame)
                    observation = tuple(observation or ())
                    assert "0" not in observation, (name, policy.name, frame)
                    for x in frame["candidates"]:
                        assert outcomes(g, x - 1, probed) == observation, (name, policy.name, frame)
                    shown.update(observation)
        assert shown["1"] and shown["*"]


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


def unquotiented_zeta_winnable(g, k):
    """Reference fixpoint by global passes: every distinct N[R] of a
    non-singleton R is evaluated on its own with every probe set of size
    <= k, in popcount order, until a pass wins nothing."""
    if g.n == 1:
        return True
    full = (1 << g.n) - 1
    nr = [closed_nb_bits(g, r) for r in range(full + 1)]
    probe_sets = [combo for size in range(1, k + 1) for combo in combinations(range(g.n), size)]
    won = bytearray(full + 1)
    pending = sorted({nr[r] for r in range(1, full + 1) if r & (r - 1)}, key=int.bit_count)
    while not won[full]:
        still = []
        for m in pending:
            for probed in probe_sets:
                if all(not c & (c - 1) or won[nr[c]] for c in partition_bits(g, m, probed)):
                    won[m] = 1
                    break
            else:
                still.append(m)
        if len(still) == len(pending):
            break
        pending = still
    return bool(won[full])


ZETA_SYMMETRIC = {
    **{name: symmetric_graphs()[name][0] for name in (
        "cycle:12", "petersen", "Q3", "K3,3", "grid:3", "spider:3,3,3", "kary:2,2", "K2,5",
        "K6", "K2,2,2", "star:7")},
    # many pairs here wait on an orbit member other than the first, so a win
    # must recheck the pairs of every member (on (2, 3) a win that rechecked
    # the first member's alone would lose k = 3)
    "circulant:10,1,3": circulant(10, (1, 3)),
    "circulant:10,2,3": circulant(10, (2, 3)),
}


def clone_twins(rng, g, count):
    """``g`` with ``count`` new vertices, each an open twin (equal N(v)) or a
    closed twin (equal N[v]) of a random earlier vertex."""
    rows = list(g.adj_bits)
    for _ in range(count):
        v, w = rng.randrange(len(rows)), len(rows)
        row = rows[v] | (1 << v if rng.random() < 0.5 else 0)
        rows.append(row)
        for u in iter_bits(row):
            rows[u] |= 1 << w
    return Graph(len(rows), [(u, w) for w, row in enumerate(rows) for u in iter_bits(row) if u < w])


def relabel(g, perm):
    """``g`` with vertex v renamed ``perm[v]``."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestFixpointAgainstUnquotiented:
    @pytest.mark.parametrize("name", ZETA_SYMMETRIC)
    def test_symmetric_graphs_at_every_k(self, name):
        g = ZETA_SYMMETRIC[name]
        for k in range(1, g.n):
            assert zeta_winnable(g, k) == unquotiented_zeta_winnable(g, k), (name, k)

    def test_complete_graph_at_every_k(self):
        g = generate("complete", n=9)
        for k in range(1, g.n):
            assert zeta_winnable(g, k) == unquotiented_zeta_winnable(g, k) == (k == 8), k

    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(0, 8), st.integers(1, 3))
    @settings(max_examples=60)
    def test_random_graphs(self, seed, n, extra, k):
        g = random_connected_graph(random.Random(seed), n, extra_edges=extra)
        assert zeta_winnable(g, k) == unquotiented_zeta_winnable(g, k), sorted(g.edges())

    def test_a_win_that_needs_a_probe_outside_the_state(self):
        # two cops win, but not if each state may probe only its own
        # vertices: some win probes a vertex outside the state whose N[v]
        # meets it (found by a random search)
        edges = [(0, 2), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
                 (2, 6), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
        g = Graph(8, edges)
        assert zeta_winnable(g, 2) and unquotiented_zeta_winnable(g, 2)
        assert not zeta_winnable(g, 1)

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 8), st.integers(1, 3),
           st.integers(1, 3))
    @settings(max_examples=60)
    def test_random_graphs_with_cloned_twins(self, seed, n, extra, clones, k):
        # the probe-set skip acts on twins, which random graphs seldom hold
        rng = random.Random(seed)
        g = clone_twins(rng, random_connected_graph(rng, n, extra_edges=extra), clones)
        assert g.n <= 11
        assert zeta_winnable(g, k) == unquotiented_zeta_winnable(g, k), sorted(g.edges())


class TestZetaNumberInvariance:
    def test_relabelling(self):
        # twin order, orbit representatives and the search order follow the
        # labels, and the value must not
        rng = random.Random(24)
        named = [(name, g) for name, (g, _) in symmetric_graphs().items() if g.n <= 12]
        for name, g in small_corpus() + named:
            z = zeta_number(g)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert zeta_number(relabel(g, perm)) == z, (name, perm)


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
            assert zeta_number(induced_connected(t, sub_bits)) <= z
