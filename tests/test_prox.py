import json
import random
from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from lzl.errors import SizeCapError, UsageError
import lzl.prox
from lzl.graphs import (
    Graph,
    closed_nb_bits,
    generate,
    iter_bits,
    mask_of,
    meet_tables,
    spread_tables,
    subdivide,
)
from lzl.gridsweep import clip_schedule, five_panel_schedule
from lzl.prox import (
    ProbeSchedule,
    ScheduleTrace,
    _clearable,
    _probe_candidates,
    _shift_steps,
    _sparse_steps,
    prox_number,
    prox_solve,
    prox_winnable,
    run_schedule,
    step_bits,
)
from lzl.strategies import (
    STRATEGY_REGISTRY,
    strat_separator,
    strat_tree_depth,
    strat_tree_levels,
    strat_tree_log,
)
from lzl.zeta import simulate_policy, zeta_number

from conftest import (
    cartesian_product,
    mask,
    random_connected_graph,
    random_recursive_tree,
    random_tree,
    symmetric_graphs,
)


class TestContaminationStep:
    def test_full_state_one_probe(self):
        g = generate("path", n=4)
        assert step_bits(g, (1 << g.n) - 1, mask(1)) == mask(3)

    def test_tail_probe_clears(self):
        g = generate("path", n=4)
        assert step_bits(g, mask(3), mask(2)) == mask()

    def test_empty_stays_empty(self):
        g = generate("cycle", n=5)
        assert step_bits(g, mask(), mask()) == mask()

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=40)
    def test_monotone_in_state(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        small = [v for v in range(n) if rng.random() < 0.4]
        extra = [v for v in range(n) if rng.random() < 0.4]
        probes = [v for v in range(n) if rng.random() < 0.3]
        s1 = mask_of(small)
        s2 = s1 | mask_of(extra)
        u = mask_of(probes)
        assert step_bits(g, s1, u) & ~step_bits(g, s2, u) == 0


class TestRunSchedule:
    def test_p4_interior_sweep(self):
        g = generate("path", n=4)
        trace = run_schedule(g, ProbeSchedule.from_lists(1, [{1}, {2}]))
        assert trace.cleared and trace.clear_round == 2

    def test_k4_single_probe(self):
        g = generate("complete", n=4)
        trace = run_schedule(g, ProbeSchedule.from_lists(1, [{0}]))
        assert trace.cleared and trace.clear_round == 1

    def test_p4_single_probe_fails(self):
        g = generate("path", n=4)
        sched = ProbeSchedule.from_lists(1, [{1}])
        trace = run_schedule(g, sched)
        assert not trace.cleared and trace.counts == [1]
        assert trace.first_recontamination_round is None
        assert list(_shift_steps(g, sched)) == [(1, False)]
        # the one survivor is the far end, vertex 3
        assert step_bits(g, (1 << g.n) - 1, mask_of(sched.rounds[0])) == 1 << 3

    def test_budget_enforced(self):
        with pytest.raises(UsageError):
            ProbeSchedule.from_lists(1, [{0, 1}])

    def test_path_sweep_family(self):
        # one cop sweeps the interior of any path up to order 10
        for n in range(2, 11):
            g = generate("path", n=n)
            rounds = [{v} for v in range(1, n - 1)] or [{0}]
            trace = run_schedule(g, ProbeSchedule.from_lists(1, rounds))
            assert trace.cleared, n

    def test_empty_rounds_spread_only(self):
        g = generate("path", n=5)
        sched = ProbeSchedule.from_lists(1, [{1}, set(), {1}])
        trace = run_schedule(g, sched)
        assert trace.counts[0] == 2  # {3,4} survive the first probe
        assert trace.counts[1] == 3  # spread pulls 2 back in
        assert trace.first_recontamination_round == 2

    def test_trace_diagnostics(self):
        g = generate("cycle", n=6)
        trace = run_schedule(g, ProbeSchedule.from_lists(1, [{0}, {1}, {2}]))
        assert trace.as_dict() == {
            "cleared": False,
            "clear_round": None,
            "per_round_contaminated": [3, 3, 3],
            "first_recontamination_round": 2,
        }

    @given(st.integers(0, 5000), st.integers(2, 8), st.integers(1, 3))
    @settings(max_examples=40)
    def test_incremental_matches_step_composition(self, seed, n, cops):
        """Dual route: the frontier engine equals direct step composition."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        rounds = [
            set(rng.sample(range(n), rng.randint(0, min(cops, n))))
            for _ in range(rng.randint(1, 8))
        ]
        sched = ProbeSchedule.from_lists(cops, rounds)
        trace = run_schedule(g, sched)
        state = (1 << g.n) - 1
        steps = []
        for r in rounds:
            new_state = step_bits(g, state, mask_of(r))
            steps.append((new_state.bit_count(), new_state & ~state != 0))
            state = new_state
        assert trace.counts == [size for size, _ in steps]
        for stepper in (_shift_steps, _sparse_steps):
            assert list(stepper(g, sched)) == steps, stepper.__name__

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=25)
    def test_schedule_monotone_in_start_state(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        rounds = [
            set(rng.sample(range(n), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 6))
        ]
        big = mask_of(v for v in range(n) if rng.random() < 0.7)
        small = mask_of(v for v in iter_bits(big) if rng.random() < 0.6)
        # the round _shift_steps runs, composed from two nested start states
        for r in rounds:
            small = step_bits(g, small, mask_of(r))
            big = step_bits(g, big, mask_of(r))
            assert small & ~big == 0
            if big == 0:
                assert small == 0


def _incremental_reference(g, schedule):
    """ScheduleTrace and per-round territories by per-vertex contaminated-neighbour
    counts, loop kernel, from every vertex."""
    adj = g.adj_bits
    s = (1 << g.n) - 1
    counts = [0] * g.n
    for v in iter_bits(s):
        for w in iter_bits(adj[v]):
            counts[w] += 1
    trace = ScheduleTrace(False, None, [], None)
    territories = []
    for t, probes in enumerate(schedule.rounds, start=1):
        probe_nb = 0
        for v in probes:
            probe_nb |= adj[v] | (1 << v)
        fringe = sum(1 << v for v in range(g.n) if counts[v])
        new_s = (s | fringe) & ~probe_nb
        for bits, delta in ((new_s & ~s, 1), (s & ~new_s, -1)):
            for v in iter_bits(bits):
                for w in iter_bits(adj[v]):
                    counts[w] += delta
        if new_s & ~s and trace.first_recontamination_round is None:
            trace.first_recontamination_round = t
        s = new_s
        territories.append(s)
        trace.counts.append(s.bit_count())
        if s == 0 and not trace.cleared:
            trace.cleared, trace.clear_round = True, t
    return trace, territories


def check_steppers(g, schedule):
    """Both steppers give the reference's per-round sizes and growth flags."""
    trace, territories = _incremental_reference(g, schedule)
    full = (1 << g.n) - 1
    grew = [t & ~prev != 0 for prev, t in zip([full] + territories, territories)]
    for stepper in (_shift_steps, _sparse_steps):
        assert list(stepper(g, schedule)) == list(zip(trace.counts, grew)), stepper.__name__


RUN_GRAPHS = {
    "path:9": generate("path", n=9),
    "cycle:10": generate("cycle", n=10),
    "grid:5": generate("grid", n=5),
    "torus:4x5": cartesian_product(generate("cycle", n=4), generate("cycle", n=5)),
    "kary:2,3": generate("kary", k=2, d=3),
    "complete:6": generate("complete", n=6),
    "kary:3,3:sub2": subdivide(generate("kary", k=3, d=3), 2),
    # wider than one machine word
    "tree:70": random_tree(random.Random(70), 70),
    "rand:70": random_connected_graph(random.Random(71), 70, extra_edges=30),
}

#: graphs of RUN_GRAPHS stepped on neighbor lists rather than shifts
NO_SHIFT_KERNEL = ("kary:2,3", "complete:6", "kary:3,3:sub2", "tree:70", "rand:70")


class TestRunScheduleAgainstReference:
    @pytest.mark.parametrize("n", range(2, 27))
    def test_grid_sweeps(self, n):
        g = generate("grid", n=n)
        sched = clip_schedule(five_panel_schedule(n), n)
        assert g.shifts is not None
        assert run_schedule(g, sched) == _incremental_reference(g, sched)[0]

    @pytest.mark.parametrize("name", sorted(RUN_GRAPHS))
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedules(self, name, seed):
        g = RUN_GRAPHS[name]
        rng = random.Random(seed)
        for _ in range(10):
            cops = rng.randint(1, 3)
            rounds = [
                set(rng.sample(range(g.n), rng.randint(0, cops)))
                for _ in range(rng.randint(1, 12))
            ]
            sched = ProbeSchedule.from_lists(cops, rounds)
            assert run_schedule(g, sched) == _incremental_reference(g, sched)[0]
            check_steppers(g, sched)

    @pytest.mark.parametrize("name", NO_SHIFT_KERNEL)
    def test_no_shift_kernel(self, name):
        assert RUN_GRAPHS[name].shifts is None

    @pytest.mark.parametrize("strategy, g", [
        (strat_tree_depth, generate("kary", k=3, d=4)),
        (strat_tree_depth, generate("kary", k=3, d=5)),
        (strat_tree_levels, subdivide(generate("kary", k=3, d=2), 5)),
        (strat_tree_levels, subdivide(generate("kary", k=3, d=3), 10)),
    ], ids=["depth-kary:3,4", "depth-kary:3,5", "levels-kary:3,2:sub5",
            "levels-kary:3,3:sub10"])
    def test_tree_schedules(self, strategy, g):
        assert g.shifts is None
        sched = strategy(g, 0)
        trace = run_schedule(g, sched)
        assert trace.cleared
        assert trace == _incremental_reference(g, sched)[0]

    @given(st.integers(0, 10**6), st.booleans(), st.integers(4, 200))
    @settings(max_examples=60)
    def test_hub_and_its_neighbors(self, seed, spider, n):
        """Rounds alternate between a hub and the hub's neighbors, so the
        vertices one round adds and the next removes share neighbors."""
        rng = random.Random(seed)
        if spider:
            legs = rng.randint(3, 8)
            g = generate("spider", arms=[rng.randint(1, max(1, (n - 1) // legs))
                                         for _ in range(legs)])
        else:
            g = random_tree(rng, n)
        nbrs = [list(iter_bits(row)) for row in g.adj_bits]
        hubs = [v for v in range(g.n) if 2 <= len(nbrs[v]) <= 8]
        rounds = []
        for _ in range(rng.randint(1, 15)):
            hub = rng.choice(hubs)
            rounds += [{hub}, set(nbrs[hub])]
            if rng.random() < 0.3:
                rounds.append(set())
        sched = ProbeSchedule.from_lists(max(map(len, rounds)), rounds)
        assert run_schedule(g, sched) == _incremental_reference(g, sched)[0]
        # a spider may step by shifts in run_schedule, so drive both steppers
        check_steppers(g, sched)

    @pytest.mark.parametrize("name", NO_SHIFT_KERNEL)
    def test_edge_cases(self, name):
        g = RUN_GRAPHS[name]
        probes = ProbeSchedule.from_lists(2, [{0}, {1, g.n - 1}, set(), {g.n // 2}])
        no_rounds = ProbeSchedule.from_lists(1, [])
        assert run_schedule(g, probes) == _incremental_reference(g, probes)[0]
        assert run_schedule(g, no_rounds) == _incremental_reference(g, no_rounds)[0]
        for sched in (probes, no_rounds):
            check_steppers(g, sched)

    def test_one_vertex_graph(self):
        g = Graph(1, [])  # an empty shift kernel: it steps by shifts
        for rounds in ([], [set()], [{0}], [set(), {0}]):
            sched = ProbeSchedule.from_lists(1, rounds)
            assert run_schedule(g, sched) == _incremental_reference(g, sched)[0]
            check_steppers(g, sched)


class TestSteppersAgree:
    """Both steppers run on graphs that have a shift kernel, so they can be compared."""

    @pytest.mark.parametrize("name", ["path:9", "cycle:10", "grid:5", "torus:4x5", "K1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_equals_shift(self, name, seed):
        g = Graph(1, []) if name == "K1" else RUN_GRAPHS[name]
        assert g.shifts is not None
        rng = random.Random(seed)
        for _ in range(10):
            rounds = [
                set(rng.sample(range(g.n), rng.randint(0, min(2, g.n))))
                for _ in range(rng.randint(0, 12))
            ]
            sched = ProbeSchedule.from_lists(2, rounds)
            assert list(_sparse_steps(g, sched)) == list(_shift_steps(g, sched))


class TestSolver:
    def test_complete_graphs_one_cop(self):
        for n in range(2, 7):
            assert prox_number(generate("complete", n=n)) == 1

    def test_paths_one_cop(self):
        for n in range(2, 11):
            assert prox_number(generate("path", n=n)) == 1

    def test_single_vertex_convention(self):
        assert prox_number(generate("complete", n=1)) == 0
        assert zeta_number(generate("complete", n=1)) == 0

    def test_spider333(self):
        g = generate("spider", arms=[3, 3, 3])
        value = prox_number(g)
        assert value == 1  # frozen from the exhaustive search
        assert value in (1, 2)
        z = zeta_number(g)
        assert z == 2 and value <= z <= value + 1

    def test_grid3_regression(self):
        assert prox_number(generate("grid", n=3)) == 1

    def test_cap(self):
        with pytest.raises(SizeCapError):
            prox_winnable(generate("grid", n=5), 2)

    def test_solve_refuses_before_any_search(self, monkeypatch):
        def searched(g, p):
            raise AssertionError("searched a graph over the cap")

        monkeypatch.setattr(lzl.prox, "prox_winnable", searched)
        with pytest.raises(SizeCapError):
            prox_solve(generate("complete", n=17))

    def test_witness_verifies(self, corpus):
        for name, g in corpus:
            if g.n < 2:
                continue
            p = prox_number(g)
            won, witness = prox_winnable(g, p)
            assert won, name
            trace = run_schedule(g, witness)
            assert trace.cleared, name
            assert witness.cops == p

    def test_monotone_in_cops(self, corpus):
        for name, g in corpus[:10]:
            p = prox_number(g)
            won, _ = prox_winnable(g, p + 1)
            assert won, name


def pairwise_candidates(g, territory):
    """Reference probe filter: compare the clearing sets N[v] & T of every
    pair of vertices; drop v when another's contains it, keeping the
    smallest id of equal sets."""
    keys = [(v, (g.adj_bits[v] | (1 << v)) & territory) for v in range(g.n)]
    keys = [(v, k) for v, k in keys if k]
    return [
        v for v, k in keys
        if not any(w != v and k & ~k2 == 0 and (k != k2 or w < v) for w, k2 in keys)
    ]


def probe_tables(g):
    """The closed rows and meet tables ``_probe_candidates`` reads."""
    return (spread_tables(g)[0], *meet_tables(g))


def twin_graph():
    """P4 0-1-2-3 with vertex 4 a true twin of 1 (N[4] = N[1]) and vertex 5
    a false twin of 3 (N(5) = N(3) = {2})."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (2, 5)])


class TestProbeCandidates:
    """The meet-based filter against the pairwise reference."""

    @given(st.integers(0, 10**6), st.integers(1, 16), st.integers(0, 12))
    @settings(max_examples=200)
    def test_random_graphs_and_territories(self, seed, n, extra):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=extra)
        tables = probe_tables(g)
        for _ in range(8):
            territory = mask_of(v for v in range(n) if rng.random() < rng.random())
            assert _probe_candidates(*tables, territory) == pairwise_candidates(g, territory)

    @pytest.mark.parametrize("name, g", [
        ("K1", Graph(1, [])),
        ("K2", generate("complete", n=2)),
        ("K5", generate("complete", n=5)),
        ("twins", twin_graph()),
        ("star5", generate("spider", arms=[1] * 5)),
        ("C6", generate("cycle", n=6)),
    ])
    def test_every_territory(self, name, g):
        tables = probe_tables(g)
        for territory in range(1 << g.n):
            assert _probe_candidates(*tables, territory) == pairwise_candidates(g, territory), (
                name, territory)

    def test_ties_keep_the_smallest_id(self):
        full = (1 << 5) - 1
        assert _probe_candidates(*probe_tables(generate("complete", n=5)), full) == [0]
        # the true twins 1 and 4 tie and 1 is kept; N[0] lies in N[1], N[3] and N[5] in N[2]
        assert _probe_candidates(*probe_tables(twin_graph()), (1 << 6) - 1) == [1, 2]

    def test_empty_territory(self):
        for g in (Graph(1, []), generate("complete", n=4), twin_graph()):
            assert _probe_candidates(*probe_tables(g), 0) == []


def covered_by_at_most(g, territory, k):
    """Reference clear test: some at most k closed neighbourhoods cover the territory."""
    rows = [g.adj_bits[v] | (1 << v) for v in range(g.n)]
    return any(
        territory & ~reduce(or_, (rows[v] for v in combo), 0) == 0
        for size in range(k + 1)
        for combo in combinations(range(g.n), size)
    )


class TestClearable:
    """The clear test that stops the search, against brute force."""

    @pytest.mark.parametrize("name, g", [
        ("K1", Graph(1, [])),
        ("twins", twin_graph()),
        ("C6", generate("cycle", n=6)),
        ("star5", generate("spider", arms=[1] * 5)),
        ("grid:3", generate("grid", n=3)),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_territory(self, name, g, k):
        rows = spread_tables(g)[0]
        near = [tuple(rows[v] for v in iter_bits(row)) for row in rows]
        low, high = meet_tables(g)
        for territory in range(1 << g.n):
            clear = _clearable(near, low, high, territory, k)
            assert clear == covered_by_at_most(g, territory, k), (name, territory)


def territory_keyed_bfs(g, p):
    """Reference solver: the breadth-first search keyed by the territory left
    after clearing, one state per mask, without merging equal spreads."""
    full = (1 << g.n) - 1
    parent = {full: None}
    frontier = deque([full])
    while frontier:
        s = frontier.popleft()
        territory = closed_nb_bits(g, s)
        cands = pairwise_candidates(g, territory)
        for size in range(1, p + 1):
            for combo in combinations(cands, size):
                probe_bits = 0
                for v in combo:
                    probe_bits |= 1 << v
                t = territory & ~closed_nb_bits(g, probe_bits)
                if t in parent:
                    continue
                parent[t] = (s, combo)
                if t == 0:
                    rounds = []
                    cur = 0
                    while parent[cur] is not None:
                        cur, probes = parent[cur]
                        rounds.append(probes)
                    rounds.reverse()
                    return True, ProbeSchedule.from_lists(p, rounds)
                frontier.append(t)
    return False, None


def assert_same_as_reference(g, p, name):
    won, witness = prox_winnable(g, p)
    ref_won, ref_witness = territory_keyed_bfs(g, p)
    assert won == ref_won, (name, p)
    if won:
        assert witness.to_json() == ref_witness.to_json(), (name, p)


# symmetric graphs, whose searches the automorphism quotient shortens most;
# the reference search takes about a second on the 16-vertex circulant
WITNESS_NAMES = (
    "petersen", "Q3", "K3,3", "prism:C6xK2", "cycle:12", "kary:2,3", "spider:3,3,3",
    "K6", "star:7", "grid:4", "torus:4x4", "spider:5,5,5", "cycle:16", "K4xK4", "shrikhande",
)
WITNESS_GRAPHS = {name: symmetric_graphs()[name][0] for name in WITNESS_NAMES}
SLOW_WITNESS_GRAPHS = {"circulant:16,1,4": symmetric_graphs()["circulant:16,1,4"][0]}


class TestSolverAgainstTerritoryKeyedSearch:
    def test_corpus(self, corpus):
        for name, g in corpus:
            for p in (1, 2, 3):
                assert_same_as_reference(g, p, name)

    @given(st.integers(0, 10**6), st.integers(9, 12), st.integers(0, 10), st.integers(1, 3))
    @settings(max_examples=60)
    def test_random_graphs_past_one_byte(self, seed, n, extra, p):
        """Orders 9..12 put probes in the high byte of the spread lookup."""
        g = random_connected_graph(random.Random(seed), n, extra_edges=extra)
        assert_same_as_reference(g, p, sorted(g.edges()))

    @pytest.mark.parametrize("name", sorted(WITNESS_GRAPHS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_witnesses(self, name, p):
        assert_same_as_reference(WITNESS_GRAPHS[name], p, name)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SLOW_WITNESS_GRAPHS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_slow_witnesses(self, name, p):
        assert_same_as_reference(SLOW_WITNESS_GRAPHS[name], p, name)

    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_at_every_budget(self, seed, n, extra):
        """Every p from 1 to prox1 + 1, the searches that fail, the one that
        first succeeds and one with a cop to spare, and at least up to 3,
        where the clear test branches twice and the search tries triples."""
        g = random_connected_graph(random.Random(seed), n, extra_edges=extra)
        for p in range(1, max(prox_number(g) + 1, 3) + 1):
            assert_same_as_reference(g, p, sorted(g.edges()))

    @pytest.mark.parametrize("name, graph, most", [
        ("grid:4", generate("grid", n=4), 30),
        ("C4xC4", cartesian_product(generate("cycle", n=4), generate("cycle", n=4)), 10),
    ])
    def test_stops_at_the_first_clearable_spread(self, monkeypatch, name, graph, most):
        """At p = 2, one candidate list per expanded state and one for the
        witness: 29 + 1 on grid:4 and 9 + 1 on C4xC4, where a search run on
        to the empty set expands 116 and 20 states."""
        expanded = []
        candidates = lzl.prox._probe_candidates

        def counted(*args):
            expanded.append(args[-1])
            return candidates(*args)

        monkeypatch.setattr(lzl.prox, "_probe_candidates", counted)
        won, _ = prox_winnable(graph, 2)
        assert won and len(expanded) <= most, (name, len(expanded))

    def test_spider555_tree_lift(self):
        g = generate("spider", arms=[5, 5, 5])
        assert prox_solve(g)[0] == 1
        kind, reads_root, build = STRATEGY_REGISTRY["lift-tree"]
        policy = build(g, 0)
        sim = simulate_policy(g, policy)
        assert kind == "policy" and reads_root and policy.budget == 2
        assert sim.captured and sim.worst_capture_round == 28


def unfiltered_clearable(g, p, budget_rounds, s_bits=None, memo=None):
    """Independent oracle: recursion over every probe subset, no filtering."""
    from itertools import combinations

    from lzl.prox import step_bits

    if s_bits is None:
        s_bits = (1 << g.n) - 1
        memo = {}
    if s_bits == 0:
        return True
    if budget_rounds == 0:
        return False
    key = (s_bits, budget_rounds)
    if key in memo:
        return memo[key]
    result = False
    for size in range(1, p + 1):
        for combo in combinations(range(g.n), size):
            u_bits = 0
            for v in combo:
                u_bits |= 1 << v
            if unfiltered_clearable(
                g, p, budget_rounds - 1, step_bits(g, s_bits, u_bits), memo
            ):
                result = True
                break
        if result:
            break
    memo[key] = result
    return result


class TestSolverAgainstUnfilteredSearch:
    def test_agreement_on_small_graphs(self):
        # validates the probe-domination filter against exhaustive probing
        rng = random.Random(2718)
        graphs = [
            generate("path", n=5),
            generate("cycle", n=5),
            generate("complete", n=4),
            generate("grid", n=2),
        ] + [random_connected_graph(rng, rng.randint(3, 6)) for _ in range(6)]
        for g in graphs:
            horizon = 2 ** g.n
            for p in (1, 2):
                won, _ = prox_winnable(g, p)
                assert won == unfiltered_clearable(g, p, horizon), (
                    sorted(g.edges()),
                    p,
                )


class TestScheduleJson:
    def test_roundtrip(self):
        sched = ProbeSchedule.from_lists(2, [{0, 2}, {1}])
        again = ProbeSchedule.from_json(sched.to_json(), 3)
        assert again.rounds == sched.rounds
        assert again.cops == sched.cops
        assert json.loads(sched.to_json()) == {"mode": "prox", "cops": 2, "rounds": [[1, 3], [2]]}

    def test_metadata_from_earlier_versions_is_ignored(self):
        text = json.dumps({
            "mode": "prox", "cops": 2, "rounds": [[1, 3], [2]],
            "metadata": {"strategy": "grid-sweep", "rounds_rc": [[[1, 1], [1, 3]], [[1, 2]]]},
        })
        assert ProbeSchedule.from_json(text, 3) == ProbeSchedule.from_lists(2, [{0, 2}, {1}])


def assert_ascending_tuples(rounds) -> None:
    for r in rounds:
        assert type(r) is tuple and list(r) == sorted(set(r)), r


def assert_canonical(sched: ProbeSchedule, n: int) -> None:
    """Every round is an ascending tuple of distinct ids, and the file form reads back equal."""
    assert_ascending_tuples(sched.rounds)
    assert ProbeSchedule.from_json(sched.to_json(), n) == sched


class TestCanonicalRounds:
    """Schedule rounds are ascending tuples of distinct ids, however they were made."""

    def test_from_lists_sorts_and_drops_repeats(self):
        sched = ProbeSchedule.from_lists(3, [[4, 1, 4], (2, 2), set(), iter([7, 5])])
        assert sched.rounds == ((1, 4), (2,), (), (5, 7))

    @given(st.integers(0, 10**6), st.integers(1, 80), st.booleans())
    @settings(max_examples=40)
    def test_tree_builders_at_random_roots(self, seed, n, recursive):
        rng = random.Random(seed)
        t = random_recursive_tree(rng, n) if recursive else random_tree(rng, n)
        root = rng.randrange(n)
        for build in (strat_tree_depth, strat_tree_levels):
            assert_canonical(build(t, root), n)
        if n > 1:
            assert_ascending_tuples(strat_tree_log(t).rounds)

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=30)
    def test_separator_and_prox_witness(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
        assert_canonical(strat_separator(g), n)
        assert_canonical(prox_solve(g)[1], n)

    @given(st.integers(2, 40))
    @settings(max_examples=20)
    def test_clip_schedule(self, n):
        # folded border probes can land on one vertex; each is kept once
        assert_canonical(clip_schedule(five_panel_schedule(n), n), n * n)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_from_json_any_order_and_repeats(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        rounds = [[rng.randint(1, n) for _ in range(rng.randint(0, 6))]
                  for _ in range(rng.randint(0, 8))]
        cops = max((len(set(r)) for r in rounds), default=1) or 1
        sched = ProbeSchedule.from_json(json.dumps({"cops": cops, "rounds": rounds}), n)
        assert sched.rounds == tuple(tuple(sorted({v - 1 for v in r})) for r in rounds)
        assert_canonical(sched, n)
