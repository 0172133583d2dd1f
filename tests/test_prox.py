import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lzl.errors import ScheduleError, SizeCapError
from lzl.graphs import Graph, closed_nb_bits, generate, iter_bits, mask_of, subdivide
from lzl.gridsweep import clip_schedule, five_panel_schedule
from lzl.prox import (
    ProbeSchedule,
    ScheduleTrace,
    _probe_candidates,
    _shift_steps,
    _sparse_steps,
    prox_number,
    prox_solve,
    prox_winnable,
    run_schedule,
    step_bits,
)
from lzl.strategies import STRATEGY_REGISTRY, strat_tree_depth, strat_tree_levels
from lzl.zeta import simulate_policy, zeta_number

from conftest import cartesian_product, mask, random_connected_graph, random_tree


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
        trace = run_schedule(g, ProbeSchedule.from_lists(1, [{1}]))
        assert not trace.cleared
        assert trace.final_bits == 1 << 3

    def test_budget_enforced(self):
        with pytest.raises(ScheduleError):
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
        sched = ProbeSchedule.from_lists(2, [{0, 3}, {1, 4}, {2, 5}])
        trace = run_schedule(g, sched)
        assert trace.max_contamination == 6
        assert len(trace.counts) == 3

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
        for t, r in enumerate(rounds, start=1):
            state = step_bits(g, state, mask_of(r))
            assert trace.counts[t - 1] == state.bit_count()
        assert trace.final_bits == state

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=25)
    def test_schedule_monotone_in_start_state(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        rounds = [
            set(rng.sample(range(n), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 6))
        ]
        sched = ProbeSchedule.from_lists(2, rounds)
        big = [v for v in range(n) if rng.random() < 0.7]
        small = [v for v in big if rng.random() < 0.6]
        tr_small = run_schedule(g, sched, initial=mask_of(small))
        tr_big = run_schedule(g, sched, initial=mask_of(big))
        assert tr_small.final_bits & ~tr_big.final_bits == 0
        if tr_big.cleared:
            assert tr_small.cleared


def _incremental_reference(g, schedule, initial=None):
    """ScheduleTrace by per-vertex contaminated-neighbour counts, loop kernel."""
    adj = g.adj_bits
    s = initial if initial is not None else (1 << g.n) - 1
    counts = [0] * g.n
    for v in iter_bits(s):
        for w in iter_bits(adj[v]):
            counts[w] += 1
    trace = ScheduleTrace(False, None, [], s.bit_count(), None, s)
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
        trace.counts.append(s.bit_count())
        trace.max_contamination = max(trace.max_contamination, s.bit_count())
        if s == 0 and not trace.cleared:
            trace.cleared, trace.clear_round = True, t
    trace.final_bits = s
    return trace


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
        assert run_schedule(g, sched) == _incremental_reference(g, sched)

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
            initial = mask_of(v for v in range(g.n) if rng.random() < 0.4)
            assert run_schedule(g, sched) == _incremental_reference(g, sched)
            assert run_schedule(g, sched, initial=initial) == _incremental_reference(
                g, sched, initial
            )

    @pytest.mark.parametrize("name", NO_SHIFT_KERNEL)
    def test_no_shift_kernel(self, name):
        assert RUN_GRAPHS[name].shifts is None

    @pytest.mark.parametrize("strategy, g", [
        (strat_tree_depth, generate("kary", k=3, d=4)),
        (strat_tree_levels, subdivide(generate("kary", k=3, d=2), 5)),
    ], ids=["depth-kary:3,4", "levels-kary:3,2:sub5"])
    def test_tree_schedules(self, strategy, g):
        assert g.shifts is None
        sched = strategy(g, 0)
        trace = run_schedule(g, sched)
        assert trace.cleared
        assert trace == _incremental_reference(g, sched)

    @pytest.mark.parametrize("name", NO_SHIFT_KERNEL)
    def test_edge_cases(self, name):
        g = RUN_GRAPHS[name]
        probes = ProbeSchedule.from_lists(2, [{0}, {1, g.n - 1}, set(), {g.n // 2}])
        no_rounds = ProbeSchedule.from_lists(1, [])
        assert run_schedule(g, probes, initial=0) == _incremental_reference(g, probes, 0)
        assert run_schedule(g, no_rounds) == _incremental_reference(g, no_rounds)
        assert run_schedule(g, no_rounds, initial=0) == _incremental_reference(
            g, no_rounds, 0
        )

    def test_one_vertex_graph(self):
        g = Graph(1, [])  # an empty shift kernel: it steps by shifts
        for rounds in ([], [set()], [{0}], [set(), {0}]):
            sched = ProbeSchedule.from_lists(1, rounds)
            for initial in (None, 0, 1):
                assert run_schedule(g, sched, initial=initial) == _incremental_reference(
                    g, sched, initial
                )


def drain(steps):
    """The (size, grew) pairs a stepper yields, and the final mask it returns."""
    out = []
    while True:
        try:
            out.append(next(steps))
        except StopIteration as done:
            return out, done.value


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
            s = mask_of(v for v in range(g.n) if rng.random() < 0.5)
            assert drain(_sparse_steps(g, sched, s)) == drain(_shift_steps(g, sched, s))


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


def territory_keyed_bfs(g, p):
    """Reference solver: the breadth-first search keyed by the territory left
    after clearing, one state per mask, without merging equal spreads."""
    full = (1 << g.n) - 1
    parent = {full: None}
    frontier = deque([full])
    while frontier:
        s = frontier.popleft()
        territory = closed_nb_bits(g, s)
        cands = _probe_candidates(g, territory)
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
                    return True, ProbeSchedule.from_lists(p, rounds, metadata={"solver": "bfs"})
                frontier.append(t)
    return False, None


def assert_same_as_reference(g, p, name):
    won, witness = prox_winnable(g, p)
    ref_won, ref_witness = territory_keyed_bfs(g, p)
    assert won == ref_won, (name, p)
    if won:
        assert witness.to_json() == ref_witness.to_json(), (name, p)


WITNESS_GRAPHS = {
    "grid:4": generate("grid", n=4),
    "torus:4x4": cartesian_product(generate("cycle", n=4), generate("cycle", n=4)),
    "spider:5,5,5": generate("spider", arms=[5, 5, 5]),
}


class TestSolverAgainstTerritoryKeyedSearch:
    def test_corpus(self, corpus):
        for name, g in corpus:
            for p in (1, 2, 3):
                assert_same_as_reference(g, p, name)

    @pytest.mark.parametrize("name", sorted(WITNESS_GRAPHS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_witnesses(self, name, p):
        assert_same_as_reference(WITNESS_GRAPHS[name], p, name)

    def test_spider555_tree_lift(self):
        g = generate("spider", arms=[5, 5, 5])
        assert prox_solve(g)[0] == 1
        kind, policy = STRATEGY_REGISTRY["lift-tree"](g, root=0)
        sim = simulate_policy(g, policy)
        assert kind == "policy" and policy.budget == 2
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
        sched = ProbeSchedule.from_lists(2, [{0, 2}, {1}], metadata={"note": "x"})
        again = ProbeSchedule.from_json(sched.to_json())
        assert again.rounds == sched.rounds
        assert again.cops == sched.cops
        assert '"rounds": [[1, 3], [2]]' in sched.to_json()
