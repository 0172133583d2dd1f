"""Exact one-visibility localization solver and adversarial policy simulator.

Probe outcomes are 0 (cop on the robber), 1 (cop adjacent), or * (nothing).
The cops win by forcing the set of history-consistent robber positions down
to a single candidate.  ``zeta_winnable`` computes the winning region as a
least fixed point over candidate sets, deduplicated by closed neighbourhood:
a set's verdict depends only on N[R], so each distinct N[R] is one state.
``simulate_policy`` plays a concrete cop policy against an omniscient robber
by exploring every branch of the observation tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .errors import SizeCapError, UsageError
from .graphs import Graph, closed_nb_bits, closed_nb_table, iter_bits, mask_of, orbit_closer

#: Largest order the exact localization solver accepts.
ZETA_CAP = 12

OUT_ON = "0"
OUT_ADJ = "1"
OUT_NONE = "*"


def observe(g: Graph, x: int, u: int) -> tuple[str, ...]:
    """Per-probe outcomes for a robber on x, one per probe in the mask ``u``, ascending."""
    out = []
    for v in iter_bits(u):
        if v == x:
            out.append(OUT_ON)
        elif g.has_edge(v, x):
            out.append(OUT_ADJ)
        else:
            out.append(OUT_NONE)
    return tuple(out)


def _partition_bits(g: Graph, m_bits: int, probed: tuple[int, ...]) -> list[int]:
    """Equivalence classes of candidate mask ``m_bits`` under equal outcomes.

    Each probe v refines every class into its parts on v, adjacent to v and
    beyond N[v], in that order, so the classes come out ordered by their
    outcome vectors read as base-3 codes (0 < 1 < *), first probe first.
    A class that misses N[v] is all beyond it and stays whole.
    """
    adj = g.adj_bits
    classes = [m_bits]
    for v in probed:
        on = 1 << v
        nb = adj[v]
        hit = nb | on
        far = ~hit
        refined = []
        for c in classes:
            if not c & hit:
                refined.append(c)
                continue
            if c & on:
                refined.append(on)
            if c & nb:
                refined.append(c & nb)
            if c & far:
                refined.append(c & far)
        classes = refined
    return classes


def zeta_winnable(g: Graph, k: int) -> bool:
    """True iff k cops capture on every robber trajectory in finite rounds.

    Least fixed point over candidate sets: singletons are won; a set R is
    won when some probe set of size <= k splits N[R] into classes that are
    all already won.  The overall game is won iff the full vertex set is.
    The verdict of a non-singleton R depends only on N[R], so the table is
    indexed by closed neighbourhood and each distinct N[R] is checked once
    per pass until it is won.

    An automorphism maps N[R] to N[sR], a probe set to a probe set and its
    classes to classes, so the least fixed point is a union of orbits.  Only
    the first member of each orbit is evaluated, and a win marks its whole
    orbit won.  A pass that wins no member then leaves no member of any
    orbit winnable, which is the fixed point the unquotiented passes reach.
    """
    if g.n > ZETA_CAP:
        raise SizeCapError("exact localization solver", g.n, ZETA_CAP)
    if g.n == 1:
        return True
    if k < 1:
        return False
    n = g.n
    full = (1 << n) - 1
    nr = closed_nb_table(g, range(n))
    probe_sets = [
        combo for size in range(1, min(k, n) + 1) for combo in combinations(range(n), size)
    ]
    # won[m]: every non-singleton R with N[R] = m is won
    won = bytearray(full + 1)
    # smaller neighbourhoods first, so a pass can use what it has just won;
    # each orbit is listed once, its first member the one evaluated
    close_orbit = orbit_closer(g)
    seen = bytearray(full + 1)
    pending = [
        close_orbit(m, seen)
        for m in sorted({nr[r] for r in range(1, full + 1) if r & (r - 1)}, key=int.bit_count)
        if not seen[m]
    ]

    while not won[full]:
        still = []
        for orbit in pending:
            m = orbit[0]
            for probed in probe_sets:
                if all(
                    not c & (c - 1) or won[nr[c]] for c in _partition_bits(g, m, probed)
                ):
                    for x in orbit:
                        won[x] = 1
                    break
            else:
                still.append(orbit)
        if len(still) == len(pending):
            break
        pending = still
    return bool(won[full])


def zeta_number(g: Graph) -> int:
    """Least k with a winning cop strategy; 0 for the one-vertex graph."""
    if g.n == 1:
        return 0
    for k in range(1, g.n):
        if zeta_winnable(g, k):
            return k
    return g.n - 1  # always sufficient: probe all but one vertex forever


# -- policies -------------------------------------------------------------


class Policy:
    """Deterministic cop plan: a finite-state controller over what the cops saw.

    ``probes`` reads only the state, and ``advance`` folds in one round's
    observation: the ascending tuple of probed vertices adjacent to the
    robber.  That tuple is the whole observation of a class with several
    candidates, since a probe on the robber leaves it a singleton.  Every
    state is finite, so a (state, candidates) pair that repeats on one play
    is a robber escape.
    """

    name = "policy"
    budget: int = 1

    def initial_state(self):
        return None

    def probes(self, state) -> frozenset[int]:
        raise NotImplementedError

    def advance(self, state, flagged: tuple[int, ...]):
        return state


class SchedulePolicy(Policy):
    """Oblivious policy replaying a fixed list of probe rounds.

    The state is the index of the next round, taken modulo the round count
    when the list cycles.  A list that does not cycle ends in the state
    ``len(rounds)``, which probes nothing and advances to itself, so a play
    that outlasts the list repeats a pair once its candidates stop growing.
    """

    def __init__(self, rounds, budget: int, name: str = "schedule", cycle: bool = False):
        self.rounds = [frozenset(r) for r in rounds]
        self.budget = budget
        self.name = name
        self.cycle = cycle and bool(self.rounds)  # an empty cycle never probes
        end = len(self.rounds)
        # the state after each state, so ``advance`` is one index per branch
        self.successor = [*range(1, end), 0 if self.cycle else end, end]

    def initial_state(self):
        return 0

    def probes(self, state) -> frozenset[int]:
        return self.rounds[state] if state < len(self.rounds) else frozenset()

    def advance(self, state, flagged):
        return self.successor[state]


@dataclass
class SimulationResult:
    outcome: str  # "captured-all-branches" | "escape-witness" | "cap-exceeded"
    worst_capture_round: int | None
    branches: int
    escape_path: list | None = None

    @property
    def captured(self) -> bool:
        return self.outcome == "captured-all-branches"


def simulate_policy(
    g: Graph, policy: Policy, *, round_cap: int = 400
) -> SimulationResult:
    """Play the policy against every robber behavior.

    Depth-first over the branch tree: candidates R move to N[R], the probe
    splits them into observation classes, and each non-singleton class is a
    robber option.  An escape witness is a (policy state, candidates) pair
    revisited on one branch, the one escape rule: once a policy stops
    probing, its candidates spread to a fixed set while its finitely many
    states cycle, so the pair repeats.  Each round is a generator that
    yields its sub-rounds and is sent their verdicts, so the depth is
    bounded by ``round_cap`` and not by the interpreter's stack.  A sub-round
    already in the memo is read there and never started, and N[R] is
    computed once per candidate set R.
    """
    if g.n == 1:
        return SimulationResult("captured-all-branches", 0, 1)
    adj = g.adj_bits
    memo: dict[tuple, int] = {}  # (t, state, R) -> worst round, captured only
    spread: dict[int, int] = {}  # R -> N[R]
    onpath: set = set()
    branches = 0

    def run(t: int, state, r_bits: int):
        nonlocal branches
        if t > round_cap:
            return "cap-exceeded", None, []
        m_bits = spread.get(r_bits)
        if m_bits is None:
            m_bits = spread[r_bits] = closed_nb_bits(g, r_bits)
        probe_set = policy.probes(state)
        if len(probe_set) > policy.budget:
            raise AssertionError(
                f"round {t}: policy '{policy.name}' probes {len(probe_set)} "
                f"vertices, budget is {policy.budget}"
            )
        probed = tuple(sorted(probe_set))
        probe_mask = mask_of(probed)
        worst = 0
        for cls in _partition_bits(g, m_bits, probed):
            branches += 1
            if not cls & (cls - 1):
                worst = max(worst, t)
                continue
            rep = (cls & -cls).bit_length() - 1
            nstate = policy.advance(state, tuple(iter_bits(adj[rep] & probe_mask)))
            node = (nstate, cls)
            if node in onpath:
                return "escape-witness", None, [_frame(g, t, probed, rep, cls)]
            sub_worst = memo.get((t + 1, nstate, cls))
            if sub_worst is None:
                onpath.add(node)
                verdict, sub_worst, path = yield t + 1, nstate, cls
                onpath.discard(node)
                if verdict != "captured-all-branches":
                    return verdict, None, [_frame(g, t, probed, rep, cls)] + path
            worst = max(worst, sub_worst)
        memo[t, state, r_bits] = worst
        return "captured-all-branches", worst, None

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
    return SimulationResult(verdict, worst, branches, path)


def _frame(g: Graph, t: int, probed, rep: int | None, cls_bits: int) -> dict:
    """One escape-path round; ``rep`` is a candidate whose outcomes it shows."""
    return {
        "round": t,
        "probes": [v + 1 for v in probed],
        "observation": list(observe(g, rep, mask_of(probed))) if probed else None,
        "candidates": [v + 1 for v in iter_bits(cls_bits)],
    }


# -- named policies ----------------------------------------------------------


def _probe_all_but_one(g: Graph) -> Policy:
    rounds = [frozenset(range(g.n - 1))]
    return SchedulePolicy(rounds, budget=g.n - 1, name="probe-all-but-one")


def _interior_sweep(g: Graph) -> Policy:
    """One cop probing the interior path vertices v2..v(n-1) in order."""
    rounds = [frozenset([v]) for v in range(1, g.n - 1)]
    return SchedulePolicy(rounds, budget=1, name="sweep")


def _front_sweep(g: Graph) -> Policy:
    """One cop probing v1, v2, ... v(n-1) in order."""
    rounds = [frozenset([v]) for v in range(0, g.n - 1)]
    return SchedulePolicy(rounds, budget=1, name="front-sweep")


def _arm_scan(g: Graph) -> Policy:
    """Single cop cycling over the non-head vertices of a spider."""
    rounds = [frozenset([v]) for v in range(1, g.n)]
    return SchedulePolicy(rounds, budget=1, name="arm-scan", cycle=True)


POLICY_REGISTRY: dict[str, Callable[[Graph], Policy]] = {
    "probe-all-but-one": _probe_all_but_one,
    "sweep": _interior_sweep,
    "front-sweep": _front_sweep,
    "arm-scan": _arm_scan,
}


def build_policy(name: str, g: Graph) -> Policy:
    if name not in POLICY_REGISTRY:
        raise UsageError(f"unknown policy '{name}'")
    return POLICY_REGISTRY[name](g)
