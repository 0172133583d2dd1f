"""Exact one-visibility localization solver and adversarial policy simulator.

Probe outcomes are 0 (cop on the robber), 1 (cop adjacent), or * (nothing).
The cops win by forcing the set of history-consistent robber positions down
to a single candidate.  ``zeta_winnable`` computes the winning region as a
least fixed point over candidate sets, deduplicated by closed neighbourhood
(a set's verdict depends only on N[R], so each distinct N[R] is one state)
and searched locally from the full vertex set.
``simulate_policy`` plays a concrete cop policy against an omniscient robber
by exploring every branch of the observation tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

from .errors import SizeCapError
from .graphs import (
    Graph,
    closed_nb_bits,
    iter_bits,
    mask_of,
    orbit_closer,
    spread_tables,
    twin_classes,
)

#: Largest order the exact localization solver accepts.
ZETA_CAP = 12

#: Rounds the policy simulator plays, unless told otherwise, before it reads cap-exceeded.
ROUND_CAP = 400

def _probe_rows(adj: Sequence[int], probed: Iterable[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Per probe v, in the given order: the masks of v, N(v), N[v] and V minus N[v]."""
    rows = []
    for v in probed:
        on = 1 << v
        hit = adj[v] | on
        rows.append((on, adj[v], hit, ~hit))
    return tuple(rows)


def _partition_bits(m_bits: int, rows: Iterable[tuple[int, int, int, int]]) -> list[int]:
    """Equivalence classes of candidate mask ``m_bits`` under equal outcomes.

    ``rows`` holds each probe's masks from ``_probe_rows``.  Each probe v
    refines every class into its parts on v, adjacent to v and beyond
    N[v], in that order, so the classes come out ordered by their outcome
    vectors read as base-3 codes (0 < 1 < *), first probe first.  A class
    that misses N[v] is all beyond it and stays whole; every class lies in
    ``m_bits``, so a probe whose N[v] misses ``m_bits`` is skipped outright.
    """
    classes = [m_bits]
    for on, nb, hit, far in rows:
        if not m_bits & hit:
            continue
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

    After the robber moves, the candidates of a set R are N[R].  A state m
    (an N[R] with R not a singleton) is won when some probe set of size
    <= k splits m into classes c that are each a singleton or have N[c]
    won; the game is won iff the state V is.  The won states are a least
    fixed point, found by a local search from V in the manner of Liu and
    Smolka ("Simple linear-time algorithms for minimal fixed points",
    ICALP 1998).  Discovered states wait in lists by size, and a smallest
    one is evaluated next.  Each probe set stops at its first non-singleton
    class c with N[c] not yet won; N[c] is discovered if new, and the pair
    (state, probe set) is filed under it.  Winning a state checks again
    only the pairs filed under it, and a pair that now passes wins its
    state in turn.

    Why the search is exact:

    - Reachable states.  A state is won only by a probe set whose classes
      are all singletons or won, so every win is in the least fixed point.
      When no state waits, each probe set tried at a discovered state
      that is not won stands filed under a discovered state that is not
      won, the N[c] of one of its classes.  Those states form a trap: by
      induction on the rounds of the fixed point, none of them ever enters
      it (the probe sets skipped and the orbit members not evaluated are
      covered below).  So the least fixed point restricted to the states
      reachable from V is the one the search computes.
    - Twin swaps.  Two twins (equal N[v] or equal N(v)) that are both in
      m or both out of it swap by an automorphism that fixes m.  It maps
      a probe set's classes onto those of the swapped set, and the fixed
      point is closed under automorphisms, so the two sets win or lose
      together.  A set that probes a twin without its next lower twin on
      the same side of m is skipped: some product of swaps maps it onto a
      set that is tried.  This takes K_n from 2^n - 1 probe sets to at
      most n.  A vertex whose N[v] misses m leaves every class whole, so
      only vertices meeting m are probed.  A set of such vertices alone
      leaves the one class m and needs N[m] won; each round of the fixed
      point is closed under subsets and m lies in N[m], so m would be won
      a round earlier, and no such set is missed.
    - Orbits.  An automorphism s maps the state m to sm, a probe set P to
      sP and its classes c to sc, with N[sc] = sN[c].  So the fixed point
      is a union of orbits: a discovered state's whole orbit is marked
      seen, only its first member is evaluated and keeps the orbit's one
      record, and its win marks the orbit won.  A pair waits on the very
      state N[c] it needs, which may be any member, so a win rechecks the
      pairs waiting on every member of the orbit.
    """
    if g.n > ZETA_CAP:
        raise SizeCapError("exact localization solver", g.n, ZETA_CAP)
    if g.n == 1:
        return True
    if k < 1:
        return False
    n = g.n
    full = (1 << n) - 1
    nb_closed, low_table, high_table = spread_tables(g)
    twins = twin_classes(g)
    rows = _probe_rows(g.adj_bits, range(n))
    close_orbit = orbit_closer(g)
    seen = bytearray(full + 1)  # every member of a discovered orbit
    won = bytearray(full + 1)
    orbit_of: dict[int, list[int]] = {}  # first member of a discovered orbit -> the orbit
    waiting: dict[int, list] = {}  # state -> pairs filed under it
    unevaluated: list[list[int]] = [[] for _ in range(n + 1)]  # discovered states by size

    def file(m: int, probed: tuple[int, ...]) -> bool:
        """File the pair under its first class not won; true if every class is won."""
        for c in _partition_bits(m, map(rows.__getitem__, probed)):
            if c & (c - 1):
                nc = low_table[c & 255] | high_table[c >> 8]
                if not won[nc]:
                    if not seen[nc]:
                        orbit_of[nc] = close_orbit(nc, seen)
                        unevaluated[nc.bit_count()].append(nc)
                    waiting.setdefault(nc, []).append((m, probed))
                    return False
        return True

    def win(m: int) -> None:
        """Mark won the orbit whose first member is m, and every state that this lets win."""
        todo = [m]
        while todo:
            orbit = orbit_of[todo.pop()]
            if won[orbit[0]]:
                continue
            for x in orbit:
                won[x] = 1
            for x in orbit:
                for parent, probed in waiting.pop(x, ()):
                    if not won[parent] and file(parent, probed):
                        todo.append(parent)

    orbit_of[full] = close_orbit(full, seen)
    unevaluated[n].append(full)
    while not won[full]:
        smallest = next((states for states in unevaluated if states), None)
        if smallest is None:
            break
        m = smallest.pop()
        for probed in _probe_sets(nb_closed, twins, m, k):
            if file(m, probed):
                win(m)
                break
    return bool(won[full])


def _probe_sets(
    nb_closed: Sequence[int], twins: Sequence[Sequence[int]], m: int, k: int
) -> list[tuple[int, ...]]:
    """Probe sets of size <= k tried at m, by size, then lexicographically.

    Only vertices whose N[v] meets m are probed, and a set holds a twin
    only with its next lower twin on the same side of m.
    """
    cands = [v for v, row in enumerate(nb_closed) if row & m]
    lower = {}  # each twin -> its next lower twin on the same side of m
    for members in twins:
        last = {}
        for v in members:
            side = m >> v & 1
            if side in last:
                lower[v] = last[side]
            last[side] = v
    out = []
    level = [((), 0)]  # the sets of one size, each with the index its next vertex starts at
    for _ in range(k):
        level = [
            (probed + (v,), i + 1)
            for probed, start in level
            for i, v in enumerate(cands[start:], start)
            if v not in lower or lower[v] in probed
        ]
        out += [probed for probed, _ in level]
    return out


def zeta_number(g: Graph) -> int:
    """Least k with a winning cop strategy; 0 for the one-vertex graph."""
    # refused before the search: a graph over the cap makes no zeta_winnable call
    if g.n > ZETA_CAP:
        raise SizeCapError("exact localization solver", g.n, ZETA_CAP)
    if g.n == 1:
        return 0
    for k in range(1, g.n):
        if zeta_winnable(g, k):
            return k
    raise AssertionError("unreachable: probing all but one vertex always wins")


# -- policies -------------------------------------------------------------


class Policy:
    """Deterministic cop plan: a finite-state controller over what the cops saw.

    ``probes`` must be a function of the state alone, returning distinct
    vertex ids in any collection: the simulator asks it once per state and
    keeps the answer, sorted.  ``advance`` folds in one round's
    observation: the mask of probed vertices adjacent to the robber.  That
    mask is the whole observation of a class with several candidates,
    since a probe on the robber leaves it a singleton.  Every state is
    finite, so a (state, candidates) pair that repeats on one play is a
    robber escape.
    """

    name = "policy"
    budget: int = 1

    def initial_state(self):
        return None

    def probes(self, state) -> Collection[int]:
        raise NotImplementedError

    def advance(self, state, flagged: int):
        return state


class SchedulePolicy(Policy):
    """Oblivious policy replaying a fixed list of probe rounds.

    The rounds may come as any iterables of ids; each is kept as an
    ascending tuple of distinct ids, the form of ``ProbeSchedule.rounds``.
    The state is the index of the next round, taken modulo the round count
    when the list cycles.  A list that does not cycle ends in the state
    ``len(rounds)``, which probes nothing (``()``) and advances to itself,
    so a play that outlasts the list repeats a pair once its candidates
    stop growing.
    """

    def __init__(self, rounds, budget: int, name: str = "schedule", cycle: bool = False):
        self.rounds = [tuple(sorted(set(r))) for r in rounds]
        self.budget = budget
        self.name = name
        self.cycle = cycle and bool(self.rounds)  # an empty cycle never probes
        end = len(self.rounds)
        # the state after each state, so ``advance`` is one index per branch
        self.successor = [*range(1, end), 0 if self.cycle else end, end]

    def initial_state(self):
        return 0

    def probes(self, state) -> tuple[int, ...]:
        return self.rounds[state] if state < len(self.rounds) else ()

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
    g: Graph, policy: Policy, *, round_cap: int = ROUND_CAP
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
    computed once per candidate set R.  Each policy state is planned once,
    on its first visit: its probes are asked for and checked against the
    budget there, and their ascending tuple, mask and ``_probe_rows`` are
    kept for every later visit.
    """
    if g.n == 1:
        return SimulationResult("captured-all-branches", 0, 1)
    adj = g.adj_bits
    memo: dict[tuple, int] = {}  # (t, state, R) -> worst round, captured only
    spread: dict[int, int] = {}  # R -> N[R]
    plans: dict = {}  # policy state -> (probes ascending, their mask, their rows)
    onpath: set = set()
    branches = 0

    def run(t: int, state, r_bits: int):
        nonlocal branches
        if t > round_cap:
            return "cap-exceeded", None, []
        m_bits = spread.get(r_bits)
        if m_bits is None:
            m_bits = spread[r_bits] = closed_nb_bits(g, r_bits)
        plan = plans.get(state)
        if plan is None:
            probe_set = policy.probes(state)
            if len(probe_set) > policy.budget:
                raise AssertionError(
                    f"round {t}: policy '{policy.name}' probes {len(probe_set)} "
                    f"vertices, budget is {policy.budget}"
                )
            probed = tuple(sorted(probe_set))
            plan = plans[state] = probed, mask_of(probed), _probe_rows(adj, probed)
        probed, probe_mask, rows = plan
        worst = 0
        for cls in _partition_bits(m_bits, rows):
            branches += 1
            if not cls & (cls - 1):
                worst = max(worst, t)
                continue
            rep = (cls & -cls).bit_length() - 1
            flags = adj[rep] & probe_mask
            nstate = policy.advance(state, flags)
            node = (nstate, cls)
            if node in onpath:
                return "escape-witness", None, [_frame(t, probed, flags, cls)]
            sub_worst = memo.get((t + 1, nstate, cls))
            if sub_worst is None:
                onpath.add(node)
                verdict, sub_worst, path = yield t + 1, nstate, cls
                onpath.discard(node)
                if verdict != "captured-all-branches":
                    return verdict, None, [_frame(t, probed, flags, cls)] + path
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


def _frame(t: int, probed, flags: int, cls_bits: int) -> dict:
    """One escape-path round: the probes, what they saw, and the robber's class.

    The class holds no probed vertex, since a probe on the robber splits
    it off as a singleton, a capture.  So a probe reads 1 where it is in
    the flag mask ``flags`` and * elsewhere.
    """
    return {
        "round": t,
        "probes": [v + 1 for v in probed],
        "observation": ["1" if flags >> v & 1 else "*" for v in probed] if probed else None,
        "candidates": [v + 1 for v in iter_bits(cls_bits)],
    }


# -- named policies ----------------------------------------------------------


def _probe_all_but_one(g: Graph) -> Policy:
    rounds = [range(g.n - 1)]
    return SchedulePolicy(rounds, budget=g.n - 1, name="probe-all-but-one")


def _interior_sweep(g: Graph) -> Policy:
    """One cop probing the interior path vertices v2..v(n-1) in order."""
    rounds = [(v,) for v in range(1, g.n - 1)]
    return SchedulePolicy(rounds, budget=1, name="sweep")


def _front_sweep(g: Graph) -> Policy:
    """One cop probing v1, v2, ... v(n-1) in order."""
    rounds = [(v,) for v in range(0, g.n - 1)]
    return SchedulePolicy(rounds, budget=1, name="front-sweep")


def _arm_scan(g: Graph) -> Policy:
    """Single cop cycling over the non-head vertices of a spider."""
    rounds = [(v,) for v in range(1, g.n)]
    return SchedulePolicy(rounds, budget=1, name="arm-scan", cycle=True)


POLICY_REGISTRY: dict[str, Callable[[Graph], Policy]] = {
    "probe-all-but-one": _probe_all_but_one,
    "sweep": _interior_sweep,
    "front-sweep": _front_sweep,
    "arm-scan": _arm_scan,
}
