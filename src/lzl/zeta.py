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

import json
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .bitset import VertexSet, iter_bits
from .errors import PolicyError, SizeCapError
from .graphs import Graph, closed_nb_bits, closed_nb_table

DEFAULT_ZETA_CAP = 12

OUT_ON = "0"
OUT_ADJ = "1"
OUT_NONE = "*"


def observe(g: Graph, x: int, u: VertexSet | Iterable[int]) -> tuple[str, ...]:
    """Per-probe outcomes for a robber on x, aligned with sorted probes."""
    probed = sorted(u)
    out = []
    for v in probed:
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
    """
    adj = g.adj_bits
    classes = [m_bits]
    for v in probed:
        on = 1 << v
        nb = adj[v]
        far = ~(nb | on)
        refined = []
        for c in classes:
            for part in (c & on, c & nb, c & far):
                if part:
                    refined.append(part)
        classes = refined
    return classes


def partition_candidates(
    g: Graph, m: VertexSet, u: VertexSet | Iterable[int]
) -> list[VertexSet]:
    """Split candidates by observation vector; classes cover m disjointly."""
    if not m.bits:
        raise ValueError("candidate set must be nonempty")
    probed = tuple(sorted(u))
    return [VertexSet(g.n, c) for c in _partition_bits(g, m.bits, probed)]


def zeta_winnable(g: Graph, k: int, *, cap: int = DEFAULT_ZETA_CAP) -> bool:
    """True iff k cops capture on every robber trajectory in finite rounds.

    Least fixed point over candidate sets: singletons are won; a set R is
    won when some probe set of size <= k splits N[R] into classes that are
    all already won.  The overall game is won iff the full vertex set is.
    The verdict of a non-singleton R depends only on N[R], so the table is
    indexed by closed neighbourhood and each distinct N[R] is checked once
    per pass until it is won.
    """
    if g.n > cap:
        raise SizeCapError("exact localization solver", g.n, cap)
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
    # smaller neighbourhoods first, so a pass can use what it has just won
    pending = sorted({nr[r] for r in range(1, full + 1) if r & (r - 1)}, key=int.bit_count)

    while not won[full]:
        still = []
        for m in pending:
            for probed in probe_sets:
                if all(
                    not c & (c - 1) or won[nr[c]] for c in _partition_bits(g, m, probed)
                ):
                    won[m] = 1
                    break
            else:
                still.append(m)
        if len(still) == len(pending):
            break
        pending = still
    return bool(won[full])


def zeta_number(g: Graph, *, cap: int = DEFAULT_ZETA_CAP) -> int:
    """Least k with a winning cop strategy; 0 for the one-vertex graph."""
    if g.n == 1:
        return 0
    for k in range(1, g.n):
        if zeta_winnable(g, k, cap=cap):
            return k
    return g.n - 1  # always sufficient: probe all but one vertex forever


# -- policies -------------------------------------------------------------


class Policy:
    """Deterministic cop plan driven by (round, folded observation state).

    ``probes`` may consult only the round index and the state produced by
    folding past observations through ``advance``, which keeps every run
    replayable.  ``period`` marks policies whose probes depend on the round
    only through ``t % period``; the simulator uses it to detect robber
    escape cycles, and ``probes_after`` tells it whether an idle round is
    final.
    """

    name = "policy"
    budget: int = 1
    period: int | None = None

    def initial_state(self):
        return None

    def probes(self, t: int, state) -> frozenset[int]:
        raise NotImplementedError

    def advance(self, state, probed: tuple[int, ...], observation: tuple[str, ...]):
        return state

    def probes_after(self, t: int, state) -> bool:
        """Whether the policy may probe in some round after ``t``.

        The simulator judges an idle round with several candidates an
        escape exactly when this is False.  The default keeps that rule for
        every idle round of a policy that does not override it.
        """
        return False


class SchedulePolicy(Policy):
    """Oblivious policy replaying a fixed list of probe rounds."""

    def __init__(self, rounds, budget: int, name: str = "schedule", cycle: bool = False):
        self.rounds = [frozenset(r) for r in rounds]
        self.budget = budget
        self.name = name
        self.cycle = cycle
        self.period = len(self.rounds) if cycle else None

    def probes(self, t: int, state) -> frozenset[int]:
        i = t - 1
        if self.cycle and self.rounds:
            return self.rounds[i % len(self.rounds)]
        if i < len(self.rounds):
            return self.rounds[i]
        return frozenset()

    def probes_after(self, t: int, state) -> bool:
        return any(self.rounds) if self.cycle else any(self.rounds[t:])


@dataclass
class SimulationResult:
    outcome: str  # "captured-all-branches" | "escape-witness" | "cap-exceeded"
    worst_capture_round: int | None
    branches: int
    escape_path: list | None = None

    @property
    def captured(self) -> bool:
        return self.outcome == "captured-all-branches"

    def to_json(self) -> str:
        return json.dumps(
            {
                "outcome": self.outcome,
                "worst_capture_round": self.worst_capture_round,
                "branches": self.branches,
                "escape_path": self.escape_path,
            },
            sort_keys=True,
        )


_CAPTURED = 0
_ESCAPE = 1
_CAP = 2


def simulate_policy(
    g: Graph, policy: Policy, *, round_cap: int = 400
) -> SimulationResult:
    """Play the policy against every robber behavior.

    Depth-first over the branch tree: candidates R move to N[R], the probe
    splits them into observation classes, and each non-singleton class is a
    robber option.  An escape witness is a revisited (round phase, policy
    state, candidates) triple under a periodic policy, or an idle round
    after which the policy never probes again while several candidates
    remain.
    """
    if g.n == 1:
        return SimulationResult("captured-all-branches", 0, 1)
    full = (1 << g.n) - 1
    memo: dict[tuple, tuple[int, int | None]] = {}
    branches = 0

    def run(t: int, state, r_bits: int, onpath: set) -> tuple[int, int | None, list | None]:
        nonlocal branches
        if t > round_cap:
            return _CAP, None, []
        key = (t, state, r_bits)
        if key in memo:
            verdict, worst = memo[key]
            return verdict, worst, None if verdict == _CAPTURED else []
        m_bits = closed_nb_bits(g, r_bits)
        probe_set = policy.probes(t, state)
        if len(probe_set) > policy.budget:
            raise PolicyError(
                f"round {t}: policy '{policy.name}' probes {len(probe_set)} "
                f"vertices, budget is {policy.budget}"
            )
        probed = tuple(sorted(probe_set))
        if not probed and m_bits.bit_count() > 1 and not policy.probes_after(t, state):
            # nothing will ever split the candidates again
            return _ESCAPE, None, [_frame(t, probed, None, m_bits)]
        classes = _partition_bits(g, m_bits, probed)
        worst = 0
        for cls in classes:
            branches += 1
            if cls.bit_count() == 1:
                worst = max(worst, t)
                continue
            rep = (cls & -cls).bit_length() - 1
            obs = observe(g, rep, probed)
            nstate = policy.advance(state, probed, obs)
            phase_key = (
                (t % policy.period) if policy.period else t,
                nstate,
                cls,
            )
            if policy.period and phase_key in onpath:
                return _ESCAPE, None, [_frame(t, probed, obs, cls)]
            onpath.add(phase_key)
            verdict, sub_worst, path = run(t + 1, nstate, cls, onpath)
            onpath.discard(phase_key)
            if verdict != _CAPTURED:
                frames = [_frame(t, probed, obs, cls)] + (path or [])
                return verdict, None, frames
            worst = max(worst, sub_worst or 0)
        memo[key] = (_CAPTURED, worst)
        return _CAPTURED, worst, None

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, round_cap * 4 + 1000))
    try:
        verdict, worst, path = run(1, policy.initial_state(), full, set())
    finally:
        sys.setrecursionlimit(old_limit)
    if verdict == _CAPTURED:
        return SimulationResult("captured-all-branches", worst, branches)
    if verdict == _ESCAPE:
        return SimulationResult("escape-witness", None, branches, path)
    return SimulationResult("cap-exceeded", None, branches, path)


def _frame(t: int, probed, obs, cls_bits: int) -> dict:
    return {
        "round": t,
        "probes": [v + 1 for v in probed],
        "observation": list(obs) if obs else None,
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


POLICY_REGISTRY: dict[str, Callable[..., Policy]] = {
    "probe-all-but-one": _probe_all_but_one,
    "sweep": _interior_sweep,
    "front-sweep": _front_sweep,
    "arm-scan": _arm_scan,
}


def build_policy(name: str, g: Graph, **params) -> Policy:
    if name not in POLICY_REGISTRY:
        raise PolicyError(f"unknown policy '{name}'")
    return POLICY_REGISTRY[name](g, **params)
