"""Contamination dynamics and the exact one-proximity solver.

The single-player view of the one-proximity game: the robber territory S
spreads to its closed neighborhood each round and loses everything within
distance one of a probe.  A schedule wins exactly when S reaches the empty
set, independent of any robber choices, so verification is a pure set
recursion and the optimal cop count is a reachability question over subset
states, deduplicated by closed neighbourhood: two territories with the same
spread N[S] have the same future, so the solver keeps one state per N[S].

Round indexing makes round-1 probes effective: S_1 = V minus N[V_1].  The
literal recursion with S_1 = V(G) is the same game shifted by one wasted
round and leaves the optimal cop count unchanged.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapError, UsageError
from .graphs import (
    Graph,
    closed_nb_bits,
    iter_bits,
    mask_of,
    meet_tables,
    orbit_closer,
    spread_tables,
)

#: Largest order the exact prox solver accepts.
PROX_CAP = 16


@dataclass(frozen=True)
class ProbeSchedule:
    """Non-adaptive cop plan: a declared budget and the probes of each round.

    Each round is an ascending tuple of distinct 0-based vertex ids, so equal
    schedules compare equal and a round costs the memory of its ids alone.
    The builders make that form; ``from_lists`` makes it from any iterables.
    """

    cops: int
    rounds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.cops < 1:
            raise UsageError("cop budget must be positive")
        for t, r in enumerate(self.rounds, start=1):
            if len(r) > self.cops:
                raise UsageError(f"round {t} probes {len(r)} vertices, budget is {self.cops}")

    @classmethod
    def from_lists(cls, cops: int, rounds: Iterable[Iterable[int]]):
        """A schedule from rounds in any order and with repeats, each sorted and deduplicated."""
        return cls(cops, tuple(tuple(sorted(set(r))) for r in rounds))

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": "prox",
                "cops": self.cops,
                "rounds": [[v + 1 for v in r] for r in self.rounds],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, n: int) -> "ProbeSchedule":
        """Read the file format for a graph of order ``n``: ``cops`` and the
        1-based probe ids are JSON integers, each id in 1..n.

        A round may list its ids in any order and repeat them; it is read
        through ``from_lists``, so an id out of range is reported as the
        lowest bad id of the first round that has one.  Other keys, such as
        the ``metadata`` that earlier versions wrote, are ignored.
        """
        try:
            data = json.loads(text)
            cops, rounds = data["cops"], [list(r) for r in data["rounds"]]
            mode = data.get("mode", "prox")
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed schedule JSON: {exc!r}") from None
        if mode != "prox":
            raise UsageError(f"schedule mode {mode!r} is not 'prox'")
        if type(cops) is not int:  # bool is an int subclass, but true is no count
            raise UsageError(f"cops {json.dumps(cops)} is not an integer")
        for t, r in enumerate(rounds, start=1):
            for v in r:
                if type(v) is not int:
                    raise UsageError(f"round {t} probes {json.dumps(v)}, not an integer id")
        schedule = cls.from_lists(cops, [[v - 1 for v in r] for r in rounds])
        for t, r in enumerate(schedule.rounds, start=1):
            for v in r:
                if not 0 <= v < n:
                    raise UsageError(f"round {t} probes vertex {v + 1}, outside 1..{n}")
        return schedule


@dataclass
class ScheduleTrace:
    """Outcome of running a schedule: verdict plus per-round diagnostics."""

    cleared: bool
    clear_round: int | None
    counts: list[int]
    first_recontamination_round: int | None

    def as_dict(self) -> dict:
        return {
            "cleared": self.cleared,
            "clear_round": self.clear_round,
            "per_round_contaminated": self.counts,
            "first_recontamination_round": self.first_recontamination_round,
        }


def step_bits(g: Graph, s_bits: int, u_bits: int) -> int:
    """One round: spread S to N[S], then clear N[U]."""
    return closed_nb_bits(g, s_bits) & ~closed_nb_bits(g, u_bits)


def run_schedule(g: Graph, schedule: ProbeSchedule) -> ScheduleTrace:
    """Run the contamination recursion from S = V(G).

    The probe ids must be vertices of ``g``: ``ProbeSchedule.from_json``
    checks the ids of a file, and the builders make theirs in range.
    A graph with a shift kernel (a lattice) steps S as a mask, a few big-int
    shifts per round.  Any other graph is stepped on neighbor lists: only
    the vertices that change and their neighbors are touched, so a round
    costs O(changed vertices * degree) whatever the order of the graph.
    Both steppers start from V and yield each round's territory size and
    whether it grew.
    """
    stepper = _shift_steps if g.shifts is not None else _sparse_steps

    trace_counts: list[int] = []
    clear_round = None
    recontam_round = None
    for t, (size, grew) in enumerate(stepper(g, schedule), start=1):
        if recontam_round is None and grew:
            recontam_round = t
        trace_counts.append(size)
        if size == 0 and clear_round is None:
            clear_round = t

    return ScheduleTrace(
        cleared=clear_round is not None,
        clear_round=clear_round,
        counts=trace_counts,
        first_recontamination_round=recontam_round,
    )


def _shift_steps(g: Graph, schedule: ProbeSchedule) -> Iterator[tuple[int, bool]]:
    """Step S as a mask from V: N[S] minus N[probes]."""
    s = (1 << g.n) - 1
    for probes in schedule.rounds:
        new_s = step_bits(g, s, mask_of(probes))
        grew = new_s & ~s != 0
        s = new_s
        yield s.bit_count(), grew


def _sparse_steps(g: Graph, schedule: ProbeSchedule) -> Iterator[tuple[int, bool]]:
    """Step S on neighbor lists from V, touching only the vertices that change.

    S is kept as per-vertex flags, with the number of contaminated neighbors
    of every vertex and the fringe: the clean vertices with a contaminated
    neighbor.  At S = V every flag is set, every count is the degree and
    the fringe is empty.  A round adds the fringe outside N[probes] and
    removes S inside N[probes], then mends counts and fringe in place: a
    neighbor of an added vertex joins the fringe unless it is inside, a
    vertex whose count drops to 0 leaves it, and a removed vertex with a
    count rejoins it.  N[probes] is read off the graph's own neighbor
    tuples, and the added vertices are one set difference.
    """
    nbrs = g.nbrs
    inside = [True] * g.n
    size = g.n
    counts = [len(row) for row in nbrs]
    fringe: set[int] = set()

    for probes in schedule.rounds:
        probe_nb = set(probes)
        for v in probes:
            probe_nb.update(nbrs[v])
        added = fringe - probe_nb
        removed = [v for v in probe_nb if inside[v]]
        if added:
            fringe -= added
            for v in added:
                inside[v] = True
            for v in added:
                for w in nbrs[v]:
                    counts[w] += 1
                    if not inside[w]:
                        fringe.add(w)
        for v in removed:
            inside[v] = False
            for w in nbrs[v]:
                counts[w] -= 1
                if not counts[w]:
                    fringe.discard(w)
        for v in removed:
            if counts[v]:
                fringe.add(v)
        size += len(added) - len(removed)
        yield size, bool(added)


def _probe_candidates(
    nb_closed: Sequence[int], meet_low: Sequence[int], meet_high: Sequence[int], territory: int
) -> list[int]:
    """Vertices worth probing against the spread territory T, ascending.

    A vertex is dropped when its clearing set N[v] & T lies in another's,
    keeping the smallest id of equal sets: swapping in the other probe never
    shrinks the cleared set, so the filter is lossless.  The others are the
    meet of N[u] over u in N[v] & T, as u is in N[w] exactly when w is in N[u],
    read from the meet tables of ``meet_tables``.
    """
    out = []
    for v, nb in enumerate(nb_closed):
        key = nb & territory
        meet = meet_low[key & 255] & meet_high[key >> 8]
        if not key or meet & ((1 << v) - 1):
            continue  # clears nothing, or a smaller id clears as much
        bits = meet >> (v + 1)
        while bits:  # a larger id whose clearing set is a strict superset
            low = bits & -bits
            if nb_closed[low.bit_length() + v] & territory != key:
                break
            bits ^= low
        else:
            out.append(v)
    return out


def _clearable(
    near: Sequence[Sequence[int]], meet_low: Sequence[int], meet_high: Sequence[int], t: int, k: int
) -> bool:
    """True if at most k closed neighbourhoods cover t; ``near[u]`` lists N[v] for v in N[u].

    One does when the meet of N[u] over u in t is not empty.  Otherwise
    some probe covers the lowest vertex u of t, so it lies in N[u], and
    the other k - 1 cover what that probe leaves.
    """
    if meet_low[t & 255] & meet_high[t >> 8]:
        return True
    if k == 1:
        return False
    for row in near[(t & -t).bit_length() - 1]:
        r = t & ~row
        if (meet_low[r & 255] & meet_high[r >> 8] if k == 2
                else _clearable(near, meet_low, meet_high, r, k - 1)):
            return True
    return False


def prox_winnable(g: Graph, p: int) -> tuple[bool, ProbeSchedule | None]:
    """Decide whether p cops clear the graph, with a witness when they do.

    Breadth-first reachability from V(G) to the empty set, so the witness
    is round-minimal.  A territory's future depends only on its spread
    N[S], so states are keyed by N[S] and each is expanded once.  Probe
    sets are tried by size, then lexicographically; a set leaves the AND of
    its members' residuals T minus N[c], and two byte tables give N[S].

    The search stops at the first recorded spread that at most p probes
    clear, V(G) first, and does not expand it: the witness is its parent
    chain and then the first probe set, in the search's order, that leaves
    nothing.  That is the witness the search would find by expanding on to
    the empty set.  The probe filter is lossless for covering, so a
    clearable spread reaches the empty set in its own expansion; spreads
    are expanded in the order they are recorded, so the first recorded
    clearable spread is the first expanded one to reach the empty set, and
    nothing recorded after it enters its parent chain.

    States are also quotiented by the automorphisms of the graph: a spread
    is recorded only if no image of a recorded one equals it, and the
    witness is still the one the search without the quotient finds.  For
    an automorphism s, the spreads reached from sT are the images under s
    of those reached from T, since the probe filter keeps one probe per
    maximal clearing set and s maps clearing sets onto clearing sets.  Call
    a state of the unquotiented search new if no orbit-mate of it was
    recorded before it.  A state that is not new has an orbit-mate that
    was expanded before it and reached an image of every spread it
    reaches, so nothing it records is new.  New states are thus recorded
    from new states alone; the recorded orbits of both searches agree at
    every step, and the quotient records exactly the new states, in the
    same order, each from the same parent by the same probes.  The state P
    that first reaches the empty set is new, since an earlier orbit-mate sP
    would reach s(empty) = empty first; P's parent is new, since an
    earlier orbit-mate of it would reach an orbit-mate of P before P; and
    so on along the parent chain.  Clearability is kept by automorphisms,
    so the first recorded clearable spread is that P.
    """
    if g.n > PROX_CAP:
        raise SizeCapError("exact prox solver", g.n, PROX_CAP)
    if p < 1:
        return False, None
    full = (1 << g.n) - 1
    nb_closed, low_table, high_table = spread_tables(g)
    meet_low, meet_high = meet_tables(g)
    near = [tuple(nb_closed[v] for v in iter_bits(row)) for row in nb_closed]
    close_orbit = orbit_closer(g)
    seen = bytearray(full + 1)  # every image of a recorded spread territory
    close_orbit(full, seen)

    # spread territory -> (parent spread territory, probes that led here)
    parent: dict[int, tuple[int, tuple[int, ...]] | None] = {full: None}
    frontier = deque([full])

    def reach(spread: int, combo: tuple[int, ...]) -> bool:
        """Record a spread first reached from ``territory``; true if p probes clear it."""
        parent[spread] = (territory, combo)
        close_orbit(spread, seen)
        frontier.append(spread)
        return _clearable(near, meet_low, meet_high, spread, p)

    def witness(last: int) -> ProbeSchedule:
        """The probe sets along the parent chain of ``last``, then the first that clears it."""
        cands = _probe_candidates(nb_closed, meet_low, meet_high, last)
        res = [last & ~nb_closed[c] for c in cands]
        rounds = [next(
            tuple(map(cands.__getitem__, idx))
            for k in range(1, p + 1)
            for idx in combinations(range(len(res)), k)
            if not reduce(and_, map(res.__getitem__, idx))
        )]
        while parent[last] is not None:
            last, combo = parent[last]
            rounds.append(combo)
        rounds.reverse()
        return ProbeSchedule.from_lists(p, rounds)

    if _clearable(near, meet_low, meet_high, full, p):
        return True, witness(full)
    while frontier:
        territory = frontier.popleft()
        cands = _probe_candidates(nb_closed, meet_low, meet_high, territory)
        res = [territory & ~nb_closed[c] for c in cands]
        for c, t in zip(cands, res):
            spread = low_table[t & 255] | high_table[t >> 8]
            if not seen[spread] and reach(spread, (c,)):
                return True, witness(spread)
        for i, r in enumerate(res if p > 1 else ()):
            for j in range(i + 1, len(res)):
                t = r & res[j]
                spread = low_table[t & 255] | high_table[t >> 8]
                if not seen[spread] and reach(spread, (cands[i], cands[j])):
                    return True, witness(spread)
        for k in range(3, p + 1):
            for idx in combinations(range(len(res)), k):
                t = reduce(and_, map(res.__getitem__, idx))
                spread = low_table[t & 255] | high_table[t >> 8]
                if not seen[spread] and reach(spread, tuple(map(cands.__getitem__, idx))):
                    return True, witness(spread)
    return False, None


def prox_solve(g: Graph) -> tuple[int, ProbeSchedule]:
    """Minimum cop count clearing the graph, and a round-minimal witness.

    The one-vertex graph counts 0 cops, which keeps prox1 <= zeta1
    alongside zeta1(K1) = 0; its witness probes the vertex once.
    """
    for p in range(1, g.n + 1):
        won, witness = prox_winnable(g, p)
        if won:
            return (0 if g.n == 1 else p), witness
    raise AssertionError("unreachable: probing everything always clears")


def prox_number(g: Graph) -> int:
    """Minimum cop count clearing the graph; 0 for the one-vertex graph."""
    return prox_solve(g)[0]
