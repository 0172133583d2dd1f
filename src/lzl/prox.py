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
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Generator, Iterable

from .errors import ScheduleError, SizeCapError
from .graphs import (
    Graph,
    check_mask,
    closed_nb_bits,
    closed_nb_table,
    mask_of,
    neighbor_tuples,
)

#: Largest order the exact prox solver accepts.
PROX_CAP = 16


@dataclass(frozen=True)
class ProbeSchedule:
    """Non-adaptive cop plan: a declared budget and per-round probe sets."""

    cops: int
    rounds: tuple[frozenset[int], ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.cops < 1:
            raise ScheduleError("cop budget must be positive")
        for t, r in enumerate(self.rounds, start=1):
            if len(r) > self.cops:
                raise ScheduleError(
                    f"round {t} probes {len(r)} vertices, budget is {self.cops}"
                )

    @classmethod
    def from_lists(cls, cops: int, rounds: Iterable[Iterable[int]], **kw):
        return cls(cops, tuple(frozenset(r) for r in rounds), **kw)

    def validate_for(self, g: Graph) -> None:
        """Reject a probe that is not a vertex of ``g``, named by its 1-based id."""
        for t, r in enumerate(self.rounds, start=1):
            for v in r:
                if not (isinstance(v, int) and 0 <= v < g.n):
                    raise ScheduleError(f"round {t} probes vertex {v + 1}, outside 1..{g.n}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": "prox",
                "cops": self.cops,
                "rounds": [sorted(v + 1 for v in r) for r in self.rounds],
                "metadata": self.metadata,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ProbeSchedule":
        """Read the file format: ``cops`` and the 1-based probe ids are JSON integers."""
        try:
            data = json.loads(text)
            cops, rounds = data["cops"], [list(r) for r in data["rounds"]]
            metadata, mode = data.get("metadata", {}), data.get("mode", "prox")
        except (ValueError, KeyError, TypeError) as exc:
            raise ScheduleError(f"malformed schedule JSON: {exc!r}") from None
        if mode != "prox":
            raise ScheduleError(f"schedule mode {mode!r} is not 'prox'")
        if type(cops) is not int:  # bool is an int subclass, but true is no count
            raise ScheduleError(f"cops {json.dumps(cops)} is not an integer")
        for t, r in enumerate(rounds, start=1):
            for v in r:
                if type(v) is not int:
                    raise ScheduleError(f"round {t} probes {json.dumps(v)}, not an integer id")
        return cls.from_lists(cops, [[v - 1 for v in r] for r in rounds], metadata=metadata)


@dataclass
class ScheduleTrace:
    """Outcome of running a schedule: verdict plus per-round diagnostics."""

    cleared: bool
    clear_round: int | None
    counts: list[int]
    max_contamination: int
    first_recontamination_round: int | None
    final_bits: int

    def as_dict(self) -> dict:
        return {
            "cleared": self.cleared,
            "clear_round": self.clear_round,
            "per_round_contaminated": self.counts,
            "max_contamination": self.max_contamination,
            "first_recontamination_round": self.first_recontamination_round,
        }


def step_bits(g: Graph, s_bits: int, u_bits: int) -> int:
    """One round: spread S to N[S], then clear N[U]."""
    return closed_nb_bits(g, s_bits) & ~closed_nb_bits(g, u_bits)


def run_schedule(
    g: Graph,
    schedule: ProbeSchedule,
    *,
    initial: int | None = None,
) -> ScheduleTrace:
    """Run the contamination recursion from S = V(G) (or the mask ``initial``).

    A graph with a shift kernel (a lattice) steps S as a mask, a few big-int
    shifts per round.  Any other graph is stepped on neighbor lists: only
    the vertices that change and their neighbors are touched, so a round
    costs O(changed vertices * degree) whatever the order of the graph.
    Both steppers yield each round's territory size and whether it grew,
    and return the final territory as a mask.
    """
    schedule.validate_for(g)
    s = (1 << g.n) - 1 if initial is None else initial
    check_mask(g, s, "initial territory")
    stepper = _shift_steps if g.shifts is not None else _sparse_steps
    steps = stepper(g, schedule, s)

    trace_counts: list[int] = []
    clear_round = None
    recontam_round = None
    max_contam = s.bit_count()
    t = 0
    while True:
        try:
            size, grew = next(steps)
        except StopIteration as done:
            final_bits = done.value
            break
        t += 1
        if recontam_round is None and grew:
            recontam_round = t
        trace_counts.append(size)
        max_contam = max(max_contam, size)
        if size == 0 and clear_round is None:
            clear_round = t

    return ScheduleTrace(
        cleared=clear_round is not None,
        clear_round=clear_round,
        counts=trace_counts,
        max_contamination=max_contam,
        first_recontamination_round=recontam_round,
        final_bits=final_bits,
    )


def _shift_steps(
    g: Graph, schedule: ProbeSchedule, s: int
) -> Generator[tuple[int, bool], None, int]:
    """Step S as a mask: N[S] minus N[probes]."""
    for probes in schedule.rounds:
        new_s = step_bits(g, s, mask_of(probes))
        grew = new_s & ~s != 0
        s = new_s
        yield s.bit_count(), grew
    return s


def _sparse_steps(
    g: Graph, schedule: ProbeSchedule, s: int
) -> Generator[tuple[int, bool], None, int]:
    """Step S on neighbor lists, touching only the vertices that change.

    S is kept as per-vertex flags, with the number of contaminated neighbors
    of every vertex and the fringe: the clean vertices with a contaminated
    neighbor.  A round adds the fringe outside N[probes] and removes S
    inside N[probes], then mends counts and fringe around those vertices.
    """
    nbrs = neighbor_tuples(g)
    inside = [bit == "1" for bit in reversed(format(s, f"0{g.n}b"))]
    size = s.bit_count()
    counts = [0] * g.n
    for v, contaminated in enumerate(inside):
        if contaminated:
            for w in nbrs[v]:
                counts[w] += 1
    fringe = {v for v, c in enumerate(counts) if c and not inside[v]}

    for probes in schedule.rounds:
        probe_nb = set(probes)
        for v in probes:
            probe_nb.update(nbrs[v])
        added = [v for v in fringe if v not in probe_nb]
        removed = [v for v in probe_nb if inside[v]]
        touched = {*added, *removed}
        for v in added:
            inside[v] = True
            for w in nbrs[v]:
                counts[w] += 1
            touched.update(nbrs[v])
        for v in removed:
            inside[v] = False
            for w in nbrs[v]:
                counts[w] -= 1
            touched.update(nbrs[v])
        for v in touched:
            if counts[v] and not inside[v]:
                fringe.add(v)
            else:
                fringe.discard(v)
        size += len(added) - len(removed)
        yield size, bool(added)
    return int("".join("1" if c else "0" for c in reversed(inside)), 2)


def _probe_candidates(g: Graph, territory: int) -> list[int]:
    """Vertices worth probing against the spread territory.

    A vertex is dropped when its in-territory clearing set is contained in
    another candidate's: replacing the dominated probe by the dominating
    one never shrinks the cleared set, so the filter is lossless.
    """
    n = g.n
    keys: list[tuple[int, int]] = []
    for v in range(n):
        k = (g.adj_bits[v] | (1 << v)) & territory
        if k:
            keys.append((v, k))
    out = []
    for v, k in keys:
        dominated = False
        for w, k2 in keys:
            if w == v:
                continue
            if k & ~k2 == 0 and (k != k2 or w < v):
                dominated = True
                break
        if not dominated:
            out.append(v)
    return out


def prox_winnable(g: Graph, p: int) -> tuple[bool, ProbeSchedule | None]:
    """Decide whether p cops clear the graph, with a witness when they do.

    Breadth-first reachability from V(G) to the empty set, so the witness
    is round-minimal.  A territory's future depends only on its spread
    N[S], so states are keyed by N[S] and each is expanded once.
    """
    if g.n > PROX_CAP:
        raise SizeCapError("exact prox solver", g.n, PROX_CAP)
    if p < 1:
        return False, None
    n = g.n
    full = (1 << n) - 1
    adj = g.adj_bits
    nb_closed = [adj[v] | (1 << v) for v in range(n)]
    # N[S] as the OR of one table lookup per byte of S
    byte_tables = [(lo, closed_nb_table(g, range(lo, min(n, lo + 8)))) for lo in range(0, n, 8)]

    # spread territory -> (parent spread territory, probes that led here)
    parent: dict[int, tuple[int, tuple[int, ...]] | None] = {full: None}
    frontier = deque([full])

    while frontier and 0 not in parent:
        territory = frontier.popleft()
        cands = _probe_candidates(g, territory)
        for combo in chain.from_iterable(combinations(cands, k) for k in range(1, p + 1)):
            probe_nb = 0
            for v in combo:
                probe_nb |= nb_closed[v]
            t = territory & ~probe_nb
            spread = 0
            for lo, table in byte_tables:
                spread |= table[(t >> lo) & 255]
            if spread in parent:
                continue
            parent[spread] = (territory, combo)
            if spread == 0:
                break
            frontier.append(spread)

    if 0 not in parent:
        return False, None
    rounds: list[tuple[int, ...]] = []
    cur = 0
    while parent[cur] is not None:
        cur, combo = parent[cur]
        rounds.append(combo)
    rounds.reverse()
    witness = ProbeSchedule.from_lists(p, rounds, metadata={"solver": "bfs"})
    return True, witness


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
