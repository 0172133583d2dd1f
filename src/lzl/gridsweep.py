"""Knight-spaced diagonal sweeps for the n-by-n grid, budget m+3.

The sweep confines the robber to a forced region F(i, j): everything on or
above a diagonal staircase with column of focus j.  The natural cop move
probes the knight-spaced set S(i, j) along the staircase foot, shrinking
the region to F(i+2, j-1); a silent round lets it relax to F(i-1, j); and
a region whose focus wraps past column zero is reindexed as F(i+(m+1)/2, m)
over the same vertices.  One panel of width m is swept by (m+3)/2 cops
active two rounds in five; five panels staggered one round and (m-1)/2 rows
apart tile the full grid with two cop teams, m+3 cops in total.  Schedules
are generated on the unbounded lattice in coordinates, then clipped to the
finite grid by deleting far-out probes and folding border probes inward,
and finally verified by the contamination engine, which is the acceptance
instrument for the whole construction.

Coordinates are (row, column), 1-based inside the grid, row 1 at the
bottom; forced regions extend upward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GridVerificationError, ScheduleError
from .graphs import generate
from .prox import ProbeSchedule, ScheduleTrace, run_schedule

Coord = tuple[int, int]
Probes = tuple[Coord, ...]


def f_eval(i: int, j: int, c: int) -> int:
    """Staircase foot row of column c for the region indexed (i, j)."""
    if c - j > 0:
        return i + 1 + (c - j) // 2
    return i + -((j - c) // 2)  # i + ceil((c-j)/2) for c-j <= 0


def probe_set(j: int, m: int) -> Probes:
    """Knight-spaced probes S(0, j) of a width-m panel on the column window [0, m+1].

    One probe per column of the right parity, one row above the staircase
    foot; S(i, j) is this pattern shifted up i rows.  Rows at or below zero
    are kept and folded later by clipping.
    """
    out = []
    for c in range(m + 2):
        delta = c - j
        if (delta > 0 and delta % 2 == 1) or (delta <= 0 and delta % 2 == 0):
            out.append((f_eval(0, j, c) + 1, c))
    return tuple(out)


def m_of_n(n: int) -> int:
    """The odd panel width m with 0 <= 5m - n <= 9."""
    if n < 1:
        raise ValueError("n must be positive")
    m = 1
    while not 0 <= 5 * m - n <= 9:
        m += 2
    return m


@dataclass
class GridSweepPlan:
    """Extended-lattice schedule: every round's probes as (row, col) pairs."""

    n: int
    m: int
    rounds: list[list[Coord]]
    panel_starts: list[tuple[int, int]]  # (start round, start index)


def _panel_sweep(
    patterns: list[Probes], top: list[int], start_round: int, start_i: int, hard_cap: int
) -> tuple[dict[int, Probes], int]:
    """One panel's probes by round on the unbounded lattice, and the round it empties.

    The panel's state is its region index (i, j).  Every round from the
    start round relaxes it; two rounds in five the panel then probes S(i, j),
    the focus-j pattern shifted up i rows, and applies the natural move.
    The region is empty exactly when i > top[j].
    """
    m = len(patterns) - 1
    probe_rounds: dict[int, Probes] = {}
    # the start round's relaxation lands exactly on the start index
    i, j, t = start_i + 1, m, start_round
    while True:
        if t > hard_cap:
            raise GridVerificationError("grid sweep failed to terminate")
        i -= 1
        if i > top[j]:
            return probe_rounds, t
        if (t - start_round) % 5 in (0, 3):
            probe_rounds[t] = tuple([(i + dr, c) for dr, c in patterns[j]])
            i, j = i + 2, j - 1
            if j == 0:
                i, j = i + (m + 1) // 2, m
        t += 1


def _sweep(panels: list[tuple[int, int, int]], m: int, n: int) -> GridSweepPlan:
    """Run the panels until every region is empty, then a 5m-round margin.

    Each panel is (start round, start index, column offset); a round's
    probes are the panels' probes in panel order.  The m focus patterns are
    built once and moved into each panel's columns by its offset; the row
    stagger between panels is carried by the start index.
    """
    hard_cap = 10 * m * (n + 4 * m) + 100
    local = [probe_set(j, m) for j in range(1, m + 1)]
    if max(map(len, local)) > (m + 3) // 2:
        raise AssertionError("panel probe budget exceeded")
    # feet fall leftward from the focus j >= 1, so column 1's is the lowest
    # and the region is empty exactly when i > n - f_eval(0, j, 1)
    top = [n - f_eval(0, j, 1) for j in range(m + 1)]
    sweeps = []
    for start_round, start_i, col_offset in panels:
        # focus zero is always reindexed, so it has no pattern
        patterns = [()] + [tuple([(r, c + col_offset) for r, c in p]) for p in local]
        sweeps.append(_panel_sweep(patterns, top, start_round, start_i, hard_cap))
    rounds: list[list[Coord]] = [
        [] for _ in range(max(end for _, end in sweeps) + 5 * m)
    ]
    for probe_rounds, _ in sweeps:
        for t, probes in probe_rounds.items():
            rounds[t - 1].extend(probes)
    return GridSweepPlan(
        n=n,
        m=m,
        rounds=rounds,
        panel_starts=[(start_round, start_i) for start_round, start_i, _ in panels],
    )


def five_panel_schedule(n: int) -> GridSweepPlan:
    """Five staggered panels covering columns [1, 5m], two teams of cops.

    Panel j starts in round j with start index -2m + (j-1)(m-1)/2 on
    columns [(j-1)m+1, jm]; it is active on rounds congruent to j and j+3
    modulo five, so exactly two panels probe each round and the per-round
    total stays within m+3.
    """
    m = m_of_n(n)
    panels = [(j, -2 * m + (j - 1) * (m - 1) // 2, (j - 1) * m) for j in range(1, 6)]
    return _sweep(panels, m, n)


def clip_schedule(plan: GridSweepPlan, n: int) -> ProbeSchedule:
    """Clip an extended-lattice plan onto the finite n-by-n lattice.

    Probes outside [0, n+1]^2 are deleted and border probes fold inward.
    A row maps to the offset of its clipped row and a column to its clipped
    column index; a row or column outside that band has no entry, which
    deletes the probe.
    """
    row_offset = {r: (min(max(r, 1), n) - 1) * n for r in range(n + 2)}
    col_offset = {c: min(max(c, 1), n) - 1 for c in range(n + 2)}
    vertex_rounds = [
        frozenset([
            row_offset[r] + col_offset[c]
            for r, c in probes
            if r in row_offset and c in col_offset
        ])
        for probes in plan.rounds
    ]
    while vertex_rounds and not vertex_rounds[-1]:
        vertex_rounds.pop()
    # row-major vertex ids sort as their (row, col) pairs do; the rounds
    # share this table's [r, c] lists
    coords = [[r, c] for r in range(1, n + 1) for c in range(1, n + 1)]
    coord_rounds = [[coords[v] for v in sorted(vs)] for vs in vertex_rounds]
    budget = max((len(r) for r in vertex_rounds), default=1) or 1
    return ProbeSchedule.from_lists(
        budget,
        vertex_rounds,
        metadata={
            "strategy": "grid-sweep",
            "n": n,
            "m": plan.m,
            "panel_starts": plan.panel_starts,
            "rounds_rc": coord_rounds,  # 1-based (row, col) per probe
            "notes": [
                "panel activity residues follow the five-round cadence",
                "termination by region emptiness plus a 5m-round margin",
            ],
        },
    )


def grid_strategy(n: int) -> tuple[ProbeSchedule, ScheduleTrace]:
    """Verified m+3 budget schedule for the n-by-n grid.

    Verification failure is a hard error carrying the trace: the clipped
    schedule passing the contamination engine is the acceptance instrument,
    not a best-effort fallback.
    """
    if n < 2:
        raise ScheduleError("grid strategy needs n >= 2")
    # the graph's order cap is checked before any planning
    g = generate("grid", n=n)
    plan = five_panel_schedule(n)
    schedule = clip_schedule(plan, n)
    if schedule.cops > plan.m + 3:
        raise GridVerificationError(
            f"clipped budget {schedule.cops} exceeds m+3 = {plan.m + 3}"
        )
    trace = run_schedule(g, schedule)
    if not trace.cleared:
        raise GridVerificationError(
            f"grid sweep for n={n} failed contamination verification", trace
        )
    return schedule, trace
