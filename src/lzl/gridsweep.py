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


def f_eval(i: int, j: int, c: int) -> int:
    """Staircase foot row of column c for the region indexed (i, j)."""
    if c - j > 0:
        return i + 1 + (c - j) // 2
    return i + -((j - c) // 2)  # i + ceil((c-j)/2) for c-j <= 0


@dataclass(frozen=True)
class ForcedRegionIndex:
    """Index (i, j) of a forced region on an n-row panel of width m."""

    i: int
    j: int
    m: int
    n: int

    def foot(self, c: int) -> int:
        return f_eval(self.i, self.j, c)

    def is_empty(self) -> bool:
        # feet fall leftward from the focus and rise to its right, so with
        # the focus j >= 1 the lowest foot on columns [1, m] is column 1's
        return self.foot(1) > self.n


def forced_region(idx: ForcedRegionIndex) -> int:
    """Mask of the region's vertices on the panel lattice, rows clipped to [1, n].

    Vertex (r, c) lives at index (r-1)*m + (c-1) of an n*m lattice.
    """
    bits = 0
    for c in range(1, idx.m + 1):
        for r in range(max(1, idx.foot(c)), idx.n + 1):
            bits |= 1 << ((r - 1) * idx.m + (c - 1))
    return bits


def probe_set(idx: ForcedRegionIndex, window: tuple[int, int]) -> tuple[Coord, ...]:
    """Knight-spaced probes S(i, j) within the column window, unclipped.

    One probe per column of the right parity, one row above the staircase
    foot; rows at or below zero are kept and folded later by clipping.
    """
    lo, hi = window
    out = []
    for c in range(lo, hi + 1):
        delta = c - idx.j
        if (delta > 0 and delta % 2 == 1) or (delta <= 0 and delta % 2 == 0):
            out.append((f_eval(idx.i, idx.j, c) + 1, c))
    return tuple(out)


def natural_step(idx: ForcedRegionIndex) -> ForcedRegionIndex:
    """Post-probe region: (i, j) -> (i+2, j-1), reindexing at focus zero."""
    i, j = idx.i + 2, idx.j - 1
    if j == 0:
        i += (idx.m + 1) // 2
        j = idx.m
    return ForcedRegionIndex(i, j, idx.m, idx.n)


def spread_step(idx: ForcedRegionIndex) -> ForcedRegionIndex:
    """Silent-round relaxation: (i, j) -> (i-1, j)."""
    return ForcedRegionIndex(idx.i - 1, idx.j, idx.m, idx.n)


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
    """Extended-lattice schedule plus per-panel traces for cadence checks."""

    n: int
    m: int
    rounds: list[list[Coord]]
    panel_traces: list[dict[int, dict]]
    panel_starts: list[tuple[int, int]]  # (start round, start index)


def _panel_sweep(
    m: int, n: int, start_round: int, start_i: int, col_offset: int, hard_cap: int
) -> tuple[dict[int, dict], int]:
    """One panel's probe rounds on the unbounded lattice and the round it empties.

    The panel's state is its region index (i, j).  Every round from the
    start round relaxes it; two rounds in five the panel then probes S(i, j)
    and applies the natural move.  S(i, j) is S(0, j) shifted up by i rows,
    so the m patterns are built once, in global columns via the offset; the
    row stagger between panels is carried by the start index.
    """
    patterns: list[tuple[Coord, ...]] = [()]  # focus zero is always reindexed
    for j in range(1, m + 1):
        local = probe_set(ForcedRegionIndex(0, j, m, n), (0, m + 1))
        if len(local) > (m + 3) // 2:
            raise AssertionError("panel probe budget exceeded")
        patterns.append(tuple((r, c + col_offset) for r, c in local))
    # feet fall leftward from the focus j >= 1, so column 1's is the lowest
    # and the region is empty exactly when i > n - f_eval(0, j, 1)
    top = [n - f_eval(0, j, 1) for j in range(m + 1)]
    trace: dict[int, dict] = {}
    # the start round's relaxation lands exactly on the start index
    i, j, t = start_i + 1, m, start_round
    while True:
        if t > hard_cap:
            raise GridVerificationError("grid sweep failed to terminate")
        i -= 1
        if i > top[j]:
            return trace, t
        if (t - start_round) % 5 in (0, 3):
            probes = tuple([(i + dr, c) for dr, c in patterns[j]])
            trace[t] = {"index": (i, j), "probes": probes}
            i, j = i + 2, j - 1
            if j == 0:
                i, j = i + (m + 1) // 2, m
        t += 1


def _sweep(panels: list[tuple[int, int, int]], m: int, n: int) -> GridSweepPlan:
    """Run the panels until every region is empty, then a 5m-round margin.

    Each panel is (start round, start index, column offset); a round's
    probes are the panels' probes in panel order.
    """
    hard_cap = 10 * m * (n + 4 * m) + 100
    sweeps = [_panel_sweep(m, n, *panel, hard_cap) for panel in panels]
    rounds: list[list[Coord]] = [
        [] for _ in range(max(end for _, end in sweeps) + 5 * m)
    ]
    for trace, _ in sweeps:
        for t, entry in trace.items():
            rounds[t - 1].extend(entry["probes"])
    return GridSweepPlan(
        n=n,
        m=m,
        rounds=rounds,
        panel_traces=[trace for trace, _ in sweeps],
        panel_starts=[(start_round, start_i) for start_round, start_i, _ in panels],
    )


def panel_schedule(
    m: int, n: int, *, start_round: int = 1, start_index: int | None = None
) -> GridSweepPlan:
    """Single-panel sweep on columns [1, m], probes on the window [0, m+1]."""
    if m % 2 == 0:
        raise ScheduleError("panel width must be odd")
    start_i = -2 * m if start_index is None else start_index
    return _sweep([(start_round, start_i, 0)], m, n)


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


def clip_schedule(
    plan: GridSweepPlan, n: int, *, n_cols: int | None = None
) -> ProbeSchedule:
    """Clip an extended-lattice plan onto the finite n-row lattice.

    Probes outside [0, n+1] x [0, n_cols+1] are deleted and border probes
    fold inward.  A row maps to the offset of its clipped row and a column
    to its clipped column index; a row or column outside that band has no
    entry, which deletes the probe.
    """
    n_cols = n if n_cols is None else n_cols
    row_offset = {r: (min(max(r, 1), n) - 1) * n_cols for r in range(n + 2)}
    col_offset = {c: min(max(c, 1), n_cols) - 1 for c in range(n_cols + 2)}
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
    coords = [[r, c] for r in range(1, n + 1) for c in range(1, n_cols + 1)]
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
