"""Knight-spaced diagonal sweeps for the n-by-n grid, budget m+3.

The sweep confines the robber to a forced region F(i, j): everything on or
above a diagonal staircase with column of focus j.  The natural cop move
probes the knight-spaced set S(i, j) along the staircase foot, shrinking
the region to F(i+2, j-1); a silent round lets it relax to F(i-1, j); and
a region whose focus wraps past column zero is reindexed as F(i+(m+1)/2, m)
over the same vertices.  One panel of width m is swept by (m+3)/2 cops
active two rounds in five; five panels staggered one round and (m-1)/2 rows
apart tile the full grid with two cop teams, m+3 cops in total.

A plan is made on the unbounded lattice and holds no coordinates: each
active panel round is one placement (column offset, focus j, row shift i),
which stands for the focus-j pattern S(0, j) moved i rows up and the offset
right.  Clipping expands the placements onto the finite grid, deleting
far-out probes and folding border probes inward, and the contamination
engine verifies the result; it is the acceptance instrument for the whole
construction.

Coordinates are (row, column), 1-based inside the grid, row 1 at the
bottom; forced regions extend upward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .graphs import generate
from .prox import ProbeSchedule, ScheduleTrace, run_schedule

Coord = tuple[int, int]
Probes = tuple[Coord, ...]
#: (column offset, focus j, row shift i): the focus-j probe pattern moved into place
Placement = tuple[int, int, int]
#: a clipped pattern: its interior row shifts lo, hi, its ids at shift zero, its probes
Template = tuple[int, int, tuple[int, ...], Probes]

#: What the grid-sweep report says of the construction it verified.
SWEEP_NOTES = [
    "panel activity residues follow the five-round cadence",
    "termination by region emptiness plus a 5m-round margin",
]


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
    """Extended-lattice schedule: every round's panel placements, in panel order.

    A placement (column offset, focus j, row shift i) stands for the probes
    (r + i, c + offset) over (r, c) in ``probe_set(j, m)``; clipping expands it.
    """

    m: int
    rounds: list[list[Placement]]


def _panel_sweep(
    top: list[int], col_offset: int, start_round: int, start_i: int, hard_cap: int
) -> tuple[dict[int, Placement], int]:
    """One panel's placements by round on the unbounded lattice, and the round it empties.

    The panel's state is its region index (i, j).  Every round from the
    start round relaxes it; two rounds in five the panel then probes S(i, j),
    placed at its column offset, and applies the natural move.  The region
    is empty exactly when i > top[j].
    """
    m = len(top) - 1
    placements: dict[int, Placement] = {}
    # the start round's relaxation lands exactly on the start index
    i, j, t = start_i + 1, m, start_round
    while True:
        if t > hard_cap:
            raise AssertionError("grid sweep failed to terminate")
        i -= 1
        if i > top[j]:
            return placements, t
        if (t - start_round) % 5 in (0, 3):
            placements[t] = (col_offset, j, i)
            i, j = i + 2, j - 1
            if j == 0:
                i, j = i + (m + 1) // 2, m
        t += 1


def _sweep(panels: list[tuple[int, int, int]], m: int, n: int) -> GridSweepPlan:
    """Run the panels until every region is empty, then a 5m-round margin.

    Each panel is (start round, start index, column offset); a round's
    placements are the panels' in panel order.  The row stagger between
    panels is carried by the start index.
    """
    hard_cap = 10 * m * (n + 4 * m) + 100
    if max(len(probe_set(j, m)) for j in range(1, m + 1)) > (m + 3) // 2:
        raise AssertionError("panel probe budget exceeded")
    # feet fall leftward from the focus j >= 1, so column 1's is the lowest
    # and the region is empty exactly when i > n - f_eval(0, j, 1)
    top = [n - f_eval(0, j, 1) for j in range(m + 1)]
    sweeps = [
        _panel_sweep(top, col_offset, start_round, start_i, hard_cap)
        for start_round, start_i, col_offset in panels
    ]
    rounds: list[list[Placement]] = [
        [] for _ in range(max(end for _, end in sweeps) + 5 * m)
    ]
    for placements, _ in sweeps:
        for t, placement in placements.items():
            rounds[t - 1].append(placement)
    return GridSweepPlan(m, rounds)


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


def _template(pattern: Probes, col_offset: int, n: int) -> Template:
    """A focus pattern moved ``col_offset`` columns right, numbered on the n-by-n grid.

    Probes whose column leaves [0, n+1] are deleted and the rest fold their
    column into [1, n].  Returns the row shifts [lo, hi] that keep every row
    in [1, n], the probes' vertex ids at row shift zero, and the probes as
    (row, 0-based column) for shifts outside [lo, hi].
    """
    kept = tuple(
        (r, min(max(c + col_offset, 1), n) - 1)
        for r, c in pattern
        if 0 <= c + col_offset <= n + 1
    )
    if not kept:
        return 1, 0, (), ()
    rows = [r for r, _ in kept]
    return 1 - min(rows), n - max(rows), tuple((r - 1) * n + c for r, c in kept), kept


def clip_schedule(plan: GridSweepPlan, n: int) -> ProbeSchedule:
    """Expand an extended-lattice plan onto the finite n-by-n lattice.

    Probes outside [0, n+1]^2 are deleted and border probes fold inward.
    Each focus pattern is clipped and numbered once per column offset, as a
    template.  A placement whose rows all lie in [1, n] adds i*n to the
    template's ids; any other goes probe by probe through the row table,
    which maps a row to the offset of its clipped row and has no entry for
    a row outside [0, n+1], deleting the probe.  Probes that fold onto one
    vertex are kept once, and each round's ids are sorted once, into the
    form ``ProbeSchedule`` holds.
    """
    m = plan.m
    row_offset = {r: (min(max(r, 1), n) - 1) * n for r in range(n + 2)}
    # column offset -> the templates of foci 1..m
    templates: dict[int, list[Template]] = {}
    vertex_rounds = []
    for placements in plan.rounds:
        ids: list[int] = []
        for col_offset, j, i in placements:
            by_focus = templates.get(col_offset)
            if by_focus is None:
                by_focus = templates[col_offset] = [
                    _template(probe_set(f, m), col_offset, n) for f in range(1, m + 1)
                ]
            lo, hi, bases, probes = by_focus[j - 1]
            if lo <= i <= hi:
                shift = i * n
                ids += [b + shift for b in bases]
            else:
                ids += [row_offset[i + r] + c for r, c in probes if i + r in row_offset]
        vertex_rounds.append(tuple(sorted(set(ids))))
    while vertex_rounds and not vertex_rounds[-1]:
        vertex_rounds.pop()
    budget = max((len(r) for r in vertex_rounds), default=1) or 1
    return ProbeSchedule(budget, tuple(vertex_rounds))


def grid_strategy(n: int) -> tuple[ProbeSchedule, ScheduleTrace]:
    """Verified m+3 budget schedule for the n-by-n grid.

    Verification failure is an engine fault (``AssertionError``): the clipped
    schedule passing the contamination engine is the acceptance instrument,
    not a best-effort fallback.
    """
    if n < 2:
        raise UsageError("grid strategy needs n >= 2")
    # the graph's order cap is checked before any planning
    g = generate("grid", n=n)
    plan = five_panel_schedule(n)
    schedule = clip_schedule(plan, n)
    if schedule.cops > plan.m + 3:
        raise AssertionError(f"clipped budget {schedule.cops} exceeds m+3 = {plan.m + 3}")
    trace = run_schedule(g, schedule)
    if not trace.cleared:
        raise AssertionError(f"grid sweep for n={n} failed contamination verification")
    return schedule, trace
