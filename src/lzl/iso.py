"""Exact isoperimetric profiles, the h-index, and bound rules.

Every profile is exact.  A tree's profiles come from a min-plus dynamic
program over its rooted subtrees, O(n^2) in the order.  Any other graph is
scanned subset by subset: every subset of the low L vertices is one lane
of a packed int, which holds the neighbourhood size of each lane's set in
one half and its edge boundary in the other, and the subsets of the other
n - L vertices are walked in Gray-code order.  A step adds or subtracts a
few tables built once by lane doubling and takes one lane-wise minimum,
so each int operation updates all 2^(L+1) lanes; L is fixed by the order,
min(n, n // 2 + 2, 13).  On top of the profiles sit the h-index, the
arithmetic lower-bound formulas, and the assembled per-graph bounds report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

from .errors import SizeCapError
from .graphs import Graph, is_c4_free, iter_bits, max_degree, rooted_tree
from .strategies import depth_bound

#: Largest order the subset scan accepts: 2^25 subsets.  Trees take the
#: dynamic program instead and are capped only by the graph order cap.
ISO_CAP = 25


#: A profile: entry k-1 is Phi(G, k), the least boundary of a k-subset.
Profile = tuple[int, ...]


def iso_profile(g: Graph) -> tuple[Profile, Profile]:
    """Exact (vertex, edge) profiles Phi(G, k) for k = 1..n.

    A tree gets them from ``_tree_profiles`` at any order; any other graph
    is scanned by ``_scan_profiles``, which ``ISO_CAP`` caps.
    """
    if g.is_tree():
        return _tree_profiles(g)
    return _scan_profiles(g)


def _scan_profiles(g: Graph) -> tuple[Profile, Profile]:
    """(vertex, edge) profiles Phi(G, k) for all k from one subset scan.

    The low L vertices index the lanes: lane S_L of a packed int holds a
    value for the low subset S_L.  One int carries two such arrays, the
    closed neighbourhood size T = |N[S_L | S_H]| in entries [0, 2^L) and the
    edge boundary E of S_L | S_H in entries [2^L, 2^(L+1)).  The subsets
    S_H of the other, high, vertices are walked in Gray order, one vertex y
    in or out per step, and each step adds or subtracts tables built once:

    * ``miss[x]``, lane S_L set iff x lies outside N[S_L], in the T half:
      T changes by it where the count of S_H members covering x crosses
      between 0 and 1;
    * ``hits2[y]``, lane S_L holding 2|N(y) & S_L|, in the E half;
    * ``e_step[d]``, d in every lane of the E half, for each value
      d = deg y - 2|N(y) & S_H| that a step can meet,

    so that E moves by e_step[d] - hits2[y] as y enters and by the negation
    as it leaves.  The tables of the low vertices grow by lane doubling: the
    lanes of the sets holding vertex i are those of the sets without it,
    shifted up 2^i lanes and changed by what i adds, so the cut table
    follows cut(S | {i}) = cut(S) + deg i - 2|N(i) & S| with no per-subset
    loop.
    One lane-wise minimum per step keeps the least T and E of each |S_H|;
    the halves are split apart and folded into the sizes |S_H| + |S_L| = k,
    which leaves the least T and E of each k, and the vertex boundary T - k.

    The split is fixed: L = min(n, n // 2 + 2, 13).  A step costs the same
    interpreter time at any width, so below the cap the lanes take about
    two more vertices than an even split does; 13 low vertices, 2^14
    entries of at most 11 bits, keep every packed int under 25 KB, and
    wider ints run into memory bandwidth.  Best of 7 to 41 interleaved
    calls, in ms, on one random connected graph per order with m = 2.4n,
    at each L tried, the rule's in brackets (CPython 3.11, 2 vCPUs):

    ==  ==  ======================================================
    n   m   ms at L
    ==  ==  ======================================================
    8   19  4: 0.085   5: 0.087    [6: 0.088]   7: 0.091
    12  29  6: 0.21    7: 0.19     [8: 0.20]    9: 0.21
    16  38  8: 0.80    9: 0.79     [10: 0.78]   11: 0.85
    20  48  10: 7.4    11: 6.7     [12: 6.8]    13: 7.0
    21  50  11: 12.7   [12: 12.1]  13: 12.7
    22  53  11: 23.2   12: 22.6    [13: 22.3]   14: 24.8
    24  58  12: 83     [13: 88]    14: 83
    25  60  12: 152    [13: 144]   14: 143
    ==  ==  ======================================================

    The rule's time is within 6% of the best L tried at every order, and
    from n = 20 to 22 it beats the even split L = ceil(n/2) by 4-9%.
    """
    n = g.n
    if n > ISO_CAP:
        raise SizeCapError("isoperimetric enumeration", n, ISO_CAP)
    adj = g.adj_bits
    degs = [row.bit_count() for row in adj]
    low = min(n, n // 2 + 2, 13)
    size, count = 1 << low, 2 << low
    # a T lane holds at most n and an E lane at most m, both below inf
    lanes = _Lanes(max(n, g.m), count)
    w, half = lanes.w, lanes.w << low
    units = [lanes.fill(1, 1 << i) for i in range(low)]  # 2^i entries of 1

    def hits(row: int, upto: int) -> int:
        """Lane S is |row & S|, for S within the low vertices below ``upto``."""
        lane = 0
        for i in range(upto):
            lane |= (lane + units[i] if row >> i & 1 else lane) << (w << i)
        return lane

    miss = []  # lane S of miss[x] is 1 iff x lies outside N[S]
    for x in range(n):
        lane = 1
        for i in range(low):
            if not (adj[x] | 1 << x) >> i & 1:
                lane |= lane << (w << i)
        miss.append(lane)
    cut = 0  # lane S is the edge boundary of S
    for i in range(low):
        cut |= (cut + degs[i] * units[i] - (hits(adj[i], i) << 1)) << (w << i)
    hits2 = {y: hits(adj[y], low) << (half + 1) for y in range(low, n)}
    closed = {y: tuple(iter_bits(adj[y] | 1 << y)) for y in range(low, n)}
    ones_e = lanes.fill(1, size) << half
    # d = deg y - 2|N(y) & S_H| for each count of high neighbours of y in S_H
    e_step = {d: d * ones_e for d in {degs[y] - 2 * c for y in range(low, n)
                                      for c in range((adj[y] >> low).bit_count() + 1)}}

    x = (lanes.fill(n, size) - sum(miss)) | cut << half
    tops = lanes.top(count)
    best = [lanes.fill(lanes.inf, count)] * (n - low + 1)
    best[0] = x
    cover = [0] * n
    in_h = size_h = 0
    for q in range(1, 1 << (n - low)):
        y = low + (q & -q).bit_length() - 1
        in_h ^= 1 << y
        d = degs[y] - 2 * (adj[y] & in_h).bit_count()
        if in_h >> y & 1:
            size_h += 1
            x += e_step[d] - hits2[y]
            for v in closed[y]:
                was = cover[v]
                cover[v] = was + 1
                if not was:
                    x += miss[v]
        else:
            size_h -= 1
            x += hits2[y] - e_step[d]
            for v in closed[y]:
                now = cover[v] - 1
                cover[v] = now
                if not now:
                    x -= miss[v]
        best[size_h] = lanes.min(best[size_h], x, tops)

    # Fold low vertex i into the size: lane S | {i} of entry k moves to lane S
    # of entry k + 1.  Once every low vertex is folded, entry k is one lane
    # holding the minimum over all k-subsets.  Every size is reached, so no
    # lane holds inf: the first and the new last entry each have one source.
    # A round's masks are built once and serve both halves.
    best_t = [b & ((1 << half) - 1) for b in best]
    best_e = [b >> half for b in best]
    for i in reversed(range(low)):
        at = w << i
        keep, top = (1 << at) - 1, lanes.top(1 << i)
        for folded in (best_t, best_e):
            folded[:] = [
                folded[0] & keep,
                *[lanes.min(kept & keep, moved >> at, top)
                  for kept, moved in zip(folded[1:], folded)],
                folded[-1] >> at,
            ]
    return tuple(t - k for k, t in enumerate(best_t))[1:], tuple(best_e[1:])


class _Lanes:
    """Arrays of at most ``count`` small non-negative ints, each packed into one int.

    Entry s of an array sits in bits [s*w, (s+1)*w); callers keep the entry
    count beside it.  ``inf`` = 2^(w-2) - 1 marks a size that no set
    reaches and exceeds ``largest``, every value the caller stores.  Entries
    stay at most inf + 1, and ``convolve`` adds only entries below inf to
    them, so every sum stays below 2^(w-1), the top bit of its field, which
    ``min`` borrows from; ``convolve`` returns entries of at most inf.
    ``min`` takes those top bits as the mask ``top(count)``, which a caller
    builds once per entry count rather than once per minimum.
    """

    def __init__(self, largest: int, count: int):
        self.w = (largest + 1).bit_length() + 2
        self.inf = (1 << (self.w - 2)) - 1
        self.longest = count
        self.ones = ((1 << (self.longest * self.w)) - 1) // ((1 << self.w) - 1)
        self.tops = self.ones << (self.w - 1)

    def fill(self, value: int, count: int) -> int:
        """``count`` entries equal to ``value``."""
        return (self.ones >> ((self.longest - count) * self.w)) * value

    def top(self, count: int) -> int:
        """The top bit of each of ``count`` entries, the mask ``min`` borrows from."""
        return self.tops >> ((self.longest - count) * self.w)

    def min(self, x: int, y: int, top: int) -> int:
        """Entrywise minimum of two arrays, given ``top(count)`` for their entry count."""
        diff = (x | top) - y  # top bit set where x >= y, and x - y below it there
        ge = diff & top
        return x - (diff & (ge - (ge >> (self.w - 1))))

    def convolve(self, a: int, p: int, b: int, q: int) -> int:
        """Min-plus product of ``a`` (p entries) and ``b`` (q entries).

        Entry k of the result, one of p + q - 1, is the least a[i] + b[k-i],
        or ``inf`` when every such sum involves ``inf``.
        """
        if p > q:
            a, p, b, q = b, q, a, p
        w, inf = self.w, self.inf
        count = p + q - 1
        span = (1 << (q * w)) - 1
        one = self.fill(1, q)
        out = self.fill(inf, count)
        top = self.top(count)
        for i in range(p):
            x = (a >> (i * w)) & ((1 << w) - 1)
            if x < inf:
                shift = i * w
                # entries outside the window [i, i + q) keep their value
                term = ((b + x * one) << shift) | (out & ~(span << shift))
                out = self.min(out, term, top)
        return out

    def unpack(self, x: int, count: int) -> list[int]:
        """The ``count`` entries of ``x``, entry 0 first."""
        bits = format(x, f"0{count * self.w}b")
        return [int(bits[j : j + self.w], 2) for j in range(0, len(bits), self.w)][::-1]


def _tree_profiles(g: Graph) -> tuple[Profile, Profile]:
    """Exact (vertex, edge) profiles of a tree by a min-plus DP over its subtrees.

    Rooted at 0 and walked deepest level first, each vertex v keeps, for
    every size of S within its subtree, the least boundary inside the
    subtree in three states: ``a`` with v in S, ``o`` with v outside S and
    not counted, ``c`` with v and all its children outside S.  A vertex
    outside S is on the boundary iff its parent or a child is in S, so a
    child outside S costs o + 1 under a parent in S and min(c, o + 1) under
    a parent outside S.  The edge profile keeps two states, v in S (``ei``)
    and v outside S (``eo``), and pays 1 per cut edge.  A child is merged
    into its parent by one min-plus convolution per state, truncated to the
    merged subtree's size: O(n^2) entry operations in all, with each array
    packed into one int so that an int operation covers all its entries.
    """
    lanes = _Lanes(g.n, g.n + 1)
    # a lone vertex: sizes 0 and 1, with the vertex in S or outside S
    alone_in, alone_out = lanes.inf, lanes.inf << lanes.w
    _, children, depth = rooted_tree(g, 0)
    up: list[tuple | None] = [None] * g.n  # a vertex's costs as seen by its parent
    for v in sorted(range(g.n), key=depth.__getitem__, reverse=True):
        count = 2
        a, o, c, ei, eo = alone_in, alone_out, alone_out, alone_in, alone_out
        for u in children[v]:
            q, to_in, to_out, quiet, e_in, e_out = up[u]
            up[u] = None
            a = lanes.convolve(a, count, to_in, q)
            o = lanes.convolve(o, count, to_out, q)
            c = lanes.convolve(c, count, quiet, q)
            ei = lanes.convolve(ei, count, e_in, q)
            eo = lanes.convolve(eo, count, e_out, q)
            count += q - 1
        one, top = lanes.fill(1, count), lanes.top(count)
        quiet = lanes.min(c, o + one, top)
        up[v] = (
            count,
            lanes.min(a, o + one, top),
            lanes.min(a, quiet, top),
            quiet,
            lanes.min(ei, eo + one, top),
            lanes.min(ei + one, eo, top),
        )
    vertex = lanes.unpack(up[0][2], count)[1:]
    edge = lanes.unpack(lanes.min(ei, eo, top), count)[1:]
    return tuple(vertex), tuple(edge)


def h_index(values: Sequence[int]) -> int:
    """Largest h with h consecutive entries all >= h (0 when none).

    The window must lie inside the sequence domain; an all-zero sequence
    has no feasible window and yields 0.
    """
    if not values:
        raise ValueError("h_index needs a nonempty sequence")
    n = len(values)
    for h in range(min(n, max(values)), 0, -1):
        run = 0
        for x in values:
            run = run + 1 if x >= h else 0
            if run >= h:
                return h
    return 0


def kary_bound_report(k: int, d: int) -> tuple[int, int]:
    """The depth-based (lower, upper) bounds on prox1 of the k-ary tree of depth d.

    The strict rational lower bound (3/80)(d-2)(2/(2k+3)) becomes its
    floor plus one, since prox1 is an integer; the upper bound is the
    depth bound ``depth_bound(d)``.
    """
    if k < 2 or d < 2:
        raise ValueError("kary bounds need k >= 2 and d >= 2")
    return 3 * (d - 2) // (40 * (2 * k + 3)) + 1, depth_bound(d)


@dataclass(frozen=True)
class DerivedBound:
    target: str  # "prox1" | "zeta1"
    kind: str  # "lower" | "upper"
    value: int
    rule: str


@dataclass
class BoundsReport:
    """Every applicable inequality instantiated for one graph."""

    graph_id: str
    n: int
    m: int
    max_degree: int
    quantities: dict
    bounds: list[DerivedBound] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def best(self, target: str) -> tuple[int | None, int | None]:
        lowers = [b.value for b in self.bounds if b.target == target and b.kind == "lower"]
        uppers = [b.value for b in self.bounds if b.target == target and b.kind == "upper"]
        return (max(lowers) if lowers else None, min(uppers) if uppers else None)

    def as_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "n": self.n,
            "m": self.m,
            "max_degree": self.max_degree,
            "quantities": {k: v for k, v in sorted(self.quantities.items())},
            "bounds": [asdict(b) for b in self.bounds],
            "notes": list(self.notes),
            "best": {
                t: {"lower": lo, "upper": hi}
                for t in ("prox1", "zeta1")
                for lo, hi in [self.best(t)]
            },
        }


#: the quantities ``assemble_bounds`` reads; ``kary_shape`` is a (k, d) pair
QUANTITIES = frozenset({
    "prox1", "zeta1", "h_vertex", "h_edge", "phi_vertex_peak", "phi_edge_peak",
    "pathwidth", "domination_number", "grid_side", "kary_shape",
})


def assemble_bounds(g: Graph, quantities: dict, *, graph_id: str = "") -> BoundsReport:
    """Chain every applicable inequality through the known quantities.

    ``quantities`` maps names in :data:`QUANTITIES` to known values; a name
    outside it raises ``ValueError``.  A lower bound exceeding an upper
    bound for the same target is a hard inconsistency and raises instead
    of being clamped.
    """
    unknown = quantities.keys() - QUANTITIES
    if unknown:
        raise ValueError(f"unknown quantities: {', '.join(sorted(unknown))}")
    delta = max_degree(g)
    prox1 = quantities.get("prox1")
    report = BoundsReport(
        graph_id=graph_id or g.content_hash(),
        n=g.n,
        m=g.m,
        max_degree=delta,
        quantities=dict(quantities),
    )
    add = report.bounds.append

    if g.n > 1:
        add(DerivedBound("zeta1", "upper", g.n - 1, "order-cap"))
    tree = g.is_tree()

    if prox1 is not None:
        add(DerivedBound("zeta1", "lower", prox1, "relaxation-order"))
        add(DerivedBound("zeta1", "upper", delta * prox1, "degree-lift"))
        if delta >= 1 and prox1 >= delta * delta:
            add(DerivedBound("zeta1", "upper", prox1, "large-proximity-equality"))
        if tree:
            add(DerivedBound("zeta1", "upper", prox1 + 1, "tree-gap-one"))
            if prox1 >= delta:
                add(DerivedBound("zeta1", "upper", prox1, "tree-degree-equality"))
    if "zeta1" in quantities:
        add(DerivedBound("prox1", "upper", quantities["zeta1"], "relaxation-order"))
    if "pathwidth" in quantities:
        add(DerivedBound("zeta1", "upper", quantities["pathwidth"], "pathwidth-sweep"))
    if "domination_number" in quantities and is_c4_free(g):
        add(DerivedBound("zeta1", "upper", quantities["domination_number"] + delta,
                         "domination-c4free"))
    if delta >= 1:
        # prox1 > H_V/(Delta+1) and prox1 > H_E/((Delta+1)*Delta) are strict
        # and prox1 is an integer, so each bound is the floor plus one
        if "h_vertex" in quantities:
            add(DerivedBound("prox1", "lower", quantities["h_vertex"] // (delta + 1) + 1,
                             "h-index-vertex"))
        if "h_edge" in quantities:
            add(DerivedBound("prox1", "lower",
                             quantities["h_edge"] // ((delta + 1) * delta) + 1, "h-index-edge"))
    if "grid_side" in quantities:
        side = quantities["grid_side"]
        lo = -(-side // 5) + 1
        add(DerivedBound("prox1", "lower", lo, "grid-window"))
        add(DerivedBound("prox1", "upper", lo + 3, "grid-window"))
        if side >= 11:
            rule = "grid-window-localization-cited"
            add(DerivedBound("zeta1", "lower", lo, rule))
            add(DerivedBound("zeta1", "upper", lo + 3, rule))
            report.notes.append(
                "the grid zeta1 window is cited from the paper; no policy "
                "in this package verifies it"
            )
    if "kary_shape" in quantities:
        lower, upper = kary_bound_report(*quantities["kary_shape"])
        rule = "kary-depth-cited"
        add(DerivedBound("prox1", "lower", lower, rule))
        add(DerivedBound("prox1", "upper", upper, rule))
        report.notes.append(
            "the k-ary prox1 depth bounds are cited from the paper; bounds "
            "does not verify them"
        )
    report.notes.append(
        "asymptotic separator and binary-tree statements carry hidden "
        "constants and are never instantiated numerically"
    )

    for target in ("prox1", "zeta1"):
        lo, hi = report.best(target)
        if lo is not None and hi is not None and lo > hi:
            raise AssertionError(
                f"{target}: derived lower bound {lo} exceeds upper bound {hi}"
            )
    return report


def profile_to_csv(profile: Profile) -> str:
    """One ``k,phi,exact`` row per entry; every profile is exact."""
    lines = ["k,phi,exact"]
    for k, phi in enumerate(profile, start=1):
        lines.append(f"{k},{phi},true")
    return "\n".join(lines) + "\n"
