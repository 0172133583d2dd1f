"""Exact isoperimetric profiles, the h-index, and bound rules.

Every profile is exact.  A tree's profiles come from a min-plus dynamic
program over its rooted subtrees, O(n^2) in the order.  Any other graph is
scanned subset by subset: every subset of the low half of the vertices is
one lane of a packed int, and the subsets of the high half are walked in
Gray-code order, so one int operation updates all 2^(n/2) lanes and the
scan takes about 2^(n/2) packed steps.  On top of the profiles sit
the h-index, the arithmetic lower-bound formulas, and the assembled
per-graph bounds report.
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

    The low L = ceil(n/2) vertices index the lanes: lane S_L of a packed
    int holds a value for the low subset S_L.  Tables built once give, per
    lane, |N[S_L]|, the edge boundary of S_L, a 0/1 lane "x not in N[S_L]"
    for each vertex x, and |N(y) & S_L| for each high vertex y.  The high
    subsets S_H are walked in Gray order, keeping how many members of S_H
    cover each vertex in their closed neighbourhoods, so that
    T = |N[S_L | S_H]| changes only where a count crosses 0 and 1, and
    U = sum over y in S_H of |N(y) & S_L|.  The edge boundary of S_L | S_H is
    then E = cut(S_L) + cut(S_H) - 2U.  T and E go into one lane-wise
    minimum per |S_H|; folding the lanes into the sizes |S_H| + |S_L| = k
    then leaves the least T and E of each k, and the vertex boundary T - k.
    """
    n = g.n
    if n > ISO_CAP:
        raise SizeCapError("isoperimetric enumeration", n, ISO_CAP)
    adj = g.adj_bits
    degs = [row.bit_count() for row in adj]
    low = (n + 1) // 2
    size = 1 << low
    # an edge lane sums two boundaries, up to 2m, below the top bit of a lane sized for m
    lanes = _Lanes(max(n, g.m), size)
    w, inf, ones = lanes.w, lanes.inf, lanes.fill(1, size)

    miss = []  # lane S of miss[x] is 1 iff x lies outside N[S]
    for x in range(n):
        lane = 1
        for i in range(low):
            if not (adj[x] | 1 << x) >> i & 1:
                lane |= lane << (w << i)
        miss.append(lane)
    hits = {}  # lane S of hits[y] is |N(y) & S|, for a high vertex y
    for y in range(low, n):
        lane = 0
        for i in range(low):
            lane |= (lane + (adj[y] >> i & 1) * lanes.fill(1, 1 << i)) << (w << i)
        hits[y] = lane
    cuts = [0] * size  # edge boundary of each low subset
    for s in range(1, size):
        v = s.bit_length() - 1
        cuts[s] = cuts[s ^ 1 << v] + degs[v] - 2 * (adj[v] & s).bit_count()
    cut_l = lanes.pack(cuts)

    cover = [0] * n
    t, u, cut_h, in_h, size_h = lanes.fill(n, size) - sum(miss), 0, 0, 0, 0
    best_t = [lanes.fill(inf, size)] * (n - low + 1)
    best_e = list(best_t)
    for q in range(1 << (n - low)):
        if q:
            y = low + (q & -q).bit_length() - 1
            in_h ^= 1 << y
            step = 1 if in_h >> y & 1 else -1
            size_h += step
            cut_h += step * (degs[y] - 2 * (adj[y] & in_h).bit_count())
            u += step * hits[y]
            for x in iter_bits(adj[y] | 1 << y):
                was = cover[x]
                cover[x] += step
                if not was or not cover[x]:
                    t += step * miss[x]
        e = cut_l + cut_h * ones - (u << 1)
        best_t[size_h] = lanes.min(best_t[size_h], t, size)
        best_e[size_h] = lanes.min(best_e[size_h], e, size)

    # Fold low vertex i into the size: lane S | {i} of entry k moves to lane S
    # of entry k + 1.  Once every low vertex is folded, entry k is one lane
    # holding the minimum over all k-subsets.
    for i in reversed(range(low)):
        span, at = 1 << i, w << i
        none = lanes.fill(inf, 2 * span)
        for best in (best_t, best_e):
            best[:] = [
                lanes.min(kept & ((1 << at) - 1), moved >> at, span)
                for kept, moved in zip(best + [none], [none] + best)
            ]
    return tuple(x - k for k, x in enumerate(best_t))[1:], tuple(best_e[1:])


class _Lanes:
    """Arrays of at most ``count`` small non-negative ints, each packed into one int.

    Entry s of an array sits in bits [s*w, (s+1)*w); callers keep the entry
    count beside it.  ``inf`` = 2^(w-2) - 1 marks a size that no set
    reaches and exceeds ``largest``, every value the caller stores.  Entries
    stay at most inf + 1, and ``convolve`` adds only entries below inf to
    them, so every sum stays below 2^(w-1), the top bit of its field, which
    ``min`` borrows from; ``convolve`` returns entries of at most inf.
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

    def min(self, x: int, y: int, count: int) -> int:
        """Entrywise minimum of two arrays of ``count`` entries."""
        top = self.tops >> ((self.longest - count) * self.w)
        ge = ((x | top) - y) & top  # top bit set where x >= y
        return x ^ ((x ^ y) & ((ge << 1) - (ge >> (self.w - 1))))

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
        for i in range(p):
            x = (a >> (i * w)) & ((1 << w) - 1)
            if x < inf:
                shift = i * w
                # entries outside the window [i, i + q) keep their value
                term = ((b + x * one) << shift) | (out & ~(span << shift))
                out = self.min(out, term, count)
        return out

    def unpack(self, x: int, count: int) -> list[int]:
        """The ``count`` entries of ``x``, entry 0 first."""
        bits = format(x, f"0{count * self.w}b")
        return [int(bits[j : j + self.w], 2) for j in range(0, len(bits), self.w)][::-1]

    def pack(self, values: Sequence[int]) -> int:
        """The array whose entries are ``values``, entry 0 first."""
        return int("".join(format(v, f"0{self.w}b") for v in reversed(values)), 2)


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
        one = lanes.fill(1, count)
        quiet = lanes.min(c, o + one, count)
        up[v] = (
            count,
            lanes.min(a, o + one, count),
            lanes.min(a, quiet, count),
            quiet,
            lanes.min(ei, eo + one, count),
            lanes.min(ei + one, eo, count),
        )
    vertex = lanes.unpack(up[0][2], count)[1:]
    edge = lanes.unpack(lanes.min(ei, eo, count), count)[1:]
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
