"""Exact isoperimetric profiles, peaks, h-index machinery, and bound rules.

A tree's profiles come from a min-plus dynamic program over its rooted
subtrees, O(n^2) in the order.  Any other graph, and any call with a
budget, sweeps every vertex subset in Gray-code order so a single vertex
toggles between consecutive subsets; vertex- and edge-boundary sizes are
maintained incrementally in O(degree) per step, and a large scan is split
into shards that run on every CPU the process may use.  On top of the
profiles sit the h-index, the arithmetic lower-bound formulas, and the
assembled per-graph bounds report.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InconsistentBoundsError, PartialProfileError, SizeCapError
from .graphs import Graph, is_c4_free, iter_bits, max_degree, rooted_tree

#: Largest order the subset scan accepts: 2^25 subsets.  Trees take the
#: dynamic program instead and are capped only by the graph order cap.
ISO_CAP = 25

#: Fewest subsets in one shard of the scan, as a power of two.  A process
#: pool takes about 15 ms to start; from 2^16 subsets a shard pays for it.
MIN_SHARD_BITS = 16


@dataclass(frozen=True)
class IsoProfile:
    """Boundary minima Phi(G, k) for k = 1..n.

    ``values[k-1]`` is the minimum boundary size over k-subsets; ``exact``
    is False when enumeration was truncated and each entry is only the
    minimum over the subsets actually examined, or None when no k-subset
    was examined.
    """

    mode: str  # "vertex" | "edge"
    values: tuple[int | None, ...]
    exact: bool


def _scan_shard(job) -> tuple[list[int], list[int], bool]:
    """Walk the subsets fixed_bits + (subset of ``free``) in Gray order.

    Returns the vertex- and edge-boundary minimum for each size 0..n, and
    False when the budget ran out before the walk finished.  The serial
    scan is the one shard with no fixed bits and every vertex free.
    """
    adj, fixed_bits, free, budget = job
    n = len(adj)
    nbrs = [tuple(iter_bits(row)) for row in adj]
    degs = [row.bit_count() for row in adj]
    unset_v, unset_e = _unset(n)
    best_v = [unset_v] * (n + 1)
    best_e = [unset_e] * (n + 1)
    counts = [0] * n  # neighbors inside S, for every vertex
    in_s = fixed_bits
    size = fixed_bits.bit_count()
    vb = 0
    eb = 0
    for v in iter_bits(fixed_bits):
        for w in nbrs[v]:
            counts[w] += 1
    for v in range(n):
        if (in_s >> v) & 1:
            eb += degs[v] - counts[v]
        elif counts[v]:
            vb += 1
    if size:
        best_v[size] = vb
        best_e[size] = eb

    examined = 0
    k = len(free)
    for t in range(1, 1 << k):
        if budget is not None and examined >= budget:
            return best_v, best_e, False
        examined += 1
        v = free[(t & -t).bit_length() - 1]
        bit = 1 << v
        if in_s & bit:  # remove v
            in_s &= ~bit
            size -= 1
            eb -= degs[v] - 2 * counts[v]
            for w in nbrs[v]:
                counts[w] -= 1
                if not (in_s >> w) & 1 and counts[w] == 0:
                    vb -= 1
            if counts[v]:
                vb += 1
        else:  # add v
            if counts[v]:
                vb -= 1
            in_s |= bit
            size += 1
            eb += degs[v] - 2 * counts[v]
            for w in nbrs[v]:
                counts[w] += 1
                if not (in_s >> w) & 1 and counts[w] == 1:
                    vb += 1
        if vb < best_v[size]:
            best_v[size] = vb
        if eb < best_e[size]:
            best_e[size] = eb
    return best_v, best_e, True


def _unset(n: int) -> tuple[int, int]:
    """Starting vertex- and edge-boundary minima, above any boundary on n vertices."""
    return n + 1, 4 * n * n


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shard_bits(n: int, budget: int | None) -> int:
    """log2 of the shard count: at least one shard per CPU, each of at least
    2^MIN_SHARD_BITS subsets.  Shards run to completion, so a budget scans
    serially.
    """
    if budget is not None:
        return 0
    return min((_cpu_count() - 1).bit_length(), max(0, n - MIN_SHARD_BITS))


def iso_profile(g: Graph, *, budget: int | None = None) -> tuple[IsoProfile, IsoProfile]:
    """(vertex, edge) profiles Phi(G, k) for all k.

    A tree without a budget gets exact profiles from ``_tree_profiles`` at
    any order; every other call scans subsets with ``_scan_profiles``,
    which a budget bounds and ``ISO_CAP`` caps.
    """
    if budget is None and g.is_tree():
        return _tree_profiles(g)
    return _scan_profiles(g, budget=budget)


def _scan_profiles(g: Graph, *, budget: int | None = None) -> tuple[IsoProfile, IsoProfile]:
    """Exact (vertex, edge) profiles Phi(G, k) for all k from one subset scan.

    Shard p fixes the top vertices to the bits of p and scans the rest;
    the minima of the shards combine by taking minima again.  A spent
    budget yields partial profiles whose entries are flagged inexact (each
    is only the minimum over the subsets examined); peak and h-index
    computations refuse such profiles.
    """
    n = g.n
    if n > ISO_CAP:
        raise SizeCapError("isoperimetric enumeration", n, ISO_CAP)
    width = _shard_bits(n, budget)
    free = list(range(n - width))
    jobs = [(g.adj_bits, p << (n - width), free, budget) for p in range(1 << width)]
    if width:
        with multiprocessing.Pool(min(len(jobs), _cpu_count())) as pool:
            shards = pool.map(_scan_shard, jobs)
    else:
        shards = [_scan_shard(jobs[0])]
    best_v = [min(col) for col in zip(*(s[0] for s in shards))]
    best_e = [min(col) for col in zip(*(s[1] for s in shards))]
    complete = all(s[2] for s in shards)

    # a size that no examined subset reached has no minimum
    unset_v, unset_e = _unset(n)
    prof_v = IsoProfile("vertex", tuple(None if x == unset_v else x for x in best_v[1:]), complete)
    prof_e = IsoProfile("edge", tuple(None if x == unset_e else x for x in best_e[1:]), complete)
    return prof_v, prof_e


class _Lanes:
    """Arrays of small non-negative ints, each packed into one int.

    Entry s of an array sits in bits [s*w, (s+1)*w); callers keep the entry
    count beside it.  ``inf`` = 2^(w-2) - 1 marks a size that no set
    reaches and exceeds every boundary of a graph of order n.  Entries
    stay at most inf + 1, and ``convolve`` adds only entries below inf to
    them, so every sum stays below 2^(w-1), the top bit of its field, which
    ``min`` borrows from; ``convolve`` returns entries of at most inf.
    """

    def __init__(self, n: int):
        self.w = (n + 1).bit_length() + 2
        self.inf = (1 << (self.w - 2)) - 1
        self.longest = n + 1
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


def _tree_profiles(g: Graph) -> tuple[IsoProfile, IsoProfile]:
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
    lanes = _Lanes(g.n)
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
    return IsoProfile("vertex", tuple(vertex), True), IsoProfile("edge", tuple(edge), True)


def iso_peak(profile: IsoProfile) -> int:
    """max_k Phi(G, k); demands a fully exact profile."""
    if not profile.exact:
        raise PartialProfileError("peak requires every profile entry exact")
    return max(profile.values)


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


def prox_lower_bounds(
    h_vertex: int | None, h_edge: int | None, delta: int
) -> dict[str, int]:
    """Integer consequences of the strict h-index bounds on prox1.

    prox1 > H_V/(Delta+1) and prox1 > H_E/((Delta+1)*Delta) become
    floor(x)+1 since prox1 is an integer.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    out: dict[str, int] = {}
    if h_vertex is not None:
        out["from_vertex_h"] = h_vertex // (delta + 1) + 1
    if h_edge is not None:
        out["from_edge_h"] = h_edge // ((delta + 1) * delta) + 1
    return out


def peak_to_h_lower(phi_peak: int, delta: int, mode: str) -> int:
    """Lower bound on the h-index from the matching isoperimetric peak.

    The adjacent-entry shift bounds pin a window around the peak whose
    entries stay large; the window supports h = floor of the balanced
    threshold (vertex: Phi*(Delta+1)/(2*Delta+1), edge: 2*Phi/(Delta+2)).
    The unrounded threshold itself is not a valid bound: at peaks sitting
    at k = 1 with steeply falling profiles (triangles, complete graphs)
    the integer window is one shorter than the real-valued count suggests.
    """
    if phi_peak < 0 or delta < 1:
        raise ValueError("phi_peak must be >= 0 and delta >= 1")
    if mode == "vertex":
        return phi_peak * (delta + 1) // (2 * delta + 1)
    if mode == "edge":
        return 2 * phi_peak // (delta + 2)
    raise ValueError("mode must be 'vertex' or 'edge'")


def kary_bound_report(k: int, d: int) -> tuple[int, int]:
    """The depth-based (lower, upper) bounds on prox1 of the k-ary tree of depth d.

    The strict rational lower bound (3/80)(d-2)(2/(2k+3)) becomes its
    floor plus one, since prox1 is an integer; the upper bound is
    floor(d/4)+2.
    """
    if k < 2 or d < 2:
        raise ValueError("kary bounds need k >= 2 and d >= 2")
    return 3 * (d - 2) // (40 * (2 * k + 3)) + 1, d // 4 + 2


@dataclass(frozen=True)
class DerivedBound:
    target: str  # "prox1" | "zeta1"
    kind: str  # "lower" | "upper"
    value: int
    rule: str

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "value": self.value,
            "rule": self.rule,
        }


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
            "bounds": [b.as_dict() for b in self.bounds],
            "notes": list(self.notes),
            "best": {
                t: {"lower": lo, "upper": hi}
                for t in ("prox1", "zeta1")
                for lo, hi in [self.best(t)]
            },
        }


def assemble_bounds(
    g: Graph,
    *,
    graph_id: str = "",
    prox1: int | None = None,
    zeta1: int | None = None,
    h_vertex: int | None = None,
    h_edge: int | None = None,
    phi_vertex_peak: int | None = None,
    phi_edge_peak: int | None = None,
    pathwidth: int | None = None,
    domination_number: int | None = None,
    grid_side: int | None = None,
    kary_shape: tuple[int, int] | None = None,
) -> BoundsReport:
    """Chain every applicable inequality through the known quantities.

    A lower bound exceeding an upper bound for the same target is a hard
    inconsistency and raises instead of being clamped.
    """
    delta = max_degree(g) if g.n > 1 else 0
    quantities = {
        k: v
        for k, v in {
            "prox1": prox1,
            "zeta1": zeta1,
            "h_vertex": h_vertex,
            "h_edge": h_edge,
            "phi_vertex_peak": phi_vertex_peak,
            "phi_edge_peak": phi_edge_peak,
            "pathwidth": pathwidth,
            "domination_number": domination_number,
            "grid_side": grid_side,
            "kary_shape": kary_shape,
        }.items()
        if v is not None
    }
    report = BoundsReport(
        graph_id=graph_id or g.content_hash(),
        n=g.n,
        m=g.edge_count(),
        max_degree=delta,
        quantities=quantities,
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
    if zeta1 is not None:
        add(DerivedBound("prox1", "upper", zeta1, "relaxation-order"))
    if pathwidth is not None:
        add(DerivedBound("zeta1", "upper", pathwidth, "pathwidth-sweep"))
    if domination_number is not None and is_c4_free(g):
        add(
            DerivedBound(
                "zeta1", "upper", domination_number + delta, "domination-c4free"
            )
        )
    if delta >= 1:
        if h_vertex is not None:
            add(
                DerivedBound(
                    "prox1",
                    "lower",
                    prox_lower_bounds(h_vertex, None, delta)["from_vertex_h"],
                    "h-index-vertex",
                )
            )
        if h_edge is not None:
            add(
                DerivedBound(
                    "prox1",
                    "lower",
                    prox_lower_bounds(None, h_edge, delta)["from_edge_h"],
                    "h-index-edge",
                )
            )
        if phi_vertex_peak is not None and h_vertex is None:
            hv = peak_to_h_lower(phi_vertex_peak, delta, "vertex")
            add(
                DerivedBound(
                    "prox1",
                    "lower",
                    prox_lower_bounds(hv, None, delta)["from_vertex_h"],
                    "peak-chain-vertex",
                )
            )
        if phi_edge_peak is not None and h_edge is None:
            he = peak_to_h_lower(phi_edge_peak, delta, "edge")
            add(
                DerivedBound(
                    "prox1",
                    "lower",
                    prox_lower_bounds(None, he, delta)["from_edge_h"],
                    "peak-chain-edge",
                )
            )
    if grid_side is not None:
        lo = -(-grid_side // 5) + 1
        add(DerivedBound("prox1", "lower", lo, "grid-window"))
        add(DerivedBound("prox1", "upper", lo + 3, "grid-window"))
        if grid_side >= 11:
            rule = "grid-window-localization-cited"
            add(DerivedBound("zeta1", "lower", lo, rule))
            add(DerivedBound("zeta1", "upper", lo + 3, rule))
            report.notes.append(
                "the grid zeta1 window is cited from the paper; no policy "
                "in this package verifies it"
            )
    if kary_shape is not None:
        lower, upper = kary_bound_report(*kary_shape)
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
            raise InconsistentBoundsError(
                f"{target}: derived lower bound {lo} exceeds upper bound {hi}"
            )
    return report


def profile_to_csv(profile: IsoProfile) -> str:
    lines = ["k,phi,exact"]
    exact = "true" if profile.exact else "false"
    for k, phi in enumerate(profile.values, start=1):
        lines.append(f"{k},{'' if phi is None else phi},{exact}")
    return "\n".join(lines) + "\n"
