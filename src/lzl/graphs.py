"""Immutable simple undirected graphs with bitmask adjacency rows.

Vertices are 0-based internally and 1-based in the line-oriented file
format.  Adjacency rows never contain the vertex itself: reflexivity is a
game-semantics matter (the robber may stay put), not an adjacency fact.
Generators cover every family the solvers and strategies consume: paths,
cycles, complete graphs, square grids, k-ary trees, spiders, and edge
subdivisions.

A vertex set is an int mask throughout the package: bit v stands for the
0-based vertex v.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable, Iterator, Sequence

from .errors import GraphParseError, GraphValidationError, SizeCapError

#: Hard limit on graph order.  Python ints give arbitrary-width bitsets, so
#: this guards runaway constructions rather than a machine word size; the
#: exponential solvers enforce their own much smaller caps.  Large enough
#: for every verification target (ternary depth-8 trees have 9841 vertices).
VERTEX_CAP = 16384

#: Most distinct index offsets ``v - u`` over all edges (both signs) for which
#: a graph gets the shift kernel.  Lattices have few: paths 2, grids and
#: cycles 4, the 4-by-4 torus 8.  Above this the loop over set bits is the
#: faster kernel (K9 has 16 offsets), and trees in breadth-first order have
#: thousands.
MAX_SHIFT_OFFSETS = 8


def iter_bits(bits: int) -> Iterator[int]:
    """Yield set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def check_mask(g: Graph, bits: int, what: str) -> None:
    """Reject a mask with a negative sign or a bit at or above ``g.n``."""
    if bits < 0 or bits >> g.n:
        raise GraphValidationError(f"{what} is not a vertex set of a graph of order {g.n}")


class Graph:
    """Connected (unless explicitly allowed otherwise) simple graph."""

    __slots__ = ("n", "adj_bits", "shifts", "_hash", "_nbrs")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        allow_disconnected: bool = False,
    ):
        if n <= 0:
            raise GraphValidationError("graph must have at least one vertex")
        if n > VERTEX_CAP:
            raise SizeCapError("graph order", n, VERTEX_CAP)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj_bits", tuple(rows))
        object.__setattr__(self, "shifts", _shift_kernel(rows))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_nbrs", None)
        if not allow_disconnected and not self.is_connected():
            raise GraphValidationError("graph is disconnected")

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_bits) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj_bits[u] >> (u + 1)):
                yield (u, v + u + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj_bits[u] >> v) & 1 == 1

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return _reach(self, 1, full) == full

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count() == self.n - 1

    def content_hash(self) -> str:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hashlib.sha256(serialize_graph(self).encode()).hexdigest()[:16]
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.adj_bits == other.adj_bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.adj_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _shift_kernel(rows: Sequence[int]) -> tuple[tuple[int, int], ...] | None:
    """``(d, src)`` pairs for the shift kernel, or None when it does not apply.

    For each edge offset ``d > 0``, ``src`` holds every u adjacent to u + d,
    so the neighbours of S across those edges are ``(S & src) << d`` and
    ``(S >> d) & src``.  Bit d-1 of ``seen`` marks offset d; counting stops
    as soon as the limit is passed, so such a graph builds no mask.
    """
    seen = 0
    for u, row in enumerate(rows):
        seen |= row >> (u + 1)
        if 2 * seen.bit_count() > MAX_SHIFT_OFFSETS:
            return None
    kernel = []
    for d in iter_bits(seen):
        d += 1
        src = 0
        for u, row in enumerate(rows):
            if (row >> (u + d)) & 1:
                src |= 1 << u
        kernel.append((d, src))
    return tuple(kernel)


# -- file format --------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    ``# comment`` lines are skipped.  The header ``p <n> <m>`` precedes
    ``m`` edge lines ``e <u> <v>`` with ``1 <= u < v <= n``.  Files written
    by earlier versions may also hold ``l <v> <key>=<value>`` lines: they are
    checked for shape and vertex range, then ignored.
    """
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphParseError("duplicate header", lineno)
            if len(parts) != 3:
                raise GraphParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer header fields", lineno) from None
            if n <= 0 or declared_m < 0:
                raise GraphParseError("header values out of range", lineno)
            if n > VERTEX_CAP:
                raise SizeCapError("graph order", n, VERTEX_CAP)
        elif kind == "e":
            if n is None:
                raise GraphParseError("edge before header", lineno)
            if len(parts) != 3:
                raise GraphParseError("edge must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer edge endpoints", lineno) from None
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u < v <= n):
                raise GraphParseError(
                    f"edge endpoints must satisfy 1 <= u < v <= {n}", lineno
                )
            if (u, v) in seen_edges:
                raise GraphParseError(f"duplicate edge ({u}, {v})", lineno)
            seen_edges.add((u, v))
            edges.append((u - 1, v - 1))
        elif kind == "l":
            if n is None:
                raise GraphParseError("label before header", lineno)
            if len(parts) < 3 or "=" not in parts[2]:
                raise GraphParseError("label must be 'l <v> <key>=<value>'", lineno)
            try:
                v = int(parts[1])
            except ValueError:
                raise GraphParseError("non-integer label vertex", lineno) from None
            if not 1 <= v <= n:
                raise GraphParseError(f"label vertex {v} out of range", lineno)
        else:
            raise GraphParseError(f"unknown record '{kind}'", lineno)

    if n is None:
        raise GraphParseError("missing header")
    if len(edges) != declared_m:
        raise GraphParseError(
            f"header declares {declared_m} edges but {len(edges)} present"
        )
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Byte-stable serialization: the header, then the edges in sorted order."""
    lines = [f"p {g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# -- generators ----------------------------------------------------------


def generate(family: str, **params) -> Graph:
    """Build a named graph family from :data:`FAMILIES`.

    Subdivision is the separate :func:`subdivide` since its base is itself
    a graph.
    """
    if family not in FAMILIES:
        raise GraphValidationError(f"unknown family '{family}'")
    return FAMILIES[family][0](**params)


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphValidationError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphValidationError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges)


def _gen_complete(n: int) -> Graph:
    if n < 1:
        raise GraphValidationError("complete graph needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _gen_grid(n: int) -> Graph:
    """n-by-n grid; the 0-based cell (r, c) is vertex r*n + c."""
    if n < 1:
        raise GraphValidationError("grid needs n >= 1")
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < n:
                edges.append((v, v + n))
    return Graph(n * n, edges)


def _gen_kary(k: int, d: int) -> Graph:
    """Rooted k-ary tree of depth d: every non-leaf has exactly k children.

    Vertices are breadth-first: root 0, then each level in order.
    """
    if k < 1 or d < 0:
        raise GraphValidationError("kary needs k >= 1 and d >= 0")
    edges = []
    level = [0]
    next_vertex = 1
    for _ in range(d):
        new_level = []
        for parent in level:
            for _ in range(k):
                edges.append((parent, next_vertex))
                new_level.append(next_vertex)
                next_vertex += 1
        level = new_level
    return Graph(next_vertex, edges)


def _gen_spider(arms: Sequence[int]) -> Graph:
    """Head vertex 0 with one path per arm length; head degree = #arms."""
    arms = list(arms)
    if len(arms) < 3:
        raise GraphValidationError("spider needs at least three arms")
    if any(a < 1 for a in arms):
        raise GraphValidationError("spider arm lengths must be positive")
    edges = []
    next_vertex = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
    return Graph(next_vertex, edges)


#: family -> (builder, parameter names); ``spider`` takes its whole
#: parameter list as ``arms``, every other parameter is one integer.
FAMILIES = {
    "path": (_gen_path, ("n",)),
    "cycle": (_gen_cycle, ("n",)),
    "complete": (_gen_complete, ("n",)),
    "grid": (_gen_grid, ("n",)),
    "kary": (_gen_kary, ("k", "d")),
    "spider": (_gen_spider, ("arms",)),
}


def subdivide(base: Graph, i: int) -> Graph:
    """Insert exactly ``i`` new vertices on every edge of ``base``.

    Base vertices keep their indices; the new vertices of the k-th edge in
    sorted order take the k-th block of ``i`` indices after them.
    """
    if i < 0:
        raise GraphValidationError("subdivision count must be >= 0")
    base_edges = sorted(base.edges())
    n = base.n + i * len(base_edges)
    if n > VERTEX_CAP:
        raise SizeCapError("subdivided order", n, VERTEX_CAP)

    edges: list[tuple[int, int]] = []
    next_vertex = base.n
    for u, v in base_edges:
        chain = [u] + list(range(next_vertex, next_vertex + i)) + [v]
        next_vertex += i
        edges.extend(zip(chain, chain[1:]))
    return Graph(n, edges)


# -- neighborhood and component kernels ----------------------------------


def closed_nb_bits(g: Graph, bits: int) -> int:
    """N[S] for the mask ``bits``: shifts on lattices, a loop over set bits otherwise."""
    out = bits
    if g.shifts is None:
        adj = g.adj_bits
        for v in iter_bits(bits):
            out |= adj[v]
    else:
        for d, src in g.shifts:
            out |= ((bits & src) << d) | ((bits >> d) & src)
    return out


def closed_nb_table(g: Graph, vertices: range) -> list[int]:
    """N[S] for every S within ``vertices``, indexed by S >> vertices.start.

    For solvers that need N[S] of very many masks: one table over all n
    vertices, or one table per byte whose lookups are ORed together.
    """
    nb = [g.adj_bits[v] | (1 << v) for v in vertices]
    table = [0] * (1 << len(nb))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = table[s ^ low] | nb[low.bit_length() - 1]
    return table


def distances(g: Graph, v: int) -> list[int]:
    """BFS hop counts from ``v``; -1 for unreachable vertices."""
    if not 0 <= v < g.n:
        raise GraphValidationError(f"vertex {v} out of range")
    dist = [-1] * g.n
    dist[v] = 0
    seen = frontier = 1 << v
    d = 0
    while frontier:
        frontier = closed_nb_bits(g, frontier) & ~seen
        seen |= frontier
        d += 1
        for u in iter_bits(frontier):
            dist[u] = d
    return dist


def neighbor_tuples(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The neighbors of every vertex in ascending order.

    Built from one pass over the edges on the first call and kept on the
    graph, so every later caller shares the same immutable value.
    """
    nbrs = g._nbrs
    if nbrs is None:
        rows: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges():
            rows[u].append(v)
            rows[v].append(u)
        nbrs = tuple(tuple(row) for row in rows)
        object.__setattr__(g, "_nbrs", nbrs)
    return nbrs


def rooted_tree(g: Graph, root: int) -> tuple[list[int], list[list[int]], list[int]]:
    """BFS parents, children and depths of the tree ``g`` rooted at ``root``."""
    parent = [-1] * g.n
    depth = [-1] * g.n
    children: list[list[int]] = [[] for _ in range(g.n)]
    nbrs = neighbor_tuples(g)
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                parent[w] = v
                children[v].append(w)
                queue.append(w)
    return parent, children, depth


def max_degree(g: Graph) -> int:
    return max(row.bit_count() for row in g.adj_bits)


def is_c4_free(g: Graph) -> bool:
    """True iff no two vertices share two or more common neighbors."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj_bits[u] & g.adj_bits[v]).bit_count() >= 2:
                return False
    return True


def _reach(g: Graph, seed: int, within: int) -> int:
    """Vertices reachable from the mask ``seed`` inside the mask ``within``."""
    seen = frontier = seed
    while frontier:
        frontier = closed_nb_bits(g, frontier) & within & ~seen
        seen |= frontier
    return seen


def components_bits(g: Graph, within: int) -> list[int]:
    """Connected components of the subgraph induced on mask ``within``."""
    comps = []
    remaining = within
    while remaining:
        comp = _reach(g, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, list[int]]:
    """Subgraph induced on the mask ``s`` plus the old-index list (new -> old)."""
    check_mask(g, s, "induced vertex set")
    old = list(iter_bits(s))
    index = {o: i for i, o in enumerate(old)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph(len(old), edges, allow_disconnected=True), old
