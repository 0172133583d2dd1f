"""Immutable simple undirected graphs stored as sorted neighbour tuples.

Vertices are 0-based internally and 1-based in the line-oriented file
format.  A vertex is never its own neighbour: reflexivity is a
game-semantics matter (the robber may stay put), not an adjacency fact.
Generators cover every family the solvers and strategies consume: paths,
cycles, complete graphs, square grids, k-ary trees, spiders, and edge
subdivisions.

Every graph is connected, and a vertex set is an int mask of it throughout
the package: bit v stands for the 0-based vertex v.  A part of a graph, such
as a region or a component, is such a mask; no relabelled subgraph is built.
The automorphism group, given by generators, lets the exact solvers keep one
state per orbit of masks.  It, the bitmask adjacency rows and every other
table derived from the edges is built on first use and kept in the graph's
one store.
"""

from __future__ import annotations

import hashlib
from collections import deque
from functools import wraps
from itertools import accumulate, chain, pairwise
from operator import contains
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SizeCapError, UsageError

#: Hard limit on graph order.  Python ints give arbitrary-width bitsets, so
#: this guards runaway constructions rather than a machine word size; the
#: exponential solvers enforce their own much smaller caps.  Large enough
#: for every verification target (ternary depth-8 trees have 9841 vertices).
#: A graph stores O(n + m) neighbour tuples.  Only a reader of ``adj_bits``
#: builds the rows, up to n^2 bits (about 4 MiB on a breadth-first tree of
#: 9841 vertices); the tree schedules, their stepper and the grid sweep
#: read none, so the rows bound no memory there.
VERTEX_CAP = 16384

#: Most distinct index offsets ``v - u`` over all edges (both signs) for which
#: a graph gets the shift kernel.  Lattices have few: paths 2, grids and
#: cycles 4, the 4-by-4 torus 8.  Above this the loop over bitmask rows is
#: the faster kernel (K9 has 16 offsets), and trees in breadth-first order
#: have thousands.  Counting stops past the limit, so finding that a tree has
#: no shift kernel reads a few neighbour tuples and builds no row.
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


def _per_graph(build):
    """Keep ``build(g)`` in the store of ``g``: built on the first call, shared by later ones."""

    @wraps(build)
    def kept(g: Graph):
        value = g._store.get(build)
        if value is None:
            value = g._store[build] = build(g)
        return value

    return kept


class Graph:
    """Connected simple graph: edges that leave it disconnected are rejected.

    The stored adjacency is ``nbrs``, every vertex's neighbours in ascending
    order, built in O(m), and ``m`` is the edge count.  The bitmask rows
    ``adj_bits`` are derived from ``nbrs`` on first read, for the readers
    that work on masks.
    """

    __slots__ = ("n", "m", "nbrs", "shifts", "_store")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n <= 0:
            raise UsageError("graph must have at least one vertex")
        if n > VERTEX_CAP:
            raise SizeCapError("graph order", n, VERTEX_CAP)
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise UsageError(f"self-loop at vertex {u}")
            lists[u].append(v)
            lists[v].append(u)
        # a repeated edge, in either direction, is kept once
        nbrs = tuple([tuple(sorted(set(vs))) if len(vs) > 1 else tuple(vs) for vs in lists])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", sum(map(len, nbrs)) // 2)
        object.__setattr__(self, "nbrs", nbrs)
        object.__setattr__(self, "shifts", _shift_kernel(nbrs))
        object.__setattr__(self, "_store", {})
        seen = bytearray(n)
        seen[0] = 1
        reached = [0]
        for v in reached:  # the list grows while it is read
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
        if len(reached) != n:
            raise UsageError("graph is disconnected")

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.nbrs):
            for v in row:
                if v > u:
                    yield (u, v)

    def is_tree(self) -> bool:
        """A connected graph is a tree exactly when it has n - 1 edges."""
        return self.m == self.n - 1

    @property
    @_per_graph
    def adj_bits(self) -> tuple[int, ...]:
        """Row v is the mask of the neighbours of v, without v itself."""
        return tuple(mask_of(row) for row in self.nbrs)

    @_per_graph
    def content_hash(self) -> str:
        return hashlib.sha256(serialize_graph(self).encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.nbrs == other.nbrs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.nbrs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


#: byte 0 to the digit "0" and byte 1 to "1", for ``int(..., 2)``
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _shift_kernel(nbrs: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...] | None:
    """``(d, src)`` pairs for the shift kernel, or None when it does not apply.

    For each edge offset ``d > 0``, ``src`` holds every u adjacent to u + d,
    so the neighbours of S across those edges are ``(S & src) << d`` and
    ``(S >> d) & src``.  Bit d-1 of ``seen`` marks offset d; counting stops
    as soon as the limit is passed, so such a graph builds no mask.  A mask
    is read from one "0"/"1" digit per vertex, the highest vertex first.
    """
    seen = 0
    for u, row in enumerate(nbrs):
        for v in row:
            if v > u:
                seen |= 1 << (v - u - 1)
        if 2 * seen.bit_count() > MAX_SHIFT_OFFSETS:
            return None
    n = len(nbrs)
    return tuple(
        (d, int(bytes(map(contains, nbrs, range(d, n + d)))[::-1].translate(_DIGITS), 2))
        for d in (bit + 1 for bit in iter_bits(seen))
    )


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
                raise UsageError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise UsageError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise UsageError(f"line {lineno}: non-integer header fields") from None
            if n <= 0 or declared_m < 0:
                raise UsageError(f"line {lineno}: header values out of range")
            if n > VERTEX_CAP:
                raise SizeCapError("graph order", n, VERTEX_CAP)
        elif kind == "e":
            if n is None:
                raise UsageError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise UsageError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise UsageError(f"line {lineno}: non-integer edge endpoints") from None
            if u == v:
                raise UsageError(f"line {lineno}: self-loop at vertex {u}")
            if not (1 <= u < v <= n):
                raise UsageError(
                    f"line {lineno}: edge endpoints must satisfy 1 <= u < v <= {n}"
                )
            if (u, v) in seen_edges:
                raise UsageError(f"line {lineno}: duplicate edge ({u}, {v})")
            seen_edges.add((u, v))
            edges.append((u - 1, v - 1))
        elif kind == "l":
            if n is None:
                raise UsageError(f"line {lineno}: label before header")
            if len(parts) < 3 or "=" not in parts[2]:
                raise UsageError(f"line {lineno}: label must be 'l <v> <key>=<value>'")
            try:
                v = int(parts[1])
            except ValueError:
                raise UsageError(f"line {lineno}: non-integer label vertex") from None
            if not 1 <= v <= n:
                raise UsageError(f"line {lineno}: label vertex {v} out of range")
        else:
            raise UsageError(f"line {lineno}: unknown record '{kind}'")

    if n is None:
        raise UsageError("missing header")
    if len(edges) != declared_m:
        raise UsageError(
            f"header declares {declared_m} edges but {len(edges)} present"
        )
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Byte-stable serialization: the header, then the edges in sorted order."""
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# -- generators ----------------------------------------------------------


def generate(family: str, **params) -> Graph:
    """Build a named graph family from :data:`FAMILIES`.

    Subdivision is the separate :func:`subdivide` since its base is itself
    a graph.
    """
    if family not in FAMILIES:
        raise UsageError(f"unknown family '{family}'")
    return FAMILIES[family][0](**params)


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise UsageError("path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise UsageError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def _gen_complete(n: int) -> Graph:
    if n < 1:
        raise UsageError("complete graph needs n >= 1")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def _gen_grid(n: int) -> Graph:
    """n-by-n grid; the 0-based cell (r, c) is vertex r*n + c."""
    if n < 1:
        raise UsageError("grid needs n >= 1")
    across = ((v, v + 1) for v in range(n * n) if v % n + 1 < n)
    down = ((v, v + n) for v in range(n * n - n))
    return Graph(n * n, chain(across, down))


def kary_order(k: int, d: int) -> int:
    """The order 1 + k + ... + k^d of the k-ary tree of depth d."""
    return d + 1 if k == 1 else (k ** (d + 1) - 1) // (k - 1)


def _gen_kary(k: int, d: int) -> Graph:
    """Rooted k-ary tree of depth d: every non-leaf has exactly k children.

    Vertices are breadth-first: root 0, then each level in order, so the
    parent of vertex v > 0 is (v - 1) // k.
    """
    if k < 1 or d < 0:
        raise UsageError("kary needs k >= 1 and d >= 0")
    # for k >= 2 the order passes 2^64 by depth 64, so a deeper spec is
    # refused on that order instead of raising k to a huge power
    n = kary_order(k, d if k == 1 else min(d, 64))
    return Graph(n, (((v - 1) // k, v) for v in range(1, n)))


def _gen_spider(arms: Sequence[int]) -> Graph:
    """Head vertex 0 with one path per arm length; head degree = #arms."""
    arms = list(arms)
    if len(arms) < 3:
        raise UsageError("spider needs at least three arms")
    if any(a < 1 for a in arms):
        raise UsageError("spider arm lengths must be positive")
    # the arm from the head runs through first, first + 1, ..., end - 1
    ends = list(accumulate(arms, initial=1))
    edges = ((0 if v == first else v - 1, v)
             for first, end in pairwise(ends) for v in range(first, end))
    return Graph(ends[-1], edges)


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
        raise UsageError("subdivision count must be >= 0")
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


#: the set bit positions of each byte value, ascending
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def closed_nb_bits(g: Graph, bits: int) -> int:
    """N[S] for the mask ``bits``: shifts on lattices, a loop over set bits otherwise.

    The loop reads the mask byte by byte and ORs in the row of each set bit
    of a nonzero byte, taking the byte's bits from a table.
    """
    out = bits
    if g.shifts is not None:
        for d, src in g.shifts:
            out |= ((bits & src) << d) | ((bits >> d) & src)
        return out
    adj = g.adj_bits
    for i, byte in enumerate(bits.to_bytes((bits.bit_length() + 7) // 8, "little")):
        if byte:
            base = 8 * i
            for j in _BYTE_BITS[byte]:
                out |= adj[base + j]
    return out


@_per_graph
def spread_tables(g: Graph) -> tuple[tuple[int, ...], ...]:
    """N[v] for every vertex v, then byte tables with N[S] = ``low[S & 255] | high[S >> 8]``.

    For the exact solvers, which need N[S] of very many masks S on graphs
    of at most 16 vertices.
    """
    rows = tuple(row | (1 << v) for v, row in enumerate(g.adj_bits))
    return (rows, *_byte_tables(rows))


@_per_graph
def meet_tables(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Byte tables with the meet of N[u] over u in S = ``low[S & 255] & high[S >> 8]``.

    The meet is the set of vertices whose closed neighbourhood holds S, and
    the meet of the empty set is every vertex.  For the exact prox solver,
    on graphs of at most 16 vertices.
    """
    rows = spread_tables(g)[0]
    full = (1 << g.n) - 1
    return _meet_table(rows[:8], full), _meet_table(rows[8:], full)


def _byte_tables(rows: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The OR of ``rows[v]`` over a mask's set bits v: a table for bits 0-7, one for the rest."""
    return _union_table(rows[:8]), _union_table(rows[8:])


def _union_table(rows: Sequence[int]) -> tuple[int, ...]:
    """The OR of ``rows[i]`` over the set bits i of s, for every s below 2^len(rows)."""
    table = [0] * (1 << len(rows))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = table[s ^ low] | rows[low.bit_length() - 1]
    return tuple(table)


def _meet_table(rows: Sequence[int], full: int) -> tuple[int, ...]:
    """The AND of ``rows[i]`` over the set bits i of s, for every s below 2^len(rows); ``full`` at 0."""
    table = [full] * (1 << len(rows))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = table[s ^ low] & rows[low.bit_length() - 1]
    return tuple(table)


def rooted_tree(g: Graph, root: int) -> tuple[list[int], list[list[int]], list[int]]:
    """BFS parents, children and depths of the tree ``g`` rooted at ``root``."""
    parent = [-1] * g.n
    depth = [-1] * g.n
    children: list[list[int]] = [[] for _ in range(g.n)]
    nbrs = g.nbrs
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
    return max(map(len, g.nbrs))


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


# -- automorphisms -------------------------------------------------------


@_per_graph
def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group of ``g``, each as the tuple of vertex images.

    Twin transpositions come first: two vertices with equal N[v] or equal
    N(v) swap, which gives complete graphs, stars and K_{a,b} with a != b
    their whole group with no search.  Then a search in the manner
    of McKay's: colour refinement and individualization of the lowest
    vertex of the first non-singleton cell give a base b_1, b_2, ... and a
    discrete leaf.  Walking that pointwise-stabilizer chain from its end,
    each vertex w of b_i's cell that the generators fixing b_1 .. b_(i-1)
    do not already map b_i to is individualized in its place, and every
    path below it is tried until a leaf of equal cell sizes maps the first
    leaf onto it by an automorphism.  By Schreier's lemma the generators
    found this way generate the whole group.

    Every generator is checked against ``adj_bits`` before it is returned,
    so a search fault raises AssertionError and never yields a map that is
    not an automorphism; a generator the search missed would cost speed,
    never a verdict.
    """
    adj = g.adj_bits
    twins = _twin_transpositions(g)
    gens = tuple(twins + _search_generators(adj, twins))
    for perm in gens:
        if not _is_automorphism(adj, perm):
            raise AssertionError(f"{perm} is not an automorphism")
    return gens


def _is_automorphism(adj: Sequence[int], perm: Sequence[int]) -> bool:
    """True iff ``perm`` is a permutation of the vertices that maps every edge to an edge."""
    if sorted(perm) != list(range(len(adj))):
        return False
    return all(
        mask_of(perm[u] for u in iter_bits(row)) == adj[perm[v]]
        for v, row in enumerate(adj)
    )


@_per_graph
def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The classes of two or more vertices with equal N[v] or equal N(v), each ascending.

    Swapping two members of a class is an automorphism.  No vertex has
    twins of both kinds, so the classes are disjoint.
    """
    classes: dict[tuple[bool, int], list[int]] = {}
    for v, row in enumerate(g.adj_bits):
        classes.setdefault((True, row | (1 << v)), []).append(v)
        classes.setdefault((False, row), []).append(v)
    return tuple(tuple(members) for members in classes.values() if len(members) > 1)


def _twin_transpositions(g: Graph) -> list[tuple[int, ...]]:
    """Swaps of consecutive members of each twin class."""
    out = []
    for members in twin_classes(g):
        for u, v in pairwise(members):
            perm = list(range(g.n))
            perm[u], perm[v] = v, u
            out.append(tuple(perm))
    return out


def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """Colour refinement of an ordered partition (a list of cell masks) until it is equitable.

    Each cell is split in place by the vertices' neighbour counts in every
    cell, in ascending order of those counts, so the result depends on the
    graph and the ordered partition alone and commutes with automorphisms.
    A singleton cell keeps its position.
    """
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in iter_bits(cell):
                row = adj[v]
                key = tuple([(row & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | (1 << v)
            out.extend(groups[key] for key in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _individualize(adj: Sequence[int], cells: list[int], i: int, v: int) -> list[int]:
    """Split vertex ``v`` off the front of cell ``i`` and refine."""
    bit = 1 << v
    return _refine(adj, cells[:i] + [bit, cells[i] ^ bit] + cells[i + 1:])


def _search_generators(
    adj: Sequence[int], twins: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Automorphisms that, with the twin transpositions ``twins``, generate the group."""
    cells = _refine(adj, [(1 << len(adj)) - 1])
    path = [cells]  # the partition at each level of the first path
    base: list[tuple[int, int]] = []  # (cell index, vertex) individualized at each level
    while len(cells) < len(adj):
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        v = (cells[i] & -cells[i]).bit_length() - 1
        base.append((i, v))
        cells = _individualize(adj, cells, i, v)
        path.append(cells)
    leaf = [cell.bit_length() - 1 for cell in cells]
    sizes = [[cell.bit_count() for cell in p] for p in path]

    def match(level: int, cells: list[int], x: int) -> tuple[int, ...] | None:
        """An automorphism taking the first leaf to a leaf below ``x`` in the base cell of ``cells``.

        A child whose cell sizes differ from the first path's at the same
        level is no image of it, so nothing below it is tried.
        """
        child = _individualize(adj, cells, base[level][0], x)
        if [cell.bit_count() for cell in child] != sizes[level + 1]:
            return None
        if level + 1 == len(base):
            perm = [0] * len(adj)
            for u, cell in zip(leaf, child):
                perm[u] = cell.bit_length() - 1
            return tuple(perm) if _is_automorphism(adj, perm) else None
        for y in iter_bits(child[base[level + 1][0]]):
            found = match(level + 1, child, y)
            if found:
                return found
        return None

    found: list[tuple[int, ...]] = []
    for level in reversed(range(len(base))):
        i, b = base[level]
        fixed = [v for _, v in base[:level]]
        level_gens = [s for s in twins + found if all(s[v] == v for v in fixed)]
        orbit = _point_orbit(b, level_gens)
        for w in iter_bits(path[level][i]):
            if orbit >> w & 1:
                continue
            perm = match(level, path[level], w)
            if perm:
                found.append(perm)
                level_gens.append(perm)
                orbit = _point_orbit(b, level_gens)
    return found


def _point_orbit(v: int, gens: Sequence[Sequence[int]]) -> int:
    """The orbit of vertex ``v`` under the group ``gens`` generate, as a mask."""
    orbit = 1 << v
    todo = [v]
    for x in todo:
        for perm in gens:
            y = perm[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                todo.append(y)
    return orbit


@_per_graph
def orbit_closer(g: Graph) -> Callable[[int, bytearray], list[int]]:
    """A function that closes a mask's orbit under Aut(g) into a bytearray of 2^n flags.

    ``close(mask, seen)`` sets ``seen`` at every image of ``mask`` and
    returns the images it set, ``mask`` first; the caller passes a mask not
    yet set.  Each generator maps a mask by two lookups in its byte tables.
    """
    tables = tuple(_byte_tables([1 << v for v in perm]) for perm in automorphism_generators(g))

    def close(mask: int, seen: bytearray) -> list[int]:
        seen[mask] = 1
        orbit = [mask]
        for x in orbit:
            low, high = x & 255, x >> 8
            for low_table, high_table in tables:
                y = low_table[low] | high_table[high]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        return orbit

    return close
