import hashlib
import heapq
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

import lzl.graphs
from lzl.errors import SizeCapError, UsageError
from lzl.graphs import Graph, components_bits, generate, iter_bits, mask_of, rooted_tree
from lzl.gridsweep import probe_set
from lzl.prox import ProbeSchedule
from lzl.strategies import level_bound, nonleaf_levels

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def mask(*vertices: int) -> int:
    """Vertex-set mask with bit v set for each listed 0-based vertex v."""
    return mask_of(vertices)


def edge_boundary(g: Graph, s: int) -> int:
    """Reference count of the edges with exactly one endpoint in the mask ``s``."""
    return sum(((s >> u) ^ (s >> v)) & 1 for u, v in g.edges())


@dataclass(frozen=True)
class RowConstruction:
    """What ``Graph(n, edges)`` yields when built by OR-ing each edge into adjacency rows."""

    adj_bits: tuple[int, ...]
    shifts: tuple[tuple[int, int], ...] | None
    edges: list[tuple[int, int]]
    text: str  # the file format: the header, then the edges in sorted order

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def row_construction(n: int, edges) -> RowConstruction:
    """Reference construction on one bitmask row per vertex, with the same checks in the same order.

    The order cap is checked before any edge is read, then each edge's
    range and self-loop in turn; a repeated edge ORs into the rows again.
    Connectivity is a reach from vertex 0 over the rows, and the shift
    kernel's offsets are read off the rows with the same early stop.
    """
    if n <= 0:
        raise UsageError("graph must have at least one vertex")
    if n > lzl.graphs.VERTEX_CAP:
        raise SizeCapError("graph order", n, lzl.graphs.VERTEX_CAP)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise UsageError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise UsageError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        spread = frontier
        for v in iter_bits(frontier):
            spread |= rows[v]
        frontier = spread & ~seen
        seen |= frontier
    if seen != (1 << n) - 1:
        raise UsageError("graph is disconnected")

    offsets = 0
    shifts: tuple[tuple[int, int], ...] | None = None
    for u, row in enumerate(rows):
        offsets |= row >> (u + 1)
        if 2 * offsets.bit_count() > lzl.graphs.MAX_SHIFT_OFFSETS:
            break
    else:
        shifts = tuple(
            (d + 1, mask_of(u for u, row in enumerate(rows) if (row >> (u + d + 1)) & 1))
            for d in iter_bits(offsets)
        )
    pairs = [(u, v) for u in range(n) for v in iter_bits(rows[u]) if v > u]
    text = "\n".join([f"p {n} {len(pairs)}"] + [f"e {u + 1} {v + 1}" for u, v in pairs]) + "\n"
    return RowConstruction(tuple(rows), shifts, pairs, text)


def gray_scan_oracle(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference (vertex, edge) profiles by a one-vertex-per-step Gray-code walk.

    Step t toggles vertex ctz(t), so it examines the subset gray(t); both
    boundary sizes are kept up to date in O(degree) per step.
    """
    n = g.n
    nbrs = [tuple(iter_bits(row)) for row in g.adj_bits]
    degs = [len(row) for row in nbrs]
    best_v: list[int | None] = [None] * (n + 1)
    best_e: list[int | None] = [None] * (n + 1)
    counts = [0] * n  # neighbors inside S, for every vertex
    in_s = size = vb = eb = 0
    for t in range(1, 1 << n):
        v = (t & -t).bit_length() - 1
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
        if best_v[size] is None or vb < best_v[size]:
            best_v[size] = vb
        if best_e[size] is None or eb < best_e[size]:
            best_e[size] = eb
    return tuple(best_v[1:]), tuple(best_e[1:])


def peak_to_h_lower(phi_peak: int, delta: int, mode: str) -> int:
    """The paper's lower bound on the h-index from the matching profile peak.

    The adjacent-entry shift bounds pin a window around the peak whose
    entries stay large; the window supports h = floor of the balanced
    threshold (vertex: Phi*(Delta+1)/(2*Delta+1), edge: 2*Phi/(Delta+2)).
    The unrounded threshold itself is not a valid bound: at peaks sitting
    at k = 1 with steeply falling profiles (triangles, complete graphs)
    the integer window is one shorter than the real-valued count suggests.
    """
    assert phi_peak >= 0 and delta >= 1
    if mode == "vertex":
        return phi_peak * (delta + 1) // (2 * delta + 1)
    assert mode == "edge"
    return 2 * phi_peak // (delta + 2)


def bfs_distances(g: Graph, v: int, within: int | None = None) -> list[int]:
    """Reference hop counts from ``v`` by a queue over adjacency rows.

    Only vertices of the mask ``within`` (default: all) are entered; -1
    marks every vertex not reached.
    """
    if within is None:
        within = (1 << g.n) - 1
    dist = [-1] * g.n
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in range(g.n):
            if (g.adj_bits[u] >> w) & 1 and (within >> w) & 1 and dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def induced_connected(g: Graph, s: int) -> Graph:
    """The subgraph induced on the connected mask ``s``, relabelled in ascending order.

    Every Graph is connected, so a mask that is not raises UsageError.
    """
    index = {v: i for i, v in enumerate(iter_bits(s))}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(index), edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,x) ~ (b,y) iff (a=b and x~y) or (a~b and x=y).

    Vertex (a, x) sits at index a*h.n + x, so path:r x path:c is the
    r-by-c lattice in row-major order and cycle:a x cycle:b a torus.
    """
    edges = []
    for a in range(g.n):
        for x, y in h.edges():
            edges.append((a * h.n + x, a * h.n + y))
    for a, b in g.edges():
        for x in range(h.n):
            edges.append((a * h.n + x, b * h.n + x))
    return Graph(g.n * h.n, edges)


def complete_multipartite(*sizes: int) -> Graph:
    """K_{a,b,...}: consecutive blocks of the given sizes, each vertex joined to every other block."""
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]])


def circulant(n: int, jumps) -> Graph:
    """The circulant graph on Z_n joining i to i + j for every j in ``jumps``."""
    return Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spoke i to i + 5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1); (a, b) is vertex 4a + b.

    Strongly regular like the 4-by-4 rook's graph, so colour refinement
    alone leaves leaves of equal cell sizes that are no automorphism."""
    edges = set()
    for a in range(4):
        for b in range(4):
            for x, y in ((1, 0), (0, 1), (1, 1)):
                u, v = 4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4
                edges.add((min(u, v), max(u, v)))
    return Graph(16, sorted(edges))


def symmetric_graphs() -> dict[str, tuple[Graph, int]]:
    """Named vertex- or arm-symmetric graphs of order <= 16, each with the
    order of its automorphism group."""
    k2, c4 = generate("complete", n=2), generate("cycle", n=4)
    return {
        "petersen": (petersen(), 120),
        "Q3": (cartesian_product(c4, k2), 48),
        "K3,3": (complete_multipartite(3, 3), 72),
        "K2,5": (complete_multipartite(2, 5), 240),
        "K2,2,2": (complete_multipartite(2, 2, 2), 48),
        "prism:C6xK2": (cartesian_product(generate("cycle", n=6), k2), 24),
        "cycle:12": (generate("cycle", n=12), 24),
        "grid:3": (generate("grid", n=3), 8),
        "grid:4": (generate("grid", n=4), 8),
        "kary:2,2": (generate("kary", k=2, d=2), 8),
        "kary:2,3": (generate("kary", k=2, d=3), 128),
        "spider:3,3,3": (generate("spider", arms=[3, 3, 3]), 6),
        "spider:5,5,5": (generate("spider", arms=[5, 5, 5]), 6),
        "K6": (generate("complete", n=6), 720),
        "star:7": (generate("spider", arms=[1] * 7), 5040),
        "torus:4x4": (cartesian_product(c4, c4), 384),
        "K4xK4": (cartesian_product(*[generate("complete", n=4)] * 2), 1152),
        "cycle:16": (generate("cycle", n=16), 32),
        "circulant:16,1,4": (circulant(16, (1, 4)), 32),
        "shrikhande": (shrikhande(), 192),
    }


def grid_profile_oracle(n: int) -> tuple[int, int, int]:
    """Closed-form middle window of the n-by-n grid vertex profile.

    Returns (k_lo, k_hi, n): Phi_V equals n on every k in [k_lo, k_hi],
    a run of 2n-2 consecutive entries.
    """
    assert n >= 2, "grid oracle needs n >= 2"
    k_lo = (n * n - 3 * n + 4) // 2
    k_hi = (n * n + n - 2) // 2
    return k_lo, k_hi, n


@dataclass
class CoordinatePlan:
    """A grid-sweep plan as (row, col) probes: every round's probes in panel order."""

    m: int
    rounds: list[list[tuple[int, int]]]


def plan_coordinates(plan) -> CoordinatePlan:
    """Expand each placement (offset, j, i) of a plan to its probes on the unbounded lattice.

    The placement stands for (i + dr, c + offset) over (dr, c) in
    ``probe_set(j, m)``; a round lists its placements' probes in order.
    """
    m = plan.m
    return CoordinatePlan(m, [
        [(i + dr, c + offset) for offset, j, i in placements for dr, c in probe_set(j, m)]
        for placements in plan.rounds
    ])


def panel_rounds(plan, count: int = 5) -> list[dict[int, tuple]]:
    """Each of ``count`` panels' probes by round, split off the plan's expansion by column window.

    Panel p (0-based) of a plan with panel width m starts in round s = p + 1,
    as ``five_panel_schedule`` documents, and probes the columns
    [p*m, p*m + m + 1] on the rounds t >= s with t - s = 0 or 3 mod 5, and
    the round lists the active panels' probes in panel order.  Two panels
    active in one round are two or three apart, so for m >= 3 their
    windows are disjoint; the split must give back every round exactly,
    which also checks that no panel probes off its cadence.
    """
    m = plan.m
    panels: list[dict[int, tuple]] = [{} for _ in range(count)]
    for t, probes in enumerate(plan_coordinates(plan).rounds, 1):
        parts = []
        active = 0
        for p in range(count):
            if t <= p or (t - p - 1) % 5 not in (0, 3):
                continue
            active += 1
            own = tuple(rc for rc in probes if p * m <= rc[1] <= p * m + m + 1)
            if own:
                panels[p][t] = own
            parts.extend(own)
        assert active <= 2, (t, active)
        assert parts == list(probes), t
    return panels


def prufer_tree(seq) -> Graph:
    """Tree on len(seq)+2 vertices decoded from a Pruefer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)])


def random_recursive_tree(rng: random.Random, n: int) -> Graph:
    """Vertex i > 0 joins a uniform earlier vertex."""
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def midway_by_scan(g: Graph, comp: int) -> int:
    """The old midway search: the first vertex of ``comp``, ascending, whose
    removal leaves components of order at most |comp|/2."""
    size = comp.bit_count()
    for v in iter_bits(comp):
        parts = components_bits(g, comp & ~(1 << v))
        if all(2 * p.bit_count() <= size for p in parts):
            return v
    raise AssertionError("every tree has a midway vertex")


def mask_log_rounds(g: Graph, comp: int) -> list[int]:
    """Reference tree-log rounds of the subtree on the mask ``comp``, each as a mask.

    The midway vertex joins every round of each part of ``comp`` minus it,
    the parts as ``components_bits`` gives them (by lowest vertex).
    """
    size = comp.bit_count()
    if size == 1:
        return [comp]
    if size == 2:
        return [comp & -comp]
    x = midway_by_scan(g, comp)
    rounds: list[int] = []
    for part in components_bits(g, comp & ~(1 << x)):
        rounds.extend(mask_log_rounds(g, part))
    return [(1 << x) | r for r in rounds]


def leaf_path_tree_depth(g: Graph, root: int) -> ProbeSchedule:
    """Reference tree-depth schedule: each leaf's path is walked back up its parents.

    The leaves are met in a DFS from ``root``, children visited ascending.
    For a path u_0..u_q the rounds probe {u_{4j}}, then {u_{4j+2}} (empty
    when q < 2); a one-vertex tree is the single path [root].
    """
    parent, children, _ = rooted_tree(g, root)
    paths = []
    stack = [root]
    while stack:
        v = stack.pop()
        if not children[v] and v != root:
            path = []
            w = v
            while w != -1:
                path.append(w)
                w = parent[w]
            paths.append(path[::-1])
        for c in reversed(children[v]):
            stack.append(c)
    if not paths:
        paths = [[root]]
    rounds: list[set[int]] = []
    for path in paths:
        q = len(path) - 1
        rounds.append({path[4 * j] for j in range(q // 4 + 1)})
        rounds.append({path[4 * j + 2] for j in range((q - 2) // 4 + 1)} if q >= 2 else set())
    return ProbeSchedule.from_lists(max(1, max(len(r) for r in rounds)), rounds)


def regrouping_tree_levels(g: Graph, root: int) -> ProbeSchedule:
    """Reference level-line schedule: every old group's parent set is rebuilt each round.

    Groups of at most three vertices are cycled by one cop each, from the
    deepest nonleaf level up; an old group retires once a new group has
    probed all its parents, and two root rounds end the schedule.
    """
    parent, children, depth = rooted_tree(g, root)
    levels = nonleaf_levels(children, depth)
    budget = level_bound(levels)
    rounds: list[set[int]] = []
    guards: list[list] = []  # [cycle, rounds probed so far]

    def tick(gd: list) -> int:
        v = gd[0][gd[1] % len(gd[0])]
        gd[1] += 1
        return v

    def emit(extra=()) -> None:
        probes = set(extra)
        for gd in guards:
            probes.add(tick(gd))
        assert len(probes) <= budget
        rounds.append(probes)

    for j in range(len(levels) - 1, 0, -1):
        old_guards = guards
        order: list[int] = []
        seen: set[int] = set()
        for og in sorted(old_guards, key=lambda og: min(parent[v] for v in og[0])):
            for v in og[0]:
                if parent[v] not in seen:
                    seen.add(parent[v])
                    order.append(parent[v])
        for v in levels[j - 1]:
            if v not in seen:
                seen.add(v)
                order.append(v)
        pending = deque(order[i : i + 3] for i in range(0, len(order), 3))
        guards = []
        new_guards: list[list] = []
        probed_new: set[int] = set()
        while pending or old_guards:
            old_guards = [
                og for og in old_guards if not {parent[v] for v in og[0]} <= probed_new
            ]
            while pending and len(old_guards) + len(new_guards) < budget:
                new_guards.append([pending.popleft(), 0])
            if not pending and not old_guards:
                break
            guards = old_guards + new_guards
            emit()
            for gd in new_guards:
                probed_new.add(gd[0][(gd[1] - 1) % len(gd[0])])
        guards = new_guards
        for _ in range(3 if guards else 0):
            emit()
    for _ in range(2):
        emit((root,))
    return ProbeSchedule.from_lists(budget, rounds)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int = 2) -> Graph:
    """Random tree plus a few extra edges; always connected."""
    t = random_tree(rng, n)
    edges = set(t.edges())
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def small_corpus() -> list[tuple[str, Graph]]:
    """Named graphs of order <= 8 for the exhaustive-solver suites."""
    rng = random.Random(2024)
    corpus = [
        ("P2", generate("path", n=2)),
        ("P4", generate("path", n=4)),
        ("P6", generate("path", n=6)),
        ("P8", generate("path", n=8)),
        ("C3", generate("cycle", n=3)),
        ("C5", generate("cycle", n=5)),
        ("C6", generate("cycle", n=6)),
        ("C8", generate("cycle", n=8)),
        ("K2", generate("complete", n=2)),
        ("K3", generate("complete", n=3)),
        ("K4", generate("complete", n=4)),
        ("K5", generate("complete", n=5)),
        ("K6", generate("complete", n=6)),
        ("star4", generate("spider", arms=[1, 1, 1, 1])),
        ("star6", generate("spider", arms=[1] * 6)),
        ("spider222", generate("spider", arms=[2, 2, 2])),
        ("spider123", generate("spider", arms=[1, 2, 3])),
        ("grid2", generate("grid", n=2)),
        ("kary22", generate("kary", k=2, d=2)),
    ]
    for i in range(5):
        n = rng.randint(5, 8)
        corpus.append((f"rand{i}", random_connected_graph(rng, n, extra_edges=rng.randint(1, 3))))
    for i in range(4):
        n = rng.randint(5, 8)
        corpus.append((f"tree{i}", random_tree(rng, n)))
    return [(name, g) for name, g in corpus if g.n <= 8]


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def tree_batch():
    """200 random Pruefer trees with 3 <= n <= 9 plus the two tiny trees."""
    rng = random.Random(77)
    trees = [Graph(2, [(0, 1)])]
    while len(trees) < 200:
        n = rng.randint(3, 9)
        trees.append(random_tree(rng, n))
    return trees
