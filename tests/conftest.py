import heapq
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, settings

from lzl.graphs import Graph, generate, iter_bits, mask_of

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


def grid_profile_oracle(n: int) -> tuple[int, int, int]:
    """Closed-form middle window of the n-by-n grid vertex profile.

    Returns (k_lo, k_hi, n): Phi_V equals n on every k in [k_lo, k_hi],
    a run of 2n-2 consecutive entries.
    """
    assert n >= 2, "grid oracle needs n >= 2"
    k_lo = (n * n - 3 * n + 4) // 2
    k_hi = (n * n + n - 2) // 2
    return k_lo, k_hi, n


def panel_rounds(plan) -> list[dict[int, tuple]]:
    """Each panel's probes by round, split off ``plan.rounds`` by column window.

    Panel p (0-based) of a plan with panel width m probes the columns
    [p*m, p*m + m + 1] on the rounds t >= its start round s with
    t - s = 0 or 3 mod 5, and the round lists the active panels' probes in
    panel order.  Two panels active in one round are two or three apart,
    so for m >= 3 their windows are disjoint; the split must give back
    every round exactly, which also checks that no panel probes off its
    cadence.
    """
    m = plan.m
    panels: list[dict[int, tuple]] = [{} for _ in plan.panel_starts]
    for t, probes in enumerate(plan.rounds, 1):
        parts = []
        active = 0
        for p, (start, _) in enumerate(plan.panel_starts):
            if t < start or (t - start) % 5 not in (0, 3):
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
