import heapq
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, settings

from lzl import Graph, generate
from lzl.graphs import mask_of

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
