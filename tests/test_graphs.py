import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lzl.errors import SizeCapError, UsageError
import lzl.graphs
from lzl.graphs import (
    FAMILIES,
    Graph,
    _byte_tables,
    _is_automorphism,
    automorphism_generators,
    closed_nb_bits,
    components_bits,
    generate,
    is_c4_free,
    iter_bits,
    mask_of,
    max_degree,
    meet_tables,
    orbit_closer,
    parse_graph,
    rooted_tree,
    serialize_graph,
    spread_tables,
    subdivide,
    twin_classes,
)
from lzl.prox import run_schedule
from lzl.strategies import strat_tree_depth, strat_tree_levels

from conftest import (
    bfs_distances,
    cartesian_product,
    edge_boundary,
    induced_connected,
    mask,
    random_connected_graph,
    row_construction,
    symmetric_graphs,
)


def full(g):
    return (1 << g.n) - 1


class TestParse:
    def test_single_edge(self):
        g = parse_graph("p 2 1\ne 1 2\n")
        assert g.n == 2 and g.m == 1

    def test_triangle(self):
        g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.m == 3
        assert all(len(g.nbrs[v]) == 2 for v in range(3))

    def test_self_loop_rejected(self):
        # a parse error names its line, and the command line prints it as is
        with pytest.raises(UsageError, match=r"^line 2: self-loop at vertex 1$"):
            parse_graph("p 2 1\ne 1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(UsageError) as err:
            parse_graph("p 3 2\ne 1 2\ne 1 2\n")
        assert "line 3" in str(err.value) and "duplicate" in str(err.value)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            parse_graph("p 2 1\ne 1 5\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(UsageError):
            parse_graph("p 3 2\ne 1 2\n")

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(UsageError):
            parse_graph("p 3 1\ne 2 1\n")

    def test_disconnected_needs_flag(self):
        text = "p 4 2\ne 1 2\ne 3 4\n"
        with pytest.raises(UsageError):
            parse_graph(text)

    def test_comments_and_labels(self):
        g = parse_graph("# a note\np 2 1\ne 1 2\nl 1 row=1\nl 1 col=2\n")
        assert g == parse_graph("# a note\np 2 1\ne 1 2\n")

    @pytest.mark.parametrize("text", [
        "l 1 row=1\np 2 1\ne 1 2\n",  # before the header
        "p 2 1\ne 1 2\nl 1 row\n",  # no '='
        "p 2 1\ne 1 2\nl x row=1\n",  # non-integer vertex
        "p 2 1\ne 1 2\nl 0 row=1\n",  # vertex 0
        "p 2 1\ne 1 2\nl 3 row=1\n",  # vertex n + 1
    ])
    def test_malformed_label_line_rejected(self, text):
        with pytest.raises(UsageError):
            parse_graph(text)

    @pytest.mark.parametrize("spec", ["grid:4", "kary:3,3:sub2"])
    def test_legacy_label_lines_are_ignored(self, spec):
        # label lines as earlier versions wrote them: after the edges, by
        # vertex, keys sorted; grids carried row/col, trees their depth
        if spec == "grid:4":
            g = generate("grid", n=4)
            labels = [f"l {v + 1} col={v % 4 + 1}\nl {v + 1} row={v // 4 + 1}\n"
                      for v in range(g.n)]
        else:
            g = subdivide(generate("kary", k=3, d=3), 2)
            labels = [f"l {v + 1} depth={d}\n" for v, d in enumerate(bfs_distances(g, 0))]
        legacy = parse_graph(serialize_graph(g) + "".join(labels))
        assert legacy == g and legacy.content_hash() == g.content_hash()

    def test_roundtrip_labeled_families(self):
        for g in [
            generate("grid", n=3),
            generate("kary", k=2, d=3),
            generate("spider", arms=[2, 1, 4]),
            generate("path", n=5),
        ]:
            assert parse_graph(serialize_graph(g)) == g

    def test_serialize_stable(self):
        g = generate("grid", n=4)
        assert serialize_graph(g) == serialize_graph(parse_graph(serialize_graph(g)))


class TestGenerate:
    def test_grid2_is_c4(self):
        g = generate("grid", n=2)
        assert g.n == 4 and g.m == 4
        assert all(len(g.nbrs[v]) == 2 for v in range(4))

    def test_kary_3_3_order(self):
        g = generate("kary", k=3, d=3)
        assert g.n == 40 and g.m == 39

    def test_subdivided_kary_order_and_depth(self):
        base = generate("kary", k=3, d=3)
        g = subdivide(base, 10)
        assert g.n == 430
        assert max(rooted_tree(g, 0)[2]) == 33

    @pytest.mark.parametrize("k, d", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 3), (4, 2)])
    def test_kary_labels_are_breadth_first(self, k, d):
        # level by level, each parent in order takes the next k ids
        edges, level, next_vertex = [], [0], 1
        for _ in range(d):
            children = list(range(next_vertex, next_vertex + k * len(level)))
            edges += [(level[i // k], c) for i, c in enumerate(children)]
            level, next_vertex = children, next_vertex + len(children)
        g = generate("kary", k=k, d=d)
        assert g.n == next_vertex and sorted(g.edges()) == sorted(edges)

    def test_spider_arms_in_order(self):
        g = generate("spider", arms=[3, 1, 4, 2])
        assert sorted(g.edges()) == [(0, 1), (0, 4), (0, 5), (0, 9), (1, 2), (2, 3),
                                     (5, 6), (6, 7), (7, 8), (9, 10)]

    def test_spider_333(self):
        g = generate("spider", arms=[3, 3, 3])
        assert g.n == 10 and len(g.nbrs[0]) == 3

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            generate("hypercube", n=3)

    def test_bad_params(self):
        with pytest.raises(UsageError):
            generate("path", n=0)
        with pytest.raises(UsageError):
            generate("spider", arms=[1, 1])

    def test_subdivide_zero_is_identity_shape(self):
        base = generate("kary", k=2, d=2)
        g = subdivide(base, 0)
        assert g.n == base.n and sorted(g.edges()) == sorted(base.edges())

    def test_vertex_cap(self):
        with pytest.raises(SizeCapError):
            generate("grid", n=200)


class TestProduct:
    def test_p2_p2_cycle(self):
        g = cartesian_product(generate("path", n=2), generate("path", n=2))
        assert g.n == 4 and g.m == 4

    def test_p4_p4_is_grid4(self):
        prod = cartesian_product(generate("path", n=4), generate("path", n=4))
        assert prod == generate("grid", n=4)

    def test_identity_factor(self):
        g = cartesian_product(generate("path", n=2), generate("complete", n=1))
        assert g.n == 2 and g.m == 1


def boundary_bits(g, s):
    """N[S] minus S: the vertices outside S touching it."""
    return closed_nb_bits(g, s) & ~s


class TestNeighborhoods:
    def test_closed_nb_path_center(self):
        g = generate("path", n=3)
        assert closed_nb_bits(g, mask(1)) == full(g)

    def test_closed_nb_empty(self):
        g = generate("path", n=3)
        assert closed_nb_bits(g, mask()) == mask()

    def test_closed_nb_complete(self):
        g = generate("complete", n=4)
        assert closed_nb_bits(g, mask(0)) == full(g)

    def test_vertex_boundary_path(self):
        g = generate("path", n=4)
        assert boundary_bits(g, mask(0)) == mask(1)
        assert boundary_bits(g, full(g)) == mask()

    def test_vertex_boundary_grid_corner(self):
        g = generate("grid", n=3)
        corner = mask(0)
        assert boundary_bits(g, corner).bit_count() == 2

    def test_edge_boundary(self):
        p4 = generate("path", n=4)
        assert edge_boundary(p4, mask(0, 1)) == 1
        k5 = generate("complete", n=5)
        assert edge_boundary(k5, mask(0, 1)) == 6
        assert edge_boundary(k5, mask()) == 0


def _loop_closed_nb(g, bits):
    """Reference N[S]: S with the adjacency row of each of its vertices."""
    out = bits
    for v in range(g.n):
        if (bits >> v) & 1:
            out |= g.adj_bits[v]
    return out


def _loop_meet(g, bits):
    """Reference meet of N[u] over u in S: the vertices v with S inside N[v]."""
    return mask_of(v for v in range(g.n) if bits & ~_loop_closed_nb(g, 1 << v) == 0)


#: every FAMILIES entry, subdivisions, products and a parsed file
KERNEL_GRAPHS = {
    "path:1": generate("path", n=1),
    "path:7": generate("path", n=7),
    "cycle:3": generate("cycle", n=3),
    "cycle:9": generate("cycle", n=9),
    "complete:5": generate("complete", n=5),
    "complete:9": generate("complete", n=9),
    "grid:1": generate("grid", n=1),
    "grid:2": generate("grid", n=2),
    "grid:7": generate("grid", n=7),
    "kary:2,3": generate("kary", k=2, d=3),
    "kary:3,3": generate("kary", k=3, d=3),
    "spider:1,2,3": generate("spider", arms=[1, 2, 3]),
    "spider:2,2,2,2,2": generate("spider", arms=[2, 2, 2, 2, 2]),
    "grid:3:sub1": subdivide(generate("grid", n=3), 1),
    "kary:2,2:sub2": subdivide(generate("kary", k=2, d=2), 2),
    "path:3xpath:5": cartesian_product(generate("path", n=3), generate("path", n=5)),
    "cycle:4xcycle:4": cartesian_product(generate("cycle", n=4), generate("cycle", n=4)),
    "cycle:3xcycle:5": cartesian_product(generate("cycle", n=3), generate("cycle", n=5)),
    "parsed grid:6": parse_graph(serialize_graph(generate("grid", n=6))),
}

#: lattices get the shift kernel, whoever built them
LATTICES = [
    "path:1", "path:7", "cycle:3", "cycle:9", "grid:1", "grid:2", "grid:7",
    "path:3xpath:5", "cycle:4xcycle:4", "cycle:3xcycle:5", "parsed grid:6",
]


class TestNeighbourhoodKernel:
    def test_corpus_covers_both_kernels_and_every_family(self):
        assert {name.split(":")[0] for name in KERNEL_GRAPHS} >= set(FAMILIES)
        assert all(KERNEL_GRAPHS[name].shifts is not None for name in LATTICES)
        assert KERNEL_GRAPHS["complete:9"].shifts is None
        assert KERNEL_GRAPHS["kary:3,3"].shifts is None
        assert KERNEL_GRAPHS["spider:2,2,2,2,2"].shifts is None

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_matches_loop_reference(self, name):
        g = KERNEL_GRAPHS[name]
        rng = random.Random(name)
        masks = [0, (1 << g.n) - 1] + [1 << v for v in range(g.n)]
        for _ in range(200):
            bits = (1 << g.n) - 1
            for _ in range(rng.randint(1, 5)):  # about 1/2, 1/4, ... or 1/32 of V
                bits &= rng.getrandbits(g.n)
            masks.append(bits)
        # three vertices anywhere: most of the mask's bytes are empty
        masks += [mask_of(rng.sample(range(g.n), min(g.n, 3))) for _ in range(50)]
        for bits in masks:
            assert closed_nb_bits(g, bits) == _loop_closed_nb(g, bits), bits

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_byte_tables_match_loop_reference(self, name):
        g = KERNEL_GRAPHS[name]
        rows = tuple(_loop_closed_nb(g, 1 << v) for v in range(g.n))
        if g.n <= 16:  # the kept spread tables, at every mask
            kept_rows, low, high = spread_tables(g)
            assert kept_rows == rows
            for s in range(1 << g.n):
                assert low[s & 255] | high[s >> 8] == _loop_closed_nb(g, s), s
            return
        for lo in range(0, g.n, 8):  # too many masks: each byte of vertices alone
            table, _ = _byte_tables(rows[lo:lo + 8])
            for s, nb in enumerate(table):
                assert nb == _loop_closed_nb(g, s << lo), (lo, s)

    @pytest.mark.parametrize("name", sorted(k for k, g in KERNEL_GRAPHS.items() if g.n <= 10))
    def test_meet_tables_at_every_mask(self, name):
        g = KERNEL_GRAPHS[name]
        low, high = meet_tables(g)
        for s in range(1 << g.n):
            assert low[s & 255] & high[s >> 8] == _loop_meet(g, s), s

    @pytest.mark.parametrize("seed", range(3))
    def test_meet_tables_at_sixteen_vertices(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, 16, extra_edges=8 * seed)
        low, high = meet_tables(g)
        masks = [0, (1 << 16) - 1] + [1 << v for v in range(16)]
        for _ in range(200):
            bits = (1 << 16) - 1
            for _ in range(rng.randint(1, 5)):  # about 1/2, 1/4, ... or 1/32 of V
                bits &= rng.getrandbits(16)
            masks.append(bits)
        for s in masks:
            assert low[s & 255] & high[s >> 8] == _loop_meet(g, s), s

    def test_offset_limit(self):
        # complete:5 has the offsets +-1..+-4, complete:6 one pair more
        assert generate("complete", n=5).shifts is not None
        assert generate("complete", n=6).shifts is None

    def test_trees_stay_on_the_loop(self):
        assert generate("kary", k=3, d=8).shifts is None
        assert subdivide(generate("kary", k=3, d=3), 100).shifts is None


def random_masks(g, count):
    rng = random.Random(g.n)
    return [rng.getrandbits(g.n) | 1 << rng.randrange(g.n) for _ in range(count)]


class TestTraversals:
    """Traversals step through the graph's neighbourhood kernel; a queue BFS checks them."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_distances(self, name):
        # rooted_tree is a BFS, so on any connected graph its depths are hop counts
        g = KERNEL_GRAPHS[name]
        for v in range(g.n):
            assert rooted_tree(g, v)[2] == bfs_distances(g, v), v

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_components(self, name):
        g = KERNEL_GRAPHS[name]
        for within in [full(g)] + random_masks(g, 30):
            expected = []
            remaining = within
            while remaining:
                seed = (remaining & -remaining).bit_length() - 1
                comp = mask_of(w for w, d in enumerate(bfs_distances(g, seed, within)) if d >= 0)
                expected.append(comp)
                remaining &= ~comp
            assert components_bits(g, within) == expected, within

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_is_connected(self, name):
        assert min(bfs_distances(KERNEL_GRAPHS[name], 0)) >= 0

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_neighbor_tuples(self, name):
        g = KERNEL_GRAPHS[name]
        assert g.nbrs == tuple(
            tuple(w for w in range(g.n) if (g.adj_bits[v] >> w) & 1) for v in range(g.n)
        )
        # stored as tuples all the way down, so the graph hashes by them
        assert type(g.nbrs) is tuple and all(type(row) is tuple for row in g.nbrs)

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_endgame_ball2(self, name):
        # N[N[v]], the two-ball an endgame lift would probe (ROADMAP item 12),
        # is the BFS ball of radius two: an oracle apart from the loop reference
        g = KERNEL_GRAPHS[name]
        for v in range(g.n):
            ball = mask_of(w for w, d in enumerate(bfs_distances(g, v)) if 0 <= d <= 2)
            assert closed_nb_bits(g, closed_nb_bits(g, 1 << v)) == ball, v


class TestMetrics:
    def test_distances_path(self):
        g = generate("path", n=4)
        assert rooted_tree(g, 0)[2] == [0, 1, 2, 3]

    def test_diameter_grid(self):
        g = generate("grid", n=4)
        assert max(max(bfs_distances(g, v)) for v in range(g.n)) == 6

    def test_c4_free(self):
        assert not is_c4_free(generate("grid", n=2))
        assert is_c4_free(generate("kary", k=2, d=3))
        assert is_c4_free(generate("path", n=6))

    def test_max_degree(self):
        assert max_degree(generate("spider", arms=[1] * 5)) == 5


def components_without(g, v):
    """Components of G - v."""
    return components_bits(g, full(g) & ~mask(v))


class TestComponents:
    def test_path_center_removal(self):
        g = generate("path", n=5)
        comps = components_without(g, 2)
        assert sorted(c.bit_count() for c in comps) == [2, 2]

    def test_star_center_removal(self):
        g = generate("spider", arms=[1, 1, 1, 1])
        comps = components_without(g, 0)
        assert sorted(c.bit_count() for c in comps) == [1, 1, 1, 1]

    def test_cycle_removal(self):
        g = generate("cycle", n=5)
        comps = components_without(g, 0)
        assert [c.bit_count() for c in comps] == [4]


@given(st.integers(0, 10_000), st.integers(2, 9))
def test_boundary_identities(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    s = mask_of(v for v in range(n) if rng.random() < 0.5)
    boundary = boundary_bits(g, s)
    assert boundary == mask_of(
        w for w in range(n) if not (s >> w) & 1 and g.adj_bits[w] & s
    )
    assert edge_boundary(g, s) <= max_degree(g) * boundary.bit_count()


@given(st.integers(0, 10_000), st.integers(3, 9))
def test_components_partition(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    v = rng.randrange(n)
    comps = components_without(g, v)
    union = 0
    for c in comps:
        assert not (union & c)
        union = union | c
        induced_connected(g, c)  # raises unless c is connected
    assert comps == sorted(comps, key=lambda c: c & -c)
    assert union == full(g) & ~mask(v)


EDGE_LISTS = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), max_size=12),
))


@given(EDGE_LISTS)
def test_graph_is_connected_and_a_tree_by_edge_count(case):
    """Graph(n, edges) raises exactly when the edges leave it disconnected,
    and then is_tree() holds exactly for n - 1 edges, i.e. with no cycle."""
    n, edges = case
    # a hub joined to every vertex makes a Graph of any edge list; the BFS
    # oracle kept off the hub sees the edge list alone
    hub = Graph(n + 1, edges + [(v, n) for v in range(n)])
    if min(bfs_distances(hub, 0, (1 << n) - 1)[:n]) < 0:
        with pytest.raises(UsageError, match="disconnected"):
            Graph(n, edges)
        return
    g = Graph(n, edges)
    distinct = {(min(e), max(e)) for e in edges}
    root = list(range(n))  # union-find: an edge inside one class closes a cycle

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    acyclic = True
    for u, v in distinct:
        ru, rv = find(u), find(v)
        acyclic &= ru != rv
        root[ru] = rv
    assert g.m == len(distinct)
    assert g.is_tree() == (len(distinct) == n - 1) == acyclic


def assert_built_like_rows(n, edges):
    """Graph(n, edges) raises what the row construction raises, or agrees with it on every reading."""
    try:
        ref = row_construction(n, edges)
    except (UsageError, SizeCapError) as exc:
        with pytest.raises((UsageError, SizeCapError)) as raised:
            Graph(n, edges)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    g = Graph(n, edges)
    assert g.nbrs == tuple(tuple(iter_bits(row)) for row in ref.adj_bits)
    assert g.adj_bits == ref.adj_bits
    assert g.m == len(ref.edges)
    assert list(g.edges()) == ref.edges
    assert g.shifts == ref.shifts
    assert serialize_graph(g) == ref.text
    assert g.content_hash() == ref.content_hash


class TestConstruction:
    @given(EDGE_LISTS, st.booleans(), st.integers(0, 20),
           st.sampled_from([None, None, None, (0, 0), (2, 2), (0, -1), (9, 9), (1, 99)]))
    @settings(max_examples=300)
    def test_matches_row_construction(self, case, spanning, at, bad):
        # repeated and reversed pairs come up often among up to 12 edges on
        # at most 8 vertices; a reversed spanning path makes most cases
        # connected, and one bad edge goes anywhere in the list
        n, drawn = case
        edges = ([(v + 1, v) for v in range(n - 1)] if spanning else []) + drawn
        if bad:
            edges.insert(at % (len(edges) + 1), bad)
        assert_built_like_rows(n, edges)

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_kernel_graphs_match_row_construction(self, name):
        g = KERNEL_GRAPHS[name]
        edges = list(g.edges())
        assert_built_like_rows(g.n, edges)
        assert_built_like_rows(g.n, [(v, u) for u, v in reversed(edges)] + edges)

    @pytest.mark.parametrize("n, edges", [
        (0, []),
        (-3, [(0, 1)]),
        (3, [(0, 1), (1, 3)]),
        (3, [(0, 1), (-1, 2)]),
        (3, [(0, 1), (2, 2)]),
        (3, [(1, 1), (0, 5)]),  # the first bad edge is the one named
        (3, [(0, 5), (1, 1)]),
        (4, [(0, 1), (2, 3), (1, 0)]),
        (2, []),
    ])
    def test_refusals_match_row_construction(self, n, edges):
        with pytest.raises((UsageError, SizeCapError)):
            row_construction(n, edges)
        assert_built_like_rows(n, edges)

    def test_order_cap_before_any_edge_is_read(self):
        def unread():
            raise AssertionError("an edge was read")
            yield

        n = lzl.graphs.VERTEX_CAP + 1
        for build in (row_construction, Graph):
            with pytest.raises(SizeCapError, match=rf"^graph order: size {n} exceeds cap"):
                build(n, unread())


@pytest.mark.parametrize("g, build", [
    (generate("kary", k=3, d=8), strat_tree_depth),
    (subdivide(generate("kary", k=3, d=3), 100), strat_tree_levels),
], ids=["kary:3,8-tree-depth", "T100-tree-levels"])
def test_tree_path_builds_no_rows(g, build):
    # a tree schedule, its verification and the report's graph fields read
    # the neighbour tuples; only the content hash is kept in the store
    assert run_schedule(g, build(g, 0)).cleared
    assert g.content_hash() and max_degree(g) == 4 and g.is_tree()
    assert list(g._store) == [Graph.content_hash.__wrapped__]


@given(st.integers(0, 10_000), st.integers(2, 9))
def test_parse_serialize_roundtrip(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    assert parse_graph(serialize_graph(g)) == g


def test_iter_bits_and_mask_of():
    s = mask_of([5, 1, 3])
    assert s == 0b101010
    assert list(iter_bits(s)) == [1, 3, 5]
    assert list(iter_bits(0)) == []
    assert mask_of(iter_bits(s)) == s


# -- automorphisms ------------------------------------------------------


def brute_automorphisms(g):
    """Every vertex permutation that maps the edge set onto itself: n! candidates."""
    edges = set(g.edges())
    return [
        p for p in permutations(range(g.n))
        if {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges
    ]


def generated_group(gens, n):
    """Every product of the generators, closed from the identity."""
    group = {tuple(range(n))}
    todo = list(group)
    for p in todo:
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


class TestAutomorphisms:
    @given(st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 12))
    @settings(max_examples=120)
    def test_group_order_matches_brute_force(self, seed, n, extra):
        g = random_connected_graph(random.Random(seed), n, extra_edges=extra)
        group = generated_group(automorphism_generators(g), n)
        assert group == set(brute_automorphisms(g)), sorted(g.edges())

    @pytest.mark.parametrize("name", sorted(symmetric_graphs()))
    def test_named_group_orders(self, name):
        g, order = symmetric_graphs()[name]
        assert len(generated_group(automorphism_generators(g), g.n)) == order

    def test_twins_need_no_search(self):
        # K_n, stars and K_{a,b} with a != b: twin transpositions alone give n!, (n-1)! and a!b!
        k25 = symmetric_graphs()["K2,5"][0]
        for g in (generate("complete", n=9), generate("spider", arms=[1] * 6), k25):
            twins = lzl.graphs._twin_transpositions(g)
            assert lzl.graphs._search_generators(g.adj_bits, twins) == []

    def test_asymmetric_graph_has_no_generator(self):
        # the smallest asymmetric tree: a spider with arms 1, 2, 3
        assert automorphism_generators(generate("spider", arms=[1, 2, 3])) == ()

    def test_built_once_per_graph(self):
        g = generate("grid", n=3)
        for kept in (Graph.content_hash, Graph.adj_bits.fget, spread_tables, meet_tables,
                     automorphism_generators, twin_classes, orbit_closer):
            assert kept(g) is kept(g), kept.__name__

    def test_non_automorphisms_are_refused(self):
        adj = generate("path", n=4).adj_bits
        assert _is_automorphism(adj, (3, 2, 1, 0))
        assert not _is_automorphism(adj, (1, 0, 2, 3))  # maps edge 1-2 to 0-2
        assert not _is_automorphism(adj, (0, 0, 2, 3))  # not a permutation

    def test_a_faulty_generator_raises(self, monkeypatch):
        bad = (1, 0, 2, 3)
        monkeypatch.setattr(lzl.graphs, "_twin_transpositions", lambda g: [bad])
        with pytest.raises(AssertionError):
            automorphism_generators(generate("path", n=4))

    @pytest.mark.parametrize("name", ["grid:3", "K3,3", "kary:2,2", "petersen"])
    def test_orbits_are_the_group_images(self, name):
        g = symmetric_graphs()[name][0]
        group = generated_group(automorphism_generators(g), g.n)
        close = orbit_closer(g)
        for m in random.Random(7).sample(range(1 << g.n), 40):
            seen = bytearray(1 << g.n)
            orbit = close(m, seen)
            images = {mask_of(p[v] for v in iter_bits(m)) for p in group}
            assert orbit[0] == m and sorted(orbit) == sorted(images)
            assert {x for x in range(1 << g.n) if seen[x]} == images
