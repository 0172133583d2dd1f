import random

import pytest
from hypothesis import given, strategies as st

from lzl import (
    Graph,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    components_after_removal,
    diameter,
    distances,
    edge_boundary_count,
    generate,
    is_c4_free,
    max_degree,
    parse_graph,
    serialize_graph,
    subdivide,
    vertex_boundary,
)
from lzl.errors import GraphParseError, GraphValidationError, SizeCapError
from lzl.graphs import FAMILIES, closed_nb_bits, closed_nb_table

from conftest import random_connected_graph


def vs(g, *vertices):
    return g.vertex_set(vertices)


class TestParse:
    def test_single_edge(self):
        g = parse_graph("p 2 1\ne 1 2\n")
        assert g.n == 2 and g.edge_count() == 1

    def test_triangle(self):
        g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.edge_count() == 3
        assert all(g.degree(v) == 2 for v in range(3))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("p 2 1\ne 1 1\n")
        assert "line 2" in str(err.value)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("p 3 2\ne 1 2\ne 1 2\n")
        assert "line 3" in str(err.value) and "duplicate" in str(err.value)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("p 2 1\ne 1 5\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_graph("p 3 2\ne 1 2\n")

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("p 3 1\ne 2 1\n")

    def test_disconnected_needs_flag(self):
        text = "p 4 2\ne 1 2\ne 3 4\n"
        with pytest.raises(GraphValidationError):
            parse_graph(text)
        g = parse_graph(text, allow_disconnected=True)
        assert g.n == 4

    def test_comments_and_labels(self):
        g = parse_graph("# a note\np 2 1\ne 1 2\nl 1 row=1\nl 1 col=2\n")
        assert g.label(0, "row") == 1 and g.label(0, "col") == 2

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
        assert g.n == 4 and g.edge_count() == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_kary_3_3_order(self):
        g = generate("kary", k=3, d=3)
        assert g.n == 40 and g.edge_count() == 39

    def test_subdivided_kary_order_and_depth(self):
        base = generate("kary", k=3, d=3)
        g = subdivide(base, 10)
        assert g.n == 430
        assert max(g.label(v, "depth") for v in range(g.n)) == 33

    def test_spider_333(self):
        g = generate("spider", arms=[3, 3, 3])
        assert g.n == 10 and g.degree(0) == 3

    def test_unknown_family(self):
        with pytest.raises(GraphValidationError):
            generate("hypercube", n=3)

    def test_bad_params(self):
        with pytest.raises(GraphValidationError):
            generate("path", n=0)
        with pytest.raises(GraphValidationError):
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
        assert g.n == 4 and g.edge_count() == 4

    def test_p4_p4_is_grid4(self):
        prod = cartesian_product(generate("path", n=4), generate("path", n=4))
        assert prod == generate("grid", n=4)

    def test_identity_factor(self):
        g = cartesian_product(generate("path", n=2), generate("complete", n=1))
        assert g.n == 2 and g.edge_count() == 1


class TestNeighborhoods:
    def test_closed_nb_path_center(self):
        g = generate("path", n=3)
        assert closed_neighborhood(g, vs(g, 1)) == g.full_set()

    def test_closed_nb_empty(self):
        g = generate("path", n=3)
        assert closed_neighborhood(g, vs(g)) == vs(g)

    def test_closed_nb_complete(self):
        g = generate("complete", n=4)
        assert closed_neighborhood(g, vs(g, 0)) == g.full_set()

    def test_vertex_boundary_path(self):
        g = generate("path", n=4)
        assert vertex_boundary(g, vs(g, 0)) == vs(g, 1)
        assert vertex_boundary(g, g.full_set()) == vs(g)

    def test_vertex_boundary_grid_corner(self):
        g = generate("grid", n=3)
        corner = vs(g, 0)
        assert len(vertex_boundary(g, corner)) == 2

    def test_edge_boundary(self):
        p4 = generate("path", n=4)
        assert edge_boundary_count(p4, vs(p4, 0, 1)) == 1
        k5 = generate("complete", n=5)
        assert edge_boundary_count(k5, vs(k5, 0, 1)) == 6
        assert edge_boundary_count(k5, vs(k5)) == 0


def _loop_closed_nb(g, bits):
    """Reference N[S]: S with the adjacency row of each of its vertices."""
    out = bits
    for v in range(g.n):
        if (bits >> v) & 1:
            out |= g.adj_bits[v]
    return out


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
            for _ in range(rng.randint(1, 3)):  # about 1/2, 1/4 or 1/8 of V
                bits &= rng.getrandbits(g.n)
            masks.append(bits)
        for bits in masks:
            assert closed_nb_bits(g, bits) == _loop_closed_nb(g, bits), bits

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_byte_tables_match_loop_reference(self, name):
        g = KERNEL_GRAPHS[name]
        for lo in range(0, g.n, 8):
            table = closed_nb_table(g, range(lo, min(g.n, lo + 8)))
            for s, nb in enumerate(table):
                assert nb == _loop_closed_nb(g, s << lo), (lo, s)

    def test_offset_limit(self):
        # complete:5 has the offsets +-1..+-4, complete:6 one pair more
        assert generate("complete", n=5).shifts is not None
        assert generate("complete", n=6).shifts is None

    def test_trees_stay_on_the_loop(self):
        assert generate("kary", k=3, d=8).shifts is None
        assert subdivide(generate("kary", k=3, d=3), 100).shifts is None


class TestMetrics:
    def test_distances_path(self):
        g = generate("path", n=4)
        assert distances(g, 0) == [0, 1, 2, 3]

    def test_diameter_grid(self):
        assert diameter(generate("grid", n=4)) == 6

    def test_c4_free(self):
        assert not is_c4_free(generate("grid", n=2))
        assert is_c4_free(generate("kary", k=2, d=3))
        assert is_c4_free(generate("path", n=6))

    def test_max_degree(self):
        assert max_degree(generate("spider", arms=[1] * 5)) == 5


class TestComponents:
    def test_path_center_removal(self):
        g = generate("path", n=5)
        comps = components_after_removal(g, 2)
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_star_center_removal(self):
        g = generate("spider", arms=[1, 1, 1, 1])
        comps = components_after_removal(g, 0)
        assert sorted(len(c) for c in comps) == [1, 1, 1, 1]

    def test_cycle_removal(self):
        g = generate("cycle", n=5)
        comps = components_after_removal(g, 0)
        assert [len(c) for c in comps] == [4]


@given(st.integers(0, 10_000), st.integers(2, 9))
def test_boundary_identities(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    members = [v for v in range(n) if rng.random() < 0.5]
    s = g.vertex_set(members)
    assert vertex_boundary(g, s) == closed_neighborhood(g, s) - s
    assert edge_boundary_count(g, s) <= max_degree(g) * len(vertex_boundary(g, s))


@given(st.integers(0, 10_000), st.integers(3, 9))
def test_components_partition(seed, n):
    from lzl.graphs import induced_subgraph

    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    v = rng.randrange(n)
    comps = components_after_removal(g, v)
    union = g.vertex_set([])
    for c in comps:
        assert not (union & c)
        union = union | c
        part, _ = induced_subgraph(g, c)
        assert part.is_connected()
    assert union == g.full_set() - g.vertex_set([v])


@given(st.integers(0, 10_000), st.integers(2, 9))
def test_parse_serialize_roundtrip(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    assert parse_graph(serialize_graph(g)) == g


def test_vertexset_basics():
    s = VertexSet.from_iterable(8, [1, 3, 5])
    assert list(s) == [1, 3, 5]
    assert len(s) == 3
    assert 3 in s and 2 not in s
    t = VertexSet.from_iterable(8, [3, 4])
    assert list(s | t) == [1, 3, 4, 5]
    assert list(s & t) == [3]
    assert list(s - t) == [1, 5]
    assert list(s.complement()) == [0, 2, 4, 6, 7]
    with pytest.raises(ValueError):
        VertexSet.from_iterable(4, [9])
