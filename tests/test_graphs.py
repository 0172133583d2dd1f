import random

import pytest
from hypothesis import given, strategies as st

from lzl.errors import GraphParseError, GraphValidationError, SizeCapError
from lzl.graphs import (
    FAMILIES,
    closed_nb_bits,
    closed_nb_table,
    components_bits,
    distances,
    generate,
    induced_subgraph,
    is_c4_free,
    iter_bits,
    mask_of,
    max_degree,
    neighbor_tuples,
    parse_graph,
    serialize_graph,
    subdivide,
)
from lzl.prox import ProbeSchedule, run_schedule
from lzl.strategies import EndgameLiftPolicy

from conftest import (
    bfs_distances,
    cartesian_product,
    edge_boundary,
    mask,
    random_connected_graph,
)


def full(g):
    return (1 << g.n) - 1


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
        with pytest.raises(GraphParseError):
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
            labels = [f"l {v + 1} depth={d}\n" for v, d in enumerate(distances(g, 0))]
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
        assert g.n == 4 and g.edge_count() == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_kary_3_3_order(self):
        g = generate("kary", k=3, d=3)
        assert g.n == 40 and g.edge_count() == 39

    def test_subdivided_kary_order_and_depth(self):
        base = generate("kary", k=3, d=3)
        g = subdivide(base, 10)
        assert g.n == 430
        assert max(distances(g, 0)) == 33

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


def random_masks(g, count):
    rng = random.Random(g.n)
    return [rng.getrandbits(g.n) | 1 << rng.randrange(g.n) for _ in range(count)]


class TestTraversals:
    """Traversals step through the graph's neighbourhood kernel; a queue BFS checks them."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_distances(self, name):
        g = KERNEL_GRAPHS[name]
        for v in range(g.n):
            assert distances(g, v) == bfs_distances(g, v), v

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
        g = KERNEL_GRAPHS[name]
        assert g.is_connected()
        for within in random_masks(g, 30):
            h, _ = induced_subgraph(g, within)
            assert h.is_connected() == (min(bfs_distances(h, 0)) >= 0), within

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_neighbor_tuples(self, name):
        g = KERNEL_GRAPHS[name]
        assert neighbor_tuples(g) == tuple(
            tuple(w for w in range(g.n) if g.has_edge(v, w)) for v in range(g.n)
        )
        assert neighbor_tuples(g) is neighbor_tuples(g)  # built once per graph

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
    def test_endgame_ball2(self, name):
        g = KERNEL_GRAPHS[name]
        policy = EndgameLiftPolicy(g, ProbeSchedule.from_lists(1, [[0]]))
        for v in range(g.n):
            ball = {w for w, d in enumerate(bfs_distances(g, v)) if 1 <= d <= 2}
            assert policy.ball2[v] == ball, v


class TestMetrics:
    def test_distances_path(self):
        g = generate("path", n=4)
        assert distances(g, 0) == [0, 1, 2, 3]

    def test_diameter_grid(self):
        g = generate("grid", n=4)
        assert max(max(distances(g, v)) for v in range(g.n)) == 6

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
        part, _ = induced_subgraph(g, c)
        assert part.is_connected()
    assert comps == sorted(comps, key=lambda c: c & -c)
    assert union == full(g) & ~mask(v)


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


@pytest.mark.parametrize("bits", [-1, 1 << 4, 0b110000])
@pytest.mark.parametrize("entry", [
    "run_schedule",
    "induced_subgraph",
])
def test_entry_points_reject_foreign_masks(entry, bits):
    """A mask with a sign or a bit at or above n names no vertex set of G."""
    g = generate("path", n=4)
    calls = {
        "run_schedule": lambda: run_schedule(
            g, ProbeSchedule.from_lists(1, [[1]]), initial=bits
        ),
        "induced_subgraph": lambda: induced_subgraph(g, bits),
    }
    with pytest.raises(GraphValidationError, match="order 4"):
        calls[entry]()
