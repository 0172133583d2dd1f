import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lzl.iso
from lzl.errors import SizeCapError
from lzl.graphs import Graph, closed_nb_bits, generate, mask_of, max_degree, subdivide
from lzl.iso import (
    ISO_CAP,
    _scan_profiles,
    _tree_profiles,
    assemble_bounds,
    h_index,
    iso_profile,
    kary_bound_report,
    profile_to_csv,
)

from conftest import (
    edge_boundary,
    gray_scan_oracle,
    grid_profile_oracle,
    peak_to_h_lower,
    random_connected_graph,
    random_tree,
)

ROOT = Path(__file__).resolve().parents[1]


def naive_profile(g, mode):
    """Independent oracle: minimum boundary per cardinality by direct scan."""
    values = []
    for k in range(1, g.n + 1):
        best = None
        for combo in combinations(range(g.n), k):
            s = mask_of(combo)
            size = (
                (closed_nb_bits(g, s) & ~s).bit_count()
                if mode == "vertex"
                else edge_boundary(g, s)
            )
            best = size if best is None else min(best, size)
        values.append(best)
    return tuple(values)


def naive_h_index(values):
    """Independent oracle: try every (h, window) pair."""
    n = len(values)
    best = 0
    for h in range(1, n + 1):
        for start in range(0, n - h + 1):
            if all(values[start + i] >= h for i in range(h)):
                best = max(best, h)
    return best


class TestProfiles:
    def test_k5_vertex(self):
        prof = iso_profile(generate("complete", n=5))[0]
        assert prof == (4, 3, 2, 1, 0)

    def test_p4_edge(self):
        prof = iso_profile(generate("path", n=4))[1]
        assert prof == (1, 1, 1, 0)

    def test_grid4_middle_window(self):
        prof = iso_profile(generate("grid", n=4))[0]
        lo, hi, value = grid_profile_oracle(4)
        assert (lo, hi, value) == (4, 9, 4)
        for k in range(lo, hi + 1):
            assert prof[k - 1] == value

    def test_grid3_matches_oracle_window(self):
        prof = iso_profile(generate("grid", n=3))[0]
        lo, hi, value = grid_profile_oracle(3)
        assert (lo, hi, value) == (2, 5, 3)
        for k in range(lo, hi + 1):
            assert prof[k - 1] == value

    def test_grid2_oracle(self):
        prof = iso_profile(generate("grid", n=2))[0]
        lo, hi, value = grid_profile_oracle(2)
        assert (lo, hi, value) == (1, 2, 2)
        for k in range(lo, hi + 1):
            assert prof[k - 1] == value

    def test_cap(self):
        with pytest.raises(SizeCapError):
            iso_profile(generate("grid", n=6))

    @given(st.integers(0, 10**6), st.integers(1, 14))
    @settings(max_examples=40)
    def test_scan_matches_gray_oracle(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n))
        assert _scan_profiles(g) == gray_scan_oracle(g)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_scan_matches_gray_oracle_on_dense_graphs(self, n):
        # the edge lanes are widest here, and m rather than n sets the lane width
        rng = random.Random(n)
        dense = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if v == u + 1 or rng.random() < 0.75])
        for g in (generate("complete", n=n), dense):
            assert _scan_profiles(g) == gray_scan_oracle(g)

    def test_scan_split(self, monkeypatch):
        # min(n, n // 2 + 2, 13) low vertices, so 2^(low + 1) lanes: under 25 KB at the cap
        counts = []

        class Recorded(lzl.iso._Lanes):
            def __init__(self, largest, count):
                super().__init__(largest, count)
                counts.append((count, count * self.w))

        monkeypatch.setattr(lzl.iso, "_Lanes", Recorded)
        for n, low in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 4), (12, 8), (20, 12), (21, 12),
                       (22, 13), (24, 13)):
            counts.clear()
            _scan_profiles(generate("cycle" if n >= 3 else "path", n=n))
            assert counts[0][0] == 2 << low, n
        counts.clear()
        _scan_profiles(generate("complete", n=ISO_CAP))
        lanes, bits = counts[0]  # 11-bit lanes, for m = 300
        assert lanes == 2 << 13 and bits == lanes * 11 <= 25 * 8 * 1024

    def test_closed_forms_at_the_cap(self):
        n = ISO_CAP
        vertex, edge = iso_profile(generate("cycle", n=n))
        assert vertex == (2,) * (n - 2) + (1, 0)
        assert edge == (2,) * (n - 1) + (0,)
        vertex, edge = iso_profile(generate("complete", n=n))
        assert vertex == tuple(n - k for k in range(1, n + 1))
        assert edge == tuple(k * (n - k) for k in range(1, n + 1))

    def test_cli_import_skips_multiprocessing(self):
        # the scan runs in-process, so importing the CLI must not pay for a pool
        code = "import lzl.cli, sys; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=30)
    def test_gray_scan_matches_naive(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        vertex, edge = _scan_profiles(g)
        assert vertex == naive_profile(g, "vertex")
        assert edge == naive_profile(g, "edge")


def family_trees():
    """Trees of every tree family within the subset-scan cap, some subdivided;
    among them every k-ary tree with k, d >= 2 within it."""
    specs = [
        ("path1", generate("path", n=1)),
        ("path2", generate("path", n=2)),
        ("path16", generate("path", n=16)),
        ("path25", generate("path", n=ISO_CAP)),
        ("kary1-5", generate("kary", k=1, d=5)),
        ("kary2-2", generate("kary", k=2, d=2)),
        ("kary2-3", generate("kary", k=2, d=3)),
        ("kary3-2", generate("kary", k=3, d=2)),
        ("kary4-2", generate("kary", k=4, d=2)),
        ("spider111", generate("spider", arms=[1, 1, 1])),
        ("star12", generate("spider", arms=[1] * 12)),
        ("spider1234", generate("spider", arms=[1, 2, 3, 4])),
        ("spider555", generate("spider", arms=[5, 5, 5])),
        # orders 20, 21 and 24 put 12, 12 and 13 vertices in the scan's lanes
        ("spider5554", generate("spider", arms=[5, 5, 5, 4])),
        ("spider5555", generate("spider", arms=[5, 5, 5, 5])),
        ("spider55553", generate("spider", arms=[5, 5, 5, 5, 3])),
        ("spider2x8", generate("spider", arms=[2] * 8)),
        ("kary2-2-sub1", subdivide(generate("kary", k=2, d=2), 1)),
        ("kary2-2-sub2", subdivide(generate("kary", k=2, d=2), 2)),
        ("kary3-2-sub1", subdivide(generate("kary", k=3, d=2), 1)),
        ("spider333-sub1", subdivide(generate("spider", arms=[3, 3, 3]), 1)),
        ("path5-sub3", subdivide(generate("path", n=5), 3)),
    ]
    return [pytest.param(g, id=name) for name, g in specs]


class TestTreeProfiles:
    """The tree DP against the Gray-code scan, which stays the oracle."""

    @given(st.integers(0, 10**6), st.integers(1, 16))
    @settings(max_examples=60)
    def test_random_trees_match_scan(self, seed, n):
        t = random_tree(random.Random(seed), n)
        assert _tree_profiles(t) == _scan_profiles(t)

    @pytest.mark.parametrize("g", family_trees())
    def test_family_trees_match_scan(self, g):
        assert g.is_tree() and g.n <= ISO_CAP
        assert _tree_profiles(g) == _scan_profiles(g)

    def test_smallest_trees(self):
        for g, values in ((Graph(1, []), (0,)), (Graph(2, [(0, 1)]), (1, 0))):
            assert iso_profile(g) == (values, values) == _scan_profiles(g)

    def test_trees_skip_the_scan_cap(self):
        vertex, edge = iso_profile(generate("path", n=40))
        assert vertex == edge == (1,) * 39 + (0,)


class TestPeaksAndH:
    def test_peak_k5(self):
        assert max(iso_profile(generate("complete", n=5))[0]) == 4

    def test_peak_grid4(self):
        assert max(iso_profile(generate("grid", n=4))[0]) == 4

    def test_peak_p10_edge(self):
        assert max(iso_profile(generate("path", n=10))[1]) == 1

    def test_h_examples(self):
        assert h_index([2, 2, 2]) == 2
        assert h_index([1, 3, 3, 2, 1]) == naive_h_index([1, 3, 3, 2, 1]) == 2
        assert h_index([0, 0, 0]) == 0

    def test_h_graph_values(self):
        assert h_index(iso_profile(generate("grid", n=4))[0]) == 4
        assert h_index(iso_profile(generate("complete", n=5))[0]) == 2
        assert h_index(iso_profile(generate("path", n=10))[1]) == 1

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=14))
    def test_h_matches_naive_and_caps(self, values):
        h = h_index(values)
        assert h == naive_h_index(values)
        assert h <= max(values)
        assert h <= len(values)


class TestBoundFormulas:
    def test_prox_lower_examples(self):
        # grid:4 has max degree 4: prox1 > H_V/5 and prox1 > H_E/20
        g = generate("grid", n=4)
        for quantities, lower in (({"h_vertex": 25}, 6), ({"h_vertex": 4}, 1),
                                  ({"h_edge": 40}, 3), ({"h_edge": 39}, 2)):
            assert assemble_bounds(g, quantities)["best"]["prox1"]["lower"] == lower, quantities

    def test_peak_to_h_examples(self):
        # floor of 20/9: the real-valued threshold 2.22 rounds DOWN; the
        # ceiling reading is refuted by K5 (threshold 2.22, H_V exactly 2)
        assert peak_to_h_lower(4, 4, "vertex") == 2
        assert peak_to_h_lower(4, 2, "edge") == 2
        assert peak_to_h_lower(0, 3, "vertex") == 0

    def test_peak_to_h_counterexample_graphs(self):
        # triangle: peak 2, max degree 2, H_V = 1; threshold 1.2 must floor
        g = generate("cycle", n=3)
        prof = iso_profile(g)[0]
        assert max(prof) == 2 and h_index(prof) == 1
        assert peak_to_h_lower(2, 2, "vertex") == 1
        # K5: peak 4, max degree 4, H_V = 2; threshold 2.22 must floor
        k5 = generate("complete", n=5)
        assert h_index(iso_profile(k5)[0]) == 2
        assert peak_to_h_lower(4, 4, "vertex") == 2

    def test_kary_bounds(self):
        # (3/80)(d-2)(2/(2k+3)) crosses 1 between d = 95 and 96 for k = 2, is
        # exactly 3 at d = 282 (a strict bound, so 4), and crosses 1 between
        # d = 121 and 122 for k = 3
        cases = {(2, 95): 1, (2, 96): 2, (2, 282): 4, (3, 121): 1, (3, 122): 2,
                 (2, 2): 1, (3, 3): 1, (2, 82): 1, (3, 42): 1}
        for (k, d), lower in cases.items():
            assert kary_bound_report(k, d) == (lower, d // 4 + 2), (k, d)


class TestProfileLaws:
    @given(st.integers(0, 5000), st.integers(2, 9))
    @settings(max_examples=40)
    def test_sandwich_shifts_and_h_relations(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        pv, pe = iso_profile(g)
        delta = max_degree(g)
        assert pv[n - 1] == 0 and pe[n - 1] == 0
        for k in range(1, n + 1):
            assert pv[k - 1] <= pe[k - 1] <= delta * pv[k - 1]
        for k in range(1, n):
            assert pv[k] >= pv[k - 1] - 1
            assert pv[k - 1] >= pv[k] - delta
            assert pe[k] >= pe[k - 1] - delta
        hv, he = h_index(pv), h_index(pe)
        assert he / delta <= hv <= he
        assert peak_to_h_lower(max(pv), delta, "vertex") <= hv
        assert peak_to_h_lower(max(pe), delta, "edge") <= he


class TestBoundsReport:
    def test_k4_degree_lift_matches_exact(self):
        g = generate("complete", n=4)
        report = assemble_bounds(g, {"prox1": 1, "pathwidth": 3})
        hi = report["best"]["zeta1"]["upper"]
        assert hi == 3  # degree lift and pathwidth both give 3 = exact value
        rules = {b["rule"] for b in report["bounds"]}
        assert "degree-lift" in rules and "pathwidth-sweep" in rules

    def test_tree_gap(self):
        g = generate("spider", arms=[2, 2, 2])
        report = assemble_bounds(g, {"prox1": 2})
        best = report["best"]["zeta1"]
        lo, hi = best["lower"], best["upper"]
        assert lo == 2 and hi == 3
        assert any(b["rule"] == "tree-gap-one" for b in report["bounds"])

    def test_grid11_window(self):
        g = generate("grid", n=11)
        report = assemble_bounds(g, {"grid_side": 11})
        best = report["best"]["prox1"]
        lo, hi = best["lower"], best["upper"]
        assert (lo, hi) == (4, 7)

    def test_inconsistency_is_hard(self):
        g = generate("complete", n=4)
        with pytest.raises(AssertionError, match="zeta1: derived lower bound 5 exceeds upper bound 3"):
            assemble_bounds(g, {"prox1": 5, "zeta1": 1})

    def test_unknown_quantity_is_refused(self):
        g = generate("grid", n=4)
        with pytest.raises(ValueError, match="h_vertx"):
            assemble_bounds(g, {"h_vertx": 25})

    def test_rule_provenance_everywhere(self):
        g = generate("grid", n=4)
        report = assemble_bounds(g, {"h_vertex": 4, "h_edge": 8, "prox1": 2})
        assert all(b["rule"] for b in report["bounds"])
        assert report["best"]["prox1"]["lower"] >= 1


def test_profile_csv():
    assert profile_to_csv((2, 1, 0)) == "k,phi,exact\n1,2,true\n2,1,true\n3,0,true\n"
