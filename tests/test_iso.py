import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lzl.errors import InconsistentBoundsError, PartialProfileError, SizeCapError
from lzl.graphs import Graph, closed_nb_bits, generate, mask_of, max_degree, subdivide
from lzl.iso import (
    ISO_CAP,
    IsoProfile,
    _scan_profiles,
    _shard_bits,
    _tree_profiles,
    assemble_bounds,
    h_index,
    h_index_graph,
    iso_peak,
    iso_profile,
    kary_bound_report,
    peak_to_h_lower,
    profile_to_csv,
    prox_lower_bounds,
)

from conftest import edge_boundary, grid_profile_oracle, random_connected_graph, random_tree


def fake_cpus(monkeypatch, count):
    """Make the scan see ``count`` CPUs, whichever query the platform offers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


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
        assert prof.values == (4, 3, 2, 1, 0)
        assert prof.exact

    def test_p4_edge(self):
        prof = iso_profile(generate("path", n=4))[1]
        assert prof.values == (1, 1, 1, 0)

    def test_grid4_middle_window(self):
        prof = iso_profile(generate("grid", n=4))[0]
        lo, hi, value = grid_profile_oracle(4)
        assert (lo, hi, value) == (4, 9, 4)
        for k in range(lo, hi + 1):
            assert prof.value(k) == value

    def test_grid3_matches_oracle_window(self):
        prof = iso_profile(generate("grid", n=3))[0]
        lo, hi, value = grid_profile_oracle(3)
        assert (lo, hi, value) == (2, 5, 3)
        for k in range(lo, hi + 1):
            assert prof.value(k) == value

    def test_grid2_oracle(self):
        prof = iso_profile(generate("grid", n=2))[0]
        lo, hi, value = grid_profile_oracle(2)
        assert (lo, hi, value) == (1, 2, 2)
        for k in range(lo, hi + 1):
            assert prof.value(k) == value

    def test_cap(self):
        with pytest.raises(SizeCapError):
            iso_profile(generate("grid", n=6))

    def test_budget_truncation_flags(self):
        prof, edge = iso_profile(generate("path", n=6), budget=5)
        assert not prof.exact and not edge.exact
        # the five subsets examined have at most three vertices
        assert None not in prof.values[:3] and prof.values[3:] == (None, None, None)
        with pytest.raises(PartialProfileError):
            iso_peak(prof)

    def test_budget_truncation_with_workers(self, monkeypatch):
        # a budget scans serially and is inexact, however many CPUs there are
        fake_cpus(monkeypatch, 2)
        assert _shard_bits(20, 10) == 0
        vertex, edge = iso_profile(generate("path", n=12), budget=10)
        assert not vertex.exact and not edge.exact

    def test_shards_match_serial_scan(self, monkeypatch):
        graphs = [
            generate("cycle", n=17),
            generate("grid", n=4),
            random_connected_graph(random.Random(17), 17, extra_edges=8),
        ]
        fake_cpus(monkeypatch, 1)
        serial = [iso_profile(g) for g in graphs]
        for cpus in (2, 3, 4):
            fake_cpus(monkeypatch, cpus)
            # grid:4 has 2^16 subsets, one shard's worth: it stays serial
            assert [_shard_bits(g.n, None) for g in graphs] == [1, 0, 1]
            assert _shard_bits(20, None) == (cpus - 1).bit_length()
            assert [iso_profile(g) for g in graphs] == serial
        fake_cpus(monkeypatch, 1)
        assert _shard_bits(25, None) == 0

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=30)
    def test_gray_scan_matches_naive(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        vertex, edge = _scan_profiles(g)
        assert vertex.values == naive_profile(g, "vertex")
        assert edge.values == naive_profile(g, "edge")


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
        ("spider2x8", generate("spider", arms=[2] * 8)),
        ("kary2-2-sub1", subdivide(generate("kary", k=2, d=2), 1)),
        ("kary2-2-sub2", subdivide(generate("kary", k=2, d=2), 2)),
        ("kary3-2-sub1", subdivide(generate("kary", k=3, d=2), 1)),
        ("spider333-sub1", subdivide(generate("spider", arms=[3, 3, 3]), 1)),
        ("path5-sub3", subdivide(generate("path", n=5), 3)),
    ]
    # scans past 2^17 subsets run in the slow tier
    return [
        pytest.param(g, id=name, marks=[pytest.mark.slow] if g.n > 17 else [])
        for name, g in specs
    ]


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
            vertex, edge = iso_profile(g)
            assert vertex == IsoProfile("vertex", values, True)
            assert edge == IsoProfile("edge", values, True)
            assert (vertex, edge) == _scan_profiles(g)

    def test_trees_skip_the_scan_cap(self):
        vertex, edge = iso_profile(generate("path", n=40))
        assert vertex.values == edge.values == (1,) * 39 + (0,)
        assert vertex.exact and edge.exact
        # a budget bounds a subset scan, so it stays under the scan's cap
        with pytest.raises(SizeCapError):
            iso_profile(generate("path", n=40), budget=10)

    def test_budget_on_a_tree_scans(self):
        vertex, edge = iso_profile(generate("path", n=12), budget=100)
        assert not vertex.exact and not edge.exact
        assert (vertex, edge) == _scan_profiles(generate("path", n=12), budget=100)


class TestPeaksAndH:
    def test_peak_k5(self):
        assert iso_peak(iso_profile(generate("complete", n=5))[0]) == 4

    def test_peak_grid4(self):
        assert iso_peak(iso_profile(generate("grid", n=4))[0]) == 4

    def test_peak_p10_edge(self):
        assert iso_peak(iso_profile(generate("path", n=10))[1]) == 1

    def test_h_examples(self):
        assert h_index([2, 2, 2]) == 2
        assert h_index([1, 3, 3, 2, 1]) == naive_h_index([1, 3, 3, 2, 1]) == 2
        assert h_index([0, 0, 0]) == 0

    def test_h_graph_values(self):
        assert h_index_graph(generate("grid", n=4), "vertex") == 4
        assert h_index_graph(generate("complete", n=5), "vertex") == 2
        assert h_index_graph(generate("path", n=10), "edge") == 1

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=14))
    def test_h_matches_naive_and_caps(self, values):
        h = h_index(values)
        assert h == naive_h_index(values)
        assert h <= max(values)
        assert h <= len(values)


class TestBoundFormulas:
    def test_prox_lower_examples(self):
        assert prox_lower_bounds(25, None, 4)["from_vertex_h"] == 6
        assert prox_lower_bounds(4, None, 4)["from_vertex_h"] == 1
        assert prox_lower_bounds(None, 40, 4)["from_edge_h"] == 3

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
        assert iso_peak(prof) == 2 and h_index(prof.values) == 1
        assert peak_to_h_lower(2, 2, "vertex") == 1
        # K5: peak 4, max degree 4, H_V = 2; threshold 2.22 must floor
        k5 = generate("complete", n=5)
        assert h_index_graph(k5, "vertex") == 2
        assert peak_to_h_lower(4, 4, "vertex") == 2

    def test_kary_bounds(self):
        r = kary_bound_report(2, 82)
        assert r.lower_rational == Fraction(6, 7)
        assert r.lower_integer == 1
        assert r.upper == 22
        assert r.asymptotic_note is not None
        r = kary_bound_report(3, 42)
        assert r.lower_rational == Fraction(1, 3)
        assert r.upper == 12
        r = kary_bound_report(2, 2)
        assert r.lower_rational == 0 and r.upper == 2
        assert kary_bound_report(3, 3).asymptotic_note is None


class TestProfileLaws:
    @given(st.integers(0, 5000), st.integers(2, 9))
    @settings(max_examples=40)
    def test_sandwich_shifts_and_h_relations(self, seed, n):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        pv, pe = iso_profile(g)
        delta = max_degree(g)
        assert pv.value(n) == 0 and pe.value(n) == 0
        for k in range(1, n + 1):
            assert pv.value(k) <= pe.value(k) <= delta * pv.value(k)
        for k in range(1, n):
            assert pv.value(k + 1) >= pv.value(k) - 1
            assert pv.value(k) >= pv.value(k + 1) - delta
            assert pe.value(k + 1) >= pe.value(k) - delta
        hv, he = h_index(pv.values), h_index(pe.values)
        assert he / delta <= hv <= he
        assert peak_to_h_lower(iso_peak(pv), delta, "vertex") <= hv
        assert peak_to_h_lower(iso_peak(pe), delta, "edge") <= he


class TestBoundsReport:
    def test_k4_degree_lift_matches_exact(self):
        g = generate("complete", n=4)
        report = assemble_bounds(g, prox1=1, pathwidth=3)
        lo, hi = report.best("zeta1")
        assert hi == 3  # degree lift and pathwidth both give 3 = exact value
        rules = {b.rule for b in report.bounds}
        assert "degree-lift" in rules and "pathwidth-sweep" in rules

    def test_tree_gap(self):
        g = generate("spider", arms=[2, 2, 2])
        report = assemble_bounds(g, prox1=2)
        lo, hi = report.best("zeta1")
        assert lo == 2 and hi == 3
        assert any(b.rule == "tree-gap-one" for b in report.bounds)

    def test_grid11_window(self):
        g = generate("grid", n=11)
        report = assemble_bounds(g, grid_side=11)
        lo, hi = report.best("prox1")
        assert (lo, hi) == (4, 7)

    def test_inconsistency_is_hard(self):
        g = generate("complete", n=4)
        with pytest.raises(InconsistentBoundsError):
            assemble_bounds(g, prox1=5, zeta1=1)

    def test_rule_provenance_everywhere(self):
        g = generate("grid", n=4)
        report = assemble_bounds(g, h_vertex=4, h_edge=8, prox1=2)
        assert all(b.rule for b in report.bounds)
        d = report.as_dict()
        assert d["best"]["prox1"]["lower"] >= 1


def test_profile_csv():
    prof = IsoProfile("vertex", (2, 1, 0), (True, True, True))
    assert profile_to_csv(prof) == "k,phi,exact\n1,2,true\n2,1,true\n3,0,true\n"
