import argparse
import dataclasses
import json
import tracemalloc

import pytest

import lzl.cli
from lzl.graphs import generate, parse_graph, serialize_graph
from lzl.cli import COMMANDS, build_parser, load_graph, main
from lzl.prox import ProbeSchedule, run_schedule
from lzl.strategies import STRATEGY_REGISTRY
from lzl.zeta import POLICY_REGISTRY, SchedulePolicy


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout: str) -> dict:
    return json.loads(stdout)


def refuse_to_build(monkeypatch, name):
    """Replace the builder of the strategy ``name`` by one that fails if it is reached."""
    kind, reads_root, _ = STRATEGY_REGISTRY[name]

    def unbuilt(g, *root):
        raise AssertionError(f"built '{name}' despite an option it would not read")

    monkeypatch.setitem(STRATEGY_REGISTRY, name, (kind, reads_root, unbuilt))


class TestGen:
    def test_grid_file(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        code, _, _ = run_cli(capsys, "gen", "--graph", "grid:4", "--out", str(out))
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 16 and g.m == 24

    def test_kary_counts(self, tmp_path, capsys):
        out = tmp_path / "t.graph"
        code, _, _ = run_cli(capsys, "gen", "--graph", "kary:3,3", "--out", str(out))
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 40 and g.m == 39

    def test_spider_stdout(self, capsys):
        # without --out, stdout is the graph text and nothing else
        code, out, _ = run_cli(capsys, "gen", "--graph", "spider:3,3,3")
        assert code == 0
        assert out.startswith("p 10 9")
        assert out == serialize_graph(generate("spider", arms=[3, 3, 3]))

    def test_unknown_family_exit2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--graph", "moebius:4")
        assert code == 2 and not out and "error" in err

    def test_legacy_file_loses_label_lines(self, tmp_path, capsys):
        old = tmp_path / "old.graph"
        old.write_text("p 3 2\ne 1 2\ne 2 3\nl 1 pos=1\nl 2 pos=2\nl 3 pos=3\n")
        code, out, _ = run_cli(capsys, "gen", "--graph", str(old))
        assert code == 0
        assert out == "p 3 2\ne 1 2\ne 2 3\n"


class TestGraphSpecs:
    def test_family_specs(self):
        assert load_graph("grid:4")[0].n == 16
        assert load_graph("kary:3,3")[0].n == 40
        assert load_graph("spider:3,3,3")[0].n == 10
        assert load_graph("kary:3,3:sub10")[0].n == 430

    def test_file_spec(self, tmp_path):
        p = tmp_path / "x.graph"
        p.write_text("p 2 1\ne 1 2\n")
        g, gid = load_graph(str(p))
        assert g.n == 2 and gid == "x.graph"


class TestIsoCmd:
    def test_h_index_grid4(self, capsys):
        code, out, _ = run_cli(capsys, "iso", "--graph", "grid:4", "--mode", "vertex",
                               "--h-index", "--peak")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["h_index"] == 4 and results["peak"] == 4

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, "iso", "--graph", "path:4", "--mode", "edge",
                             "--csv", str(csv))
        assert code == 0
        assert csv.read_text() == "k,phi,exact\n1,1,true\n2,1,true\n3,1,true\n4,0,true\n"

    def test_cap_exit3(self, capsys):
        code, out, err = run_cli(capsys, "iso", "--graph", "grid:6")
        assert code == 3 and not out and "cap" in err


@pytest.mark.parametrize("spec, order", [
    ("path:50000", 50000), ("cycle:50000", 50000), ("complete:400", 400),
    ("grid:200", 40000), ("kary:3,10", 88573), ("spider:20000,20000,20000", 60001),
])
def test_over_cap_family_exits3_before_building_edges(capsys, monkeypatch, spec, order):
    # each spec's edge list takes several MiB; with the cap at 10 none of it
    # may be built before the order is checked
    monkeypatch.setattr("lzl.graphs.VERTEX_CAP", 10)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen", "--graph", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and not out and f"size {order} exceeds cap 10" in err
    assert peak < 1 << 20, peak


def test_order_too_long_to_print_exits3(capsys):
    # str() refuses an int of more than 4300 digits, so the message gives a power of two
    code, out, err = run_cli(capsys, "gen", "--graph", "path:30:sub" + "9" * 4299)
    assert code == 3 and not out and "size at least 2^14285 exceeds cap 16384" in err


class TestBoundsCmd:
    def test_grid11_window(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "grid:11", "--no-iso")
        assert code == 0
        results = report_of(out)["report"]["results"]
        best = results["best"]["prox1"]
        assert best["lower"] == 4 and best["upper"] == 7
        zeta_rules = {b["rule"] for b in results["bounds"] if b["target"] == "zeta1"}
        assert zeta_rules == {"order-cap", "grid-window-localization-cited"}
        assert any("cited" in note for note in results["notes"])

    def test_grid_rule_needs_grid_edges(self, tmp_path, capsys):
        # the path P9 with its vertices labelled as the 3x3 grid: prox1(P9) = 1
        fake = tmp_path / "fake.graph"
        labels = [f"l {v + 1} col={v % 3 + 1}\nl {v + 1} row={v // 3 + 1}" for v in range(9)]
        fake.write_text("p 9 8\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 9))
                        + "\n".join(labels) + "\n")
        code, out, _ = run_cli(capsys, "bounds", "--graph", str(fake), "--no-iso", "--solve")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert "grid_side" not in results["quantities"]
        assert not any(b["rule"].startswith("grid-window") for b in results["bounds"])
        assert results["quantities"]["prox1"] == 1 and results["best"]["prox1"]["upper"] == 1

        real = tmp_path / "grid4.graph"
        real.write_text(serialize_graph(generate("grid", n=4)))
        code, out, _ = run_cli(capsys, "bounds", "--graph", str(real), "--no-iso")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["quantities"]["grid_side"] == 4
        assert {"target": "prox1", "kind": "lower", "value": 2,
                "rule": "grid-window"} in results["bounds"]

    def test_grid_side_builds_a_grid_only_at_the_grid_edge_count(self, tmp_path, capsys,
                                                                 monkeypatch):
        built = []

        def counted(family, **params):
            built.append(family)
            return generate(family, **params)

        monkeypatch.setattr(lzl.cli, "generate", counted)
        # the 4x4 grid with every label moved up by one (mod 16): 16 vertices, 24 edges
        shifted = tmp_path / "grid4-shifted.graph"
        edges = sorted(tuple(sorted(((u + 1) % 16, (v + 1) % 16)))
                       for u, v in generate("grid", n=4).edges())
        shifted.write_text("p 16 24\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))
        # grid:4 builds one grid to load it and one to compare with
        for spec, grids, side in (("path:16", 0, None), ("grid:4", 2, 4), (str(shifted), 1, None)):
            built.clear()
            code, out, _ = run_cli(capsys, "bounds", "--graph", spec, "--no-iso")
            assert code == 0
            assert built.count("grid") == grids, spec
            assert report_of(out)["report"]["results"]["quantities"].get("grid_side") == side

    def test_unlabelled_grid_file_gets_grid_rules(self, tmp_path, capsys):
        g = generate("grid", n=4)
        path = tmp_path / "grid4.graph"
        path.write_text("p 16 24\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges()))
        code, out, _ = run_cli(capsys, "bounds", "--graph", str(path), "--no-iso")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["quantities"]["grid_side"] == 4
        assert {"target": "prox1", "kind": "lower", "value": 2,
                "rule": "grid-window"} in results["bounds"]
        assert {"target": "prox1", "kind": "upper", "value": 5,
                "rule": "grid-window"} in results["bounds"]

    @pytest.mark.parametrize("spec, h_vertex", [
        ("kary:2,8", 4), ("kary:2,9", 4), ("kary:3,6", 5),
    ])
    def test_trees_beyond_scan_cap_are_profiled(self, capsys, spec, h_vertex):
        code, out, _ = run_cli(capsys, "bounds", "--graph", spec)
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["n"] > 25
        assert results["quantities"]["h_vertex"] == h_vertex
        assert {"target": "prox1", "kind": "lower", "value": 2,
                "rule": "h-index-vertex"} in results["bounds"]
        # the paper's depth formula, for comparison, gives only 1
        assert {"target": "prox1", "kind": "lower", "value": 1,
                "rule": "kary-depth-cited"} in results["bounds"]
        assert results["best"]["prox1"]["lower"] == 2

    def test_kary_rule(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "kary:2,8", "--no-iso")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["quantities"]["kary_shape"] == [2, 8]
        cited = [b for b in results["bounds"] if b["rule"] == "kary-depth-cited"]
        assert cited == [
            {"target": "prox1", "kind": "lower", "value": 1, "rule": "kary-depth-cited"},
            {"target": "prox1", "kind": "upper", "value": 4, "rule": "kary-depth-cited"},
        ]
        assert any("k-ary" in note and "cited" in note for note in results["notes"])

    def test_kary_rule_needs_kary_tree(self, tmp_path, capsys):
        # kary:2,3 with vertices 1..14 in reverse order: same root, degree
        # and depth, other edges
        g = generate("kary", k=2, d=3)
        relabel = [0] + list(range(g.n - 1, 0, -1))
        fake = tmp_path / "kary-relabelled.graph"
        fake.write_text(f"p {g.n} {g.n - 1}\n" + "".join(
            f"e {min(relabel[u], relabel[v]) + 1} {max(relabel[u], relabel[v]) + 1}\n"
            for u, v in g.edges()))
        for spec in ("spider:5,5,5", "path:9", str(fake)):
            code, out, _ = run_cli(capsys, "bounds", "--graph", spec)
            assert code == 0
            results = report_of(out)["report"]["results"]
            assert "kary_shape" not in results["quantities"], spec
            assert not any(b["rule"] == "kary-depth-cited" for b in results["bounds"]), spec

    def test_kary_rule_consistent_with_solve(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "kary:2,3", "--solve")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["quantities"]["kary_shape"] == [2, 3]
        best = results["best"]["prox1"]
        assert best["lower"] <= results["quantities"]["prox1"] <= best["upper"]
        assert any(b["rule"] == "kary-depth-cited" for b in results["bounds"])

    def test_flags_over_their_caps_are_noted(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "grid:5",
                               "--pathwidth", "--domination", "--solve")
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"] == {"iso": 25, "pathwidth": 10, "domination": 20,
                                  "prox": 16, "zeta": 12}
        assert report["deviation_notes"] == [
            "pathwidth not computed: order 25 exceeds the pathwidth cap 10",
            "domination_number not computed: order 25 exceeds the domination cap 20",
            "prox1 not computed: order 25 exceeds the prox cap 16",
            "zeta1 not computed: order 25 exceeds the zeta cap 12",
        ]
        quantities = report["results"]["quantities"]
        assert not {"pathwidth", "domination_number", "prox1", "zeta1"} & set(quantities)

    def test_flags_within_their_caps_are_computed(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "grid:3",
                               "--pathwidth", "--domination", "--solve")
        assert code == 0
        report = report_of(out)["report"]
        assert report["deviation_notes"] == []
        assert set(report["caps"]) == {"iso", "pathwidth", "domination", "prox", "zeta"}
        quantities = report["results"]["quantities"]
        assert (quantities["pathwidth"], quantities["domination_number"],
                quantities["prox1"], quantities["zeta1"]) == (3, 3, 1, 2)

    def test_profile_over_its_cap_is_noted(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "grid:6")
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"] == {"iso": 25}
        assert report["deviation_notes"] == [
            "isoperimetric profile not computed: order 36 exceeds the iso cap 25",
        ]
        assert "h_vertex" not in report["results"]["quantities"]

    def test_no_iso_lists_no_iso_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "grid:6", "--no-iso")
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"] == {} and report["deviation_notes"] == []

    # (flags, engine, cap, quantity, what the note names, spec of order cap, of order cap + 1)
    CAP_BOUNDARIES = [
        ((), "iso", 25, "h_vertex", "isoperimetric profile", "cycle:25", "cycle:26"),
        (("--no-iso", "--pathwidth"), "pathwidth", 10, "pathwidth", "pathwidth",
         "complete:10", "complete:11"),
        (("--no-iso", "--domination"), "domination", 20, "domination_number",
         "domination_number", "complete:20", "complete:21"),
        (("--no-iso", "--solve"), "prox", 16, "prox1", "prox1", "complete:16", "complete:17"),
        (("--no-iso", "--solve"), "zeta", 12, "zeta1", "zeta1", "path:12", "path:13"),
    ]

    @pytest.mark.parametrize("flags, engine, cap, quantity, what, at_cap, past_cap",
                             CAP_BOUNDARIES, ids=[row[1] for row in CAP_BOUNDARIES])
    def test_each_engine_at_and_past_its_cap(self, capsys, flags, engine, cap, quantity,
                                             what, at_cap, past_cap):
        code, out, _ = run_cli(capsys, "bounds", "--graph", at_cap, *flags)
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"][engine] == cap
        assert quantity in report["results"]["quantities"]
        assert not any(note.startswith(f"{what} ") for note in report["deviation_notes"])

        code, out, _ = run_cli(capsys, "bounds", "--graph", past_cap, *flags)
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"][engine] == cap
        assert quantity not in report["results"]["quantities"]
        assert (f"{what} not computed: order {cap + 1} exceeds the {engine} cap {cap}"
                in report["deviation_notes"])

    def test_tree_past_the_iso_cap_is_profiled(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "path:26")
        assert code == 0
        report = report_of(out)["report"]
        assert report["caps"] == {"iso": 25} and report["deviation_notes"] == []
        quantities = report["results"]["quantities"]
        assert (quantities["h_vertex"], quantities["h_edge"]) == (1, 1)

    @pytest.mark.parametrize("spec", [
        *(f"path:{n}" for n in range(2, 13)),
        *(f"cycle:{n}" for n in range(3, 13)),
        *(f"complete:{n}" for n in range(2, 11)),
        "grid:2", "grid:3", "grid:4",
        "kary:2,2", "kary:2,3", "kary:3,2",
        "spider:1,1,1,1,1,1", "spider:2,2,2", "spider:3,3,3", "spider:1,2,3", "spider:2,2,2,2",
        "path:4:sub2", "cycle:4:sub1", "complete:4:sub1", "kary:2,2:sub1", "spider:2,2,2:sub1",
    ])
    def test_solved_values_lie_in_their_best_windows(self, capsys, spec):
        code, out, _ = run_cli(capsys, "bounds", "--graph", spec,
                               "--solve", "--pathwidth", "--domination")
        assert code == 0
        results = report_of(out)["report"]["results"]
        solved = [t for t in ("prox1", "zeta1") if t in results["quantities"]]
        assert solved, spec
        for target in solved:
            best = results["best"][target]
            value = results["quantities"][target]
            assert best["lower"] is None or best["lower"] <= value, (target, best)
            assert best["upper"] is None or value <= best["upper"], (target, best)

    def test_k4_pathwidth_route(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--graph", "complete:4",
                               "--pathwidth", "--solve")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["best"]["zeta1"]["upper"] == 3
        rules = {b["rule"] for b in results["bounds"]}
        assert "pathwidth-sweep" in rules


class TestSolveCmds:
    def test_zeta_spider(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "solve", "--graph", "spider:3,3,3")
        assert code == 0
        assert report_of(out)["report"]["results"]["zeta1"] == 2

    def test_zeta_k5(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "solve", "--graph", "complete:5")
        assert code == 0
        assert report_of(out)["report"]["results"]["zeta1"] == 4

    def test_prox_solve_and_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "prox", "solve", "--graph", "path:6")
        assert code == 0
        assert report_of(out)["report"]["results"]["prox1"] == 1

        sched = tmp_path / "s.json"
        sched.write_text(json.dumps(
            {"mode": "prox", "cops": 1, "rounds": [[2], [3], [4], [5]]}
        ))
        code, out, _ = run_cli(capsys, "prox", "verify", "--graph", "path:6",
                               "--schedule", str(sched))
        assert code == 0
        assert report_of(out)["report"]["results"]["cleared"] is True

    def test_failed_verification_exit1(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"mode": "prox", "cops": 1, "rounds": [[2]]}))
        code, out, _ = run_cli(capsys, "prox", "verify", "--graph", "path:6",
                               "--schedule", str(sched))
        assert code == 1

    def test_non_prox_schedule_exit2(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"mode": "zeta", "cops": 1, "rounds": [[2], [3], [4], [5]]}))
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:6",
                               "--schedule", str(sched))
        assert code == 2 and not out and "'zeta'" in err

    def test_zeta_simulate_escape_exit1(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "simulate", "--graph", "spider:3,3,3",
                               "--policy", "arm-scan")
        assert code == 1
        assert report_of(out)["report"]["results"]["outcome"] == "escape-witness"

    def test_solver_cap_exit3(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "solve", "--graph", "grid:4")
        assert code == 3 and not out


class TestStratCmd:
    def test_grid_sweep(self, tmp_path, capsys):
        emit = tmp_path / "grid11.json"
        code, out, _ = run_cli(capsys, "strat", "grid-sweep", "--n", "11",
                               "--emit", str(emit))
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["budget"] == 6 and results["cleared"]
        data = json.loads(emit.read_text())
        assert sorted(data) == ["cops", "mode", "rounds"] and data["cops"] == 6
        # a file as earlier versions wrote it, with a metadata object, still verifies
        old = tmp_path / "grid11-metadata.json"
        old.write_text(json.dumps({**data, "metadata": {
            "strategy": "grid-sweep", "n": 11, "m": 3, "panel_starts": [[1, -6]],
            "rounds_rc": [], "notes": ["panel activity residues follow the five-round cadence"],
        }}))
        for path in (emit, old):
            code, out, _ = run_cli(capsys, "prox", "verify", "--graph", "grid:11",
                                   "--schedule", str(path))
            assert code == 0 and report_of(out)["report"]["results"]["cleared"]

    @pytest.mark.parametrize("n,budget,clear_round,rounds", [
        (51, 14, 4181, 4236),
        (61, 16, 5916, 5981),
    ])
    def test_grid_sweep_benchmark_answers(self, capsys, n, budget, clear_round, rounds):
        # the answers the benchmark's grid workload checks
        code, out, _ = run_cli(capsys, "strat", "grid-sweep", "--n", str(n))
        assert code == 0
        assert report_of(out)["report"]["results"] == {
            "budget": budget, "cleared": True, "clear_round": clear_round,
            "rounds": rounds,
        }

    def test_grid_sweep_cap_checked_before_planning(self, capsys, monkeypatch):
        def unreachable(n):
            raise AssertionError("planned a grid beyond the vertex cap")

        monkeypatch.setattr("lzl.gridsweep.five_panel_schedule", unreachable)
        code, out, err = run_cli(capsys, "strat", "grid-sweep", "--n", "129")
        assert code == 3 and not out and "exceeds cap" in err

    @pytest.mark.parametrize("option", [
        ("--graph", "path:3"), ("--root", "5"), ("--root", "0"),
        ("--round-cap", "5"), ("--round-cap", "400"),
    ])
    def test_grid_sweep_refuses_graph_options(self, capsys, monkeypatch, option):
        # grid-sweep reads only --n, so an option meant for a graph strategy is an error
        def unreachable(n):
            raise AssertionError("planned a sweep despite an option it ignores")

        monkeypatch.setattr("lzl.gridsweep.five_panel_schedule", unreachable)
        code, out, err = run_cli(capsys, "strat", "grid-sweep", "--n", "11", *option)
        assert (code, out) == (2, "")
        assert err == f"error: grid-sweep takes no {option[0]}: it sweeps the --n grid\n"

    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    def test_graph_strategy_refuses_n(self, capsys, name):
        code, out, err = run_cli(capsys, "strat", name, "--graph", "path:5", "--n", "9")
        assert (code, out) == (2, "")
        assert err == f"error: strategy '{name}' takes no --n: it runs on --graph\n"

    @pytest.mark.parametrize("cap", ["1", "400"])
    @pytest.mark.parametrize("name", sorted(
        name for name, (kind, _, _) in STRATEGY_REGISTRY.items() if kind == "schedule"))
    def test_schedule_strategy_refuses_round_cap(self, capsys, monkeypatch, name, cap):
        # a schedule is verified by run_schedule, which plays no rounds against a cap
        refuse_to_build(monkeypatch, name)
        code, out, err = run_cli(capsys, "strat", name, "--graph", "path:9", "--round-cap", cap)
        assert (code, out) == (2, "")
        assert err == f"error: --round-cap caps a policy's simulation, and '{name}' is a schedule\n"

    @pytest.mark.parametrize("root", ["0", "3"])
    @pytest.mark.parametrize("name", sorted(
        name for name, (_, reads_root, _) in STRATEGY_REGISTRY.items() if not reads_root))
    def test_rootless_strategy_refuses_root(self, capsys, monkeypatch, name, root):
        refuse_to_build(monkeypatch, name)
        code, out, err = run_cli(capsys, "strat", name, "--graph", "path:5", "--root", root)
        assert (code, out) == (2, "")
        assert err == f"error: strategy '{name}' takes no --root: it reads no root vertex\n"

    @pytest.mark.parametrize("name", ["lift-tree", "tree-depth", "tree-levels"])
    def test_rooted_strategy_reads_root(self, capsys, monkeypatch, name):
        kind, reads_root, build = STRATEGY_REGISTRY[name]
        roots = []

        def recording(g, root):
            roots.append(root)
            return build(g, root)

        monkeypatch.setitem(STRATEGY_REGISTRY, name, (kind, reads_root, recording))
        code, _, err = run_cli(capsys, "strat", name, "--graph", "path:5", "--root", "3")
        assert code == 0 and roots == [3], err

    def test_explicit_root_zero_is_the_default(self, capsys):
        reports = []
        for root in ((), ("--root", "0")):
            code, out, _ = run_cli(capsys, "strat", "tree-depth", "--graph", "kary:2,4", *root)
            assert code == 0
            reports.append(report_of(out)["report"])
        assert reports[0] == reports[1]

    def test_tree_depth(self, capsys):
        code, out, _ = run_cli(capsys, "strat", "tree-depth", "--graph", "kary:2,8")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["budget"] == 3 and results["cleared"]

    def test_pathwidth_policy(self, capsys):
        code, out, _ = run_cli(capsys, "strat", "pathwidth", "--graph", "complete:4")
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["budget"] == 3 and results["outcome"] == "captured-all-branches"

    def test_domination_inapplicable_exit2(self, capsys):
        code, out, err = run_cli(capsys, "strat", "domination", "--graph", "grid:2")
        assert code == 2 and not out

    def test_lift_tree_refuses_a_non_tree_before_the_prox_solve(self, capsys, monkeypatch):
        # as tree-log, tree-depth and tree-levels do: exit 2, not the
        # solver's exit 3 on cycle:20, and no solve on a smaller non-tree
        def no_solve(g):
            raise AssertionError("prox_solve ran on a non-tree")

        monkeypatch.setattr("lzl.strategies.prox_solve", no_solve)
        for spec in ("cycle:20", "cycle:6"):
            code, out, err = run_cli(capsys, "strat", "lift-tree", "--graph", spec)
            assert code == 2 and not out and "operation requires a tree" in err

    def test_policy_cap_exceeded_reports_witness(self, capsys):
        code, out, _ = run_cli(capsys, "strat", "tree-log", "--graph", "path:9",
                               "--round-cap", "2")
        assert code == 1
        results = report_of(out)["report"]["results"]
        assert results["outcome"] == "cap-exceeded"
        assert results["worst_capture_round"] is None
        assert len(results["escape_path"]) == 2 and results["branches"] >= 1


#: strategies that refuse a tiny graph, with the precondition they state
TINY_GRAPH_PRECONDITIONS = {("tree-log", "complete:1"): "needs n >= 2"}


@pytest.mark.parametrize("graph", ["complete:1", "path:2"])
@pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
def test_every_strategy_on_tiny_graphs(capsys, name, graph):
    code, out, err = run_cli(capsys, "strat", name, "--graph", graph)
    if (name, graph) in TINY_GRAPH_PRECONDITIONS:
        assert code == 2 and not out and TINY_GRAPH_PRECONDITIONS[name, graph] in err
        return
    assert code == 0, err
    results = report_of(out)["report"]["results"]
    if results["kind"] == "schedule":
        assert results["cleared"]
    else:
        assert results["outcome"] == "captured-all-branches"


class TestGraphId:
    @pytest.mark.parametrize("argv", [
        ("gen", "--graph", "path:9", "--out", "{tmp}/p.graph"),
        ("iso", "--graph", "path:9"),
        ("bounds", "--graph", "path:9"),
        ("prox", "solve", "--graph", "path:9"),
        ("prox", "verify", "--graph", "path:9", "--schedule", "{tmp}/s.json"),
        ("zeta", "solve", "--graph", "path:9"),
        ("zeta", "simulate", "--graph", "path:9", "--policy", "front-sweep"),
        ("strat", "tree-log", "--graph", "path:9"),
        ("strat", "tree-depth", "--graph", "path:9"),
    ], ids=["gen", "iso", "bounds", "prox-solve", "prox-verify", "zeta-solve",
            "zeta-simulate", "strat-policy", "strat-schedule"])
    def test_id_is_the_graph_argument(self, tmp_path, capsys, argv):
        (tmp_path / "s.json").write_text(json.dumps({"cops": 1, "rounds": [[2]]}))
        _, out, _ = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert report_of(out)["report"]["graph"]["id"] == "path:9"


class TestTableCmd:
    def test_tab1_reproduces(self, capsys):
        code, out, err = run_cli(capsys, "table", "tab1")
        assert code == 0
        rows = json.loads(out)["report"]["results"]["rows"]
        assert rows == {"T0": [6, 2, 4], "T10": [9, 10, 10], "T100": [12, 77, 10]}
        assert "[ok]" in err


class TestDeterminismAndCache:
    def test_report_bytes_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "zeta", "solve", "--graph", "path:5")
        _, out2, _ = run_cli(capsys, "zeta", "solve", "--graph", "path:5")
        r1 = json.dumps(report_of(out1)["report"], sort_keys=True)
        r2 = json.dumps(report_of(out2)["report"], sort_keys=True)
        assert r1 == r2


class TestUsageErrors:
    def test_gen_missing_n(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--graph", "path")
        assert code == 2 and not out and "missing n" in err

    def test_gen_missing_kary_params(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--graph", "kary:3")
        assert code == 2 and not out and "missing d" in err

    def test_strat_missing_graph(self, capsys):
        code, out, err = run_cli(capsys, "strat", "tree-depth")
        assert code == 2 and not out and "--graph" in err

    def test_grid_sweep_missing_n(self, capsys):
        code, out, err = run_cli(capsys, "strat", "grid-sweep")
        assert code == 2 and not out and "--n" in err

    def test_prox_verify_missing_schedule(self, capsys):
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:4")
        assert code == 2 and not out and "--schedule" in err

    def test_zeta_simulate_missing_policy(self, capsys):
        code, out, err = run_cli(capsys, "zeta", "simulate", "--graph", "path:4")
        assert code == 2 and not out and "--policy" in err

    def test_unknown_strategy_without_graph_is_named(self, capsys):
        code, out, err = run_cli(capsys, "strat", "nonesuch")
        assert (code, out, err) == (2, "", "error: unknown strategy 'nonesuch'\n")

    @pytest.mark.parametrize("argv,message", [
        (("strat", "nonesuch"), "unknown strategy 'nonesuch'"),
        (("strat", "tree-depth", "--n", "9"), "strategy 'tree-depth' takes no --n: it runs on --graph"),
        (("strat", "tree-log", "--emit", "s.json"),
         "--emit writes a prox schedule, and 'tree-log' is a policy"),
        (("strat", "tree-depth", "--round-cap", "5"),
         "--round-cap caps a policy's simulation, and 'tree-depth' is a schedule"),
        (("strat", "tree-log", "--round-cap", "0"), "--round-cap must be at least 1, got 0"),
        (("strat", "pathwidth", "--root", "3"),
         "strategy 'pathwidth' takes no --root: it reads no root vertex"),
        (("zeta", "simulate"), "zeta simulate needs --policy"),
        (("zeta", "simulate", "--policy", "nonesuch"), "unknown policy 'nonesuch'"),
        (("zeta", "simulate", "--policy", "sweep", "--round-cap", "0"),
         "--round-cap must be at least 1, got 0"),
        (("zeta", "solve", "--policy", "sweep"),
         "zeta solve takes no --policy: only zeta simulate reads it"),
        (("zeta", "solve", "--round-cap", "3"),
         "zeta solve takes no --round-cap: only zeta simulate reads it"),
        (("prox", "verify"), "prox verify needs --schedule"),
        (("prox", "verify", "--schedule", "."), "cannot read .: Is a directory"),
        (("prox", "solve", "--schedule", "nonexistent.json"),
         "prox solve takes no --schedule: only prox verify reads one"),
    ], ids=["strat-unknown", "strat-n", "strat-emit-policy", "strat-round-cap-schedule",
            "strat-round-cap-below-one", "strat-root-rootless", "zeta-no-policy",
            "zeta-unknown-policy", "zeta-round-cap-below-one", "zeta-solve-policy",
            "zeta-solve-round-cap", "prox-no-schedule", "prox-unreadable-schedule",
            "prox-solve-schedule"])
    def test_usage_refused_before_the_graph_is_built(self, tmp_path, capsys, monkeypatch,
                                                     argv, message):
        # path:16385 is one vertex over the cap, so a graph built first would exit 3
        def unreachable(spec):
            raise AssertionError(f"loaded {spec} despite a usage error")

        monkeypatch.setattr("lzl.cli.load_graph", unreachable)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--graph", "path:16385")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_iso_budget_flag_is_gone_exit2(self, capsys):
        # every profile is exact, so a caller still asking for a partial one fails
        with pytest.raises(SystemExit) as exc:
            main(["iso", "--graph", "path:5", "--budget", "3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out and "--budget" in captured.err
        # iso's own parser reports the argument it does not know
        assert captured.err.startswith("usage: lzl iso")
        assert "lzl iso: error: unrecognized arguments: --budget 3" in captured.err

    def test_full_parser_help_exit0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and not captured.err
        assert captured.out.startswith("usage: lzl [-h] {gen,iso,bounds,prox,zeta,strat,table}")

    def test_unknown_command_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonesuch", "--graph", "path:5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert captured.err.startswith("usage: lzl [-h] {gen,iso,bounds,prox,zeta,strat,table}")
        assert "lzl: error: argument cmd: invalid choice: 'nonesuch' (choose from " in captured.err

    @pytest.mark.parametrize("argv", [
        ("zeta", "solve", "--graph", "grid:x"),
        ("zeta", "solve", "--graph", "path:4:subx"),
        ("gen", "--graph", "spider:3,x,3"),
        ("zeta", "simulate", "--graph", "path:4", "--policy", "nonesuch"),
        ("strat", "tree-depth", "--graph", "path:4", "--root", "4"),
        ("gen", "--graph", "path:4,9"),
        ("gen", "--graph", "kary:3,2,7"),
        ("gen", "--graph", "grid:3:sub1:junk"),
        ("gen", "--graph", "grid:200:junk"),  # a bad spec is no cap error
    ])
    def test_bad_values_exit2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out and "error" in err

    @pytest.mark.parametrize("text", [
        "{", '{"cops": 1}', "[1]", '{"cops": 1, "rounds": [[2.5]]}',
    ])
    def test_malformed_schedule_exit2(self, tmp_path, capsys, text):
        sched = tmp_path / "s.json"
        sched.write_text(text)
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                               "--schedule", str(sched))
        assert code == 2 and not out and "error" in err

    @pytest.mark.parametrize("text,message", [
        ('{"cops": 1, "rounds": [[true]]}', "round 1 probes true, not an integer id"),
        ('{"cops": 1, "rounds": [[1.0]]}', "round 1 probes 1.0, not an integer id"),
        ('{"cops": 1, "rounds": [[0]]}', "round 1 probes vertex 0, outside 1..4"),
        ('{"cops": 1, "rounds": [[1], [5]]}', "round 2 probes vertex 5, outside 1..4"),
        ('{"cops": 1, "rounds": [[-2]]}', "round 1 probes vertex -2, outside 1..4"),
        # two bad ids in one round: the one named is the lowest, whatever the file's order
        ('{"cops": 2, "rounds": [[1], [7, 6]]}', "round 2 probes vertex 6, outside 1..4"),
        ('{"cops": 2, "rounds": [[9, 8]]}', "round 1 probes vertex 8, outside 1..4"),
        # over budget and out of range: the budget is checked first
        ('{"cops": 1, "rounds": [[5], [1, 2]]}', "round 2 probes 2 vertices, budget is 1"),
        ('{"cops": true, "rounds": [[1]]}', "cops true is not an integer"),
    ], ids=["bool-id", "float-id", "zero-id", "id-n-plus-1", "negative-id",
            "two-bad-ids", "two-bad-ids-high-first", "over-budget-and-out-of-range",
            "bool-cops"])
    def test_schedule_ids_are_json_integers(self, tmp_path, capsys, text, message):
        # ids from a file are checked where the file is read, against the graph's order
        sched = tmp_path / "s.json"
        sched.write_text(text)
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                                 "--schedule", str(sched))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_utf8_graph_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_bytes(b"p 2 1\ne 1 2\n# \xff\n")
        code, out, err = run_cli(capsys, "zeta", "solve", "--graph", str(path))
        assert code == 2 and not out and "UTF-8" in err

    def test_graph_directory_exit2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "zeta", "solve", "--graph", str(tmp_path))
        assert code == 2 and not out and "error" in err and "Traceback" not in err

    def test_schedule_directory_exit2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                               "--schedule", str(tmp_path))
        assert code == 2 and not out and "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--graph", "grid:3", "--out"),
        ("iso", "--graph", "path:4", "--mode", "edge", "--csv"),
        ("strat", "grid-sweep", "--n", "5", "--emit"),
        ("strat", "tree-depth", "--graph", "kary:2,3", "--emit"),
        ("strat", "tree-log", "--graph", "kary:2,3", "--emit"),
    ])
    def test_output_directory_exit2(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path))
        # tree-log is a policy, which --emit refuses before it writes anything
        message = "'tree-log' is a policy" if argv[1] == "tree-log" else "cannot write"
        assert code == 2 and not out and message in err and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(
        name for name, (kind, _, _) in STRATEGY_REGISTRY.items() if kind == "policy"))
    def test_emit_on_a_policy_exit2(self, tmp_path, capsys, monkeypatch, name):
        # only a schedule has a file format; a policy is refused before it is built
        refuse_to_build(monkeypatch, name)
        emit = tmp_path / "s.json"
        code, out, err = run_cli(capsys, "strat", name, "--graph", "path:4", "--emit", str(emit))
        assert (code, out) == (2, "") and not emit.exists()
        assert err == f"error: --emit writes a prox schedule, and '{name}' is a policy\n"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ("zeta", "simulate", "--graph", "path:5", "--policy", "front-sweep"),
        ("strat", "tree-log", "--graph", "path:5"),
    ])
    def test_round_cap_below_one_exit2(self, capsys, argv, cap):
        code, out, err = run_cli(capsys, *argv, "--round-cap", cap)
        assert code == 2 and "--round-cap" in err and not out

    def test_engine_bug_is_not_a_usage_error(self, monkeypatch):
        def broken(g):
            raise KeyError("engine bug")

        monkeypatch.setattr("lzl.cli.zeta_number", broken)
        with pytest.raises(KeyError):
            main(["zeta", "solve", "--graph", "path:4"])

    def test_inconsistent_bounds_is_not_a_usage_error(self, monkeypatch):
        # a zeta1 of 1 caps prox1 at 1, below the grid-window lower bound 2;
        # the stand-in solver has no cap, so it answers on grid:4
        monkeypatch.setattr("lzl.cli.zeta_number", lambda g: 1)
        with pytest.raises(AssertionError, match="prox1: derived lower bound 2 exceeds upper bound 1"):
            main(["bounds", "--graph", "grid:4", "--no-iso", "--solve"])

    def test_failed_grid_verification_is_not_a_usage_error(self, monkeypatch):
        def uncleared(g, schedule):
            return dataclasses.replace(run_schedule(g, schedule), cleared=False,
                                       clear_round=None)

        monkeypatch.setattr("lzl.gridsweep.run_schedule", uncleared)
        with pytest.raises(AssertionError, match="grid sweep for n=11 failed contamination verification"):
            main(["strat", "grid-sweep", "--n", "11"])

    def test_over_budget_policy_is_not_a_usage_error(self, monkeypatch):
        # two probes against a budget of one: the policy is at fault, not the caller
        monkeypatch.setitem(POLICY_REGISTRY, "sweep",
                            lambda g: SchedulePolicy([{0, 1}], budget=1, name="sweep"))
        with pytest.raises(AssertionError, match="policy 'sweep' probes 2 vertices, budget is 1"):
            main(["zeta", "simulate", "--graph", "path:4", "--policy", "sweep"])

    def test_lift_of_a_non_clearing_witness_is_not_a_usage_error(self, monkeypatch):
        # the lift takes the exact solver's witness, so one that does not clear is its fault
        monkeypatch.setattr("lzl.strategies.prox_solve",
                            lambda g: (1, ProbeSchedule.from_lists(1, [[0]])))
        with pytest.raises(AssertionError, match="does not win the one-proximity game"):
            main(["strat", "lift-delta", "--graph", "path:5"])

    @pytest.mark.parametrize("spec,message", [
        ("grid:" + "9" * 5000, "a graph spec value of 5000 digits is too long to read"),
        ("path:4:sub" + "9" * 5000, "a graph spec value of 5000 digits is too long to read"),
        ("grid:-" + "9" * 5000, "a graph spec value of 5000 digits is too long to read"),
        ("grid:+" + "9" * 5000, "a graph spec value of 5000 digits is too long to read"),
        ("grid:9_" + "9" * 5000, "a graph spec value of 5001 digits is too long to read"),
        ("grid:x", "grid:x: 'x' is not an integer"),
    ], ids=["overlong-value", "overlong-sub", "overlong-signed", "overlong-plus",
            "overlong-underscored", "not-an-integer"])
    def test_family_value_errors_exit2(self, capsys, spec, message):
        # int() reads at most 4300 digits, signed or underscored; past that the
        # error gives the digit count and never echoes the value
        code, out, err = run_cli(capsys, "gen", "--graph", spec)
        assert (code, out) == (2, "")
        assert message in err and "9" * 50 not in err


# argvs after the command name that each parser accepts, with abbreviations,
# --opt=value and positionals between options
PARSED = {
    "gen": [["--graph", "path:3"], ["--graph=path:3", "--out", "g.txt"], ["--gr", "path:3", "--o", "x"]],
    "iso": [["--graph", "grid:3"],
            ["--graph", "grid:3", "--mode", "edge", "--peak", "--h-index", "--csv", "p.csv"],
            ["--pe", "--gra=x", "--mode=vertex", "--h-i"]],
    "bounds": [["--graph", "x"], ["--graph", "x", "--no-iso", "--pathwidth", "--domination", "--solve"],
               ["--so", "--pa", "--graph", "x"]],
    "prox": [["solve", "--graph", "x"], ["--graph", "x", "verify", "--schedule", "s.json"],
             ["verify", "--sch", "s", "--graph=x"]],
    "zeta": [["solve", "--graph", "x"],
             ["simulate", "--graph", "x", "--policy", "sweep", "--round-cap", "7"],
             ["--round-cap=3", "simulate", "--gr", "x"]],
    "strat": [["tree-depth", "--graph", "x"], ["grid-sweep", "--n", "11", "--emit", "s.json"],
              ["--root", "2", "lift-tree", "--round-cap", "9", "--graph=x"]],
    "table": [["tab1"], ["nonesuch"]],
}

# argvs after the command name that each parser refuses inside the command
REFUSED = {
    "gen": [[], ["--graph"]],
    "iso": [["--graph", "x", "--mode", "bad"], ["--h", "--graph", "x"]],
    "bounds": [["--solve"], ["--graph", "x", "--pathwidth=1"]],
    "prox": [["foo", "--graph", "x"], ["--graph", "x"]],
    "zeta": [["solve", "--graph", "x", "--round-cap", "abc"], ["simulate"]],
    "strat": [[], ["x", "--n", "1.5"]],
    "table": [[]],
}


def subparser(command: str) -> argparse.ArgumentParser:
    """The parser of ``command`` inside the full parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def exit_of(capsys, parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestCommandParsers:
    """A command's own parser, which ``main`` builds, against the full parser."""

    def test_every_command_is_covered(self):
        assert set(PARSED) == set(REFUSED) == set(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_matches_the_full_parser(self, capsys, command):
        assert build_parser(command).format_help() == subparser(command).format_help()
        assert exit_of(capsys, build_parser(command), ["--help"]) == \
            exit_of(capsys, build_parser(), [command, "--help"])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_namespaces_match_the_full_parser(self, command):
        for argv in PARSED[command]:
            args = build_parser(command).parse_args(argv)
            assert args == build_parser().parse_args([command, *argv]), argv
            assert (args.cmd, args.fn) == (command, COMMANDS[command][1])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_errors_match_the_full_parser(self, capsys, command):
        for argv in REFUSED[command]:
            code, out, err = exit_of(capsys, build_parser(command), argv)
            assert (code, out) == (2, "") and err.startswith(f"usage: lzl {command} ")
            assert (code, out, err) == exit_of(capsys, build_parser(), [command, *argv]), argv

    def test_main_builds_only_the_parser_it_runs(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        try:
            assert main(["iso", "--graph", "path:3"]) == 0
        finally:
            build_parser.cache_clear()
        assert built == ["lzl iso"]
