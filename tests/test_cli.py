import dataclasses
import json

import pytest

from lzl.graphs import generate, parse_graph, serialize_graph
from lzl.cli import load_graph, main
from lzl.errors import GridVerificationError, InconsistentBoundsError
from lzl.prox import run_schedule
from lzl.strategies import STRATEGY_REGISTRY


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout: str) -> dict:
    return json.loads(stdout[stdout.index("{"):])


class TestGen:
    def test_grid_file(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        code, _, _ = run_cli(capsys, "gen", "--graph", "grid:4", "--out", str(out))
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 16 and g.edge_count() == 24

    def test_kary_counts(self, tmp_path, capsys):
        out = tmp_path / "t.graph"
        code, _, _ = run_cli(capsys, "gen", "--graph", "kary:3,3", "--out", str(out))
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 40 and g.edge_count() == 39

    def test_spider_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--graph", "spider:3,3,3")
        assert code == 0
        assert out.startswith("p 10 9")

    def test_unknown_family_exit2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--graph", "moebius:4")
        assert code == 2 and "error" in err

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
        code, _, err = run_cli(capsys, "iso", "--graph", "grid:6")
        assert code == 3 and "cap" in err


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
        code, _, err = run_cli(capsys, "prox", "verify", "--graph", "path:6",
                               "--schedule", str(sched))
        assert code == 2 and "'zeta'" in err

    def test_zeta_simulate_escape_exit1(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "simulate", "--graph", "spider:3,3,3",
                               "--policy", "arm-scan")
        assert code == 1
        assert report_of(out)["report"]["results"]["outcome"] == "escape-witness"

    def test_solver_cap_exit3(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "solve", "--graph", "grid:4")
        assert code == 3


class TestStratCmd:
    def test_grid_sweep(self, tmp_path, capsys):
        emit = tmp_path / "grid11.json"
        code, out, _ = run_cli(capsys, "strat", "grid-sweep", "--n", "11",
                               "--emit", str(emit))
        assert code == 0
        results = report_of(out)["report"]["results"]
        assert results["budget"] == 6 and results["cleared"]
        data = json.loads(emit.read_text())
        assert data["cops"] == 6

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
        code, _, err = run_cli(capsys, "strat", "grid-sweep", "--n", "129")
        assert code == 3 and "exceeds cap" in err

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
        code, _, err = run_cli(capsys, "strat", "domination", "--graph", "grid:2")
        assert code == 2

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
        assert code == 2 and TINY_GRAPH_PRECONDITIONS[name, graph] in err
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
        code, out, _ = run_cli(capsys, "table", "tab1")
        assert code == 0
        rows = report_of(out)["report"]["results"]["rows"]
        assert rows == {"T0": [6, 2, 4], "T10": [9, 10, 10], "T100": [12, 77, 10]}
        assert "[ok]" in out


class TestDeterminismAndCache:
    def test_report_bytes_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "zeta", "solve", "--graph", "path:5")
        _, out2, _ = run_cli(capsys, "zeta", "solve", "--graph", "path:5")
        r1 = json.dumps(report_of(out1)["report"], sort_keys=True)
        r2 = json.dumps(report_of(out2)["report"], sort_keys=True)
        assert r1 == r2


class TestUsageErrors:
    def test_gen_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--graph", "path")
        assert code == 2 and "missing n" in err

    def test_gen_missing_kary_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--graph", "kary:3")
        assert code == 2 and "missing d" in err

    def test_strat_missing_graph(self, capsys):
        code, _, err = run_cli(capsys, "strat", "tree-depth")
        assert code == 2 and "--graph" in err

    def test_grid_sweep_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "strat", "grid-sweep")
        assert code == 2 and "--n" in err

    def test_prox_verify_missing_schedule(self, capsys):
        code, _, err = run_cli(capsys, "prox", "verify", "--graph", "path:4")
        assert code == 2 and "--schedule" in err

    def test_zeta_simulate_missing_policy(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "simulate", "--graph", "path:4")
        assert code == 2 and "--policy" in err

    def test_iso_budget_flag_is_gone_exit2(self, capsys):
        # every profile is exact, so a caller still asking for a partial one fails
        with pytest.raises(SystemExit) as exc:
            main(["iso", "--graph", "path:5", "--budget", "3"])
        assert exc.value.code == 2 and "--budget" in capsys.readouterr().err

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
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", [
        "{", '{"cops": 1}', "[1]", '{"cops": 1, "rounds": [[2.5]]}',
    ])
    def test_malformed_schedule_exit2(self, tmp_path, capsys, text):
        sched = tmp_path / "s.json"
        sched.write_text(text)
        code, _, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                               "--schedule", str(sched))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text,message", [
        ('{"cops": 1, "rounds": [[true]]}', "probes true, not an integer"),
        ('{"cops": 1, "rounds": [[1.0]]}', "probes 1.0, not an integer"),
        ('{"cops": 1, "rounds": [[0]]}', "vertex 0, outside 1..4"),
        ('{"cops": true, "rounds": [[1]]}', "cops true is not an integer"),
    ], ids=["bool-id", "float-id", "zero-id", "bool-cops"])
    def test_schedule_ids_are_json_integers(self, tmp_path, capsys, text, message):
        sched = tmp_path / "s.json"
        sched.write_text(text)
        code, out, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                                 "--schedule", str(sched))
        assert code == 2 and message in err and not out

    def test_non_utf8_graph_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_bytes(b"p 2 1\ne 1 2\n# \xff\n")
        code, _, err = run_cli(capsys, "zeta", "solve", "--graph", str(path))
        assert code == 2 and "UTF-8" in err

    def test_graph_directory_exit2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "zeta", "solve", "--graph", str(tmp_path))
        assert code == 2 and "error" in err and "Traceback" not in err

    def test_schedule_directory_exit2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "prox", "verify", "--graph", "path:4",
                               "--schedule", str(tmp_path))
        assert code == 2 and "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--graph", "grid:3", "--out"),
        ("iso", "--graph", "path:4", "--mode", "edge", "--csv"),
        ("strat", "grid-sweep", "--n", "5", "--emit"),
        ("strat", "tree-depth", "--graph", "kary:2,3", "--emit"),
        ("strat", "tree-log", "--graph", "kary:2,3", "--emit"),
    ])
    def test_output_directory_exit2(self, tmp_path, capsys, argv):
        code, _, err = run_cli(capsys, *argv, str(tmp_path))
        assert code == 2 and "cannot write" in err and "Traceback" not in err

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
        # a zeta1 of 1 caps prox1 at 1, below the grid-window lower bound 2
        monkeypatch.setattr("lzl.cli.zeta_number", lambda g: 1)
        with pytest.raises(InconsistentBoundsError):
            main(["bounds", "--graph", "grid:3", "--no-iso", "--solve"])

    def test_failed_grid_verification_is_not_a_usage_error(self, monkeypatch):
        def uncleared(g, schedule):
            return dataclasses.replace(run_schedule(g, schedule), cleared=False,
                                       clear_round=None)

        monkeypatch.setattr("lzl.gridsweep.run_schedule", uncleared)
        with pytest.raises(GridVerificationError):
            main(["strat", "grid-sweep", "--n", "11"])
