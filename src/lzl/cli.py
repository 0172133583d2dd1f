"""Command-line surface: generation, solving, verification, reproduction.

Exit codes: 0 success or positive verification, 1 negative verification
(the robber legitimately wins or a reproduction cell mismatches), 2 a
``UsageError``, 3 a ``SizeCapError``; an engine fault's ``AssertionError``
is not caught.  Each command returns its report body and exit code, and
``main`` prints the one JSON document with the deterministic payload under
"report" and timing segregated under "timing"; identical inputs give
byte-identical report sections.  Each engine checks its own size cap; the
"caps" block reports the ones a command ran under.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .errors import SizeCapError, UsageError
from .graphs import (
    FAMILIES,
    Graph,
    generate,
    kary_order,
    max_degree,
    parse_graph,
    rooted_tree,
    serialize_graph,
    subdivide,
)
from .iso import (
    ISO_CAP,
    assemble_bounds,
    h_index,
    iso_profile,
    profile_to_csv,
)
from .prox import PROX_CAP, ProbeSchedule, prox_number, run_schedule
from .strategies import (
    DOMINATION_CAP,
    PATHWIDTH_CAP,
    STRATEGY_REGISTRY,
    brute_pathwidth,
    min_dominating_set,
    tree_upper_bounds,
)
from .zeta import POLICY_REGISTRY, ROUND_CAP, ZETA_CAP, simulate_policy, zeta_number
from .gridsweep import SWEEP_NOTES, grid_strategy

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        # int() refuses a value of more digits than its limit however it is
        # signed or spaced (a limit of 0, or none before Python 3.10.7, is
        # no limit); such a value is never echoed
        digits = sum(map(str.isdecimal, text))
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < digits:
            raise UsageError(f"a graph spec value of {digits} digits is too long to read") from None
        raise UsageError(f"{what}: '{text}' is not an integer") from None


def _round_cap(args) -> int:
    cap = ROUND_CAP if args.round_cap is None else args.round_cap
    if cap < 1:
        raise UsageError(f"--round-cap must be at least 1, got {cap}")
    return cap


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def load_graph(spec: str) -> tuple[Graph, str]:
    """A file path, or a family spec like grid:4, kary:3,3, spider:3,3,3.

    An optional trailing :sub<i> segment subdivides every edge i times.  A
    spec with more values than its family takes, or with anything after
    the :sub<i> segment, is rejected rather than read in part.
    """
    if os.path.exists(spec):
        return parse_graph(_read_text(spec)), os.path.basename(spec)
    parts = spec.split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise UsageError(f"'{spec}' is neither a file nor a family spec")
    names = FAMILIES[family][1]
    values = [_int(x, spec) for x in parts[1].split(",")] if len(parts) > 1 and parts[1] else []
    if "arms" not in names and len(values) < len(names):
        missing = " and ".join(names[len(values):])
        raise UsageError(f"family spec '{spec}' is missing {missing}")
    if "arms" not in names and len(values) > len(names):
        raise UsageError(f"family spec '{spec}' has values beyond {' and '.join(names)}")
    sub = None
    if len(parts) > 2:
        seg = parts[2]
        if not seg.startswith("sub"):
            raise UsageError(f"unknown graph spec segment '{seg}'")
        if len(parts) > 3:
            raise UsageError(f"graph spec '{spec}' has a segment after ':{seg}'")
        sub = _int(seg[3:], spec)
    # the whole spec is checked before any graph is built
    params = {"arms": values} if "arms" in names else dict(zip(names, values))
    g = generate(family, **params)
    if sub is not None:
        g = subdivide(g, sub)
    return g, spec


def _report(command: str, graph: Graph | None, graph_id: str | None,
            parameters: dict, results: dict,
            caps: dict | None = None, notes: list | None = None) -> dict:
    """The deterministic report; ``graph_id`` is the name ``load_graph`` gave."""
    body = {
        "command": command,
        "engine_version": __version__,
        "parameters": parameters,
        "results": results,
        "caps": caps or {},
        "deviation_notes": notes or [],
    }
    if graph is not None:
        body["graph"] = {
            "id": graph_id,
            "hash": graph.content_hash(),
            "n": graph.n,
            "m": graph.m,
            "max_degree": max_degree(graph),
        }
    return body


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> tuple[dict | None, int]:
    g, gid = load_graph(args.graph)
    text = serialize_graph(g)
    if not args.out:
        sys.stdout.write(text)
        return None, EXIT_OK
    _write_text(args.out, text)
    return _report("gen", g, gid, {"graph": gid},
                   {"n": g.n, "m": g.m, "out": args.out}), EXIT_OK


def cmd_iso(args) -> tuple[dict | None, int]:
    g, gid = load_graph(args.graph)
    vertex, edge = iso_profile(g)
    profile = vertex if args.mode == "vertex" else edge
    results: dict = {"mode": args.mode, "values": list(profile), "exact": True}
    if args.peak:
        results["peak"] = max(profile)
    if args.h_index:
        results["h_index"] = h_index(profile)
    if args.csv:
        _write_text(args.csv, profile_to_csv(profile))
        results["csv"] = args.csv
    return _report("iso", g, gid, {"graph": gid, "mode": args.mode}, results,
                   caps={"iso": ISO_CAP}), EXIT_OK


def _grid_side_of(g: Graph) -> int | None:
    """n when ``g`` is the n-by-n grid with the generator's vertex order."""
    side = math.isqrt(g.n)
    # the size tests keep a graph of another shape from generating a grid to compare
    if side * side != g.n or side < 2 or g.m != 2 * side * (side - 1):
        return None
    if g != generate("grid", n=side):
        return None
    return side


def _kary_shape_of(g: Graph) -> tuple[int, int] | None:
    """(k, d) when ``g`` is the k-ary tree of depth d >= 2 with the generator's
    vertex order."""
    k = len(g.nbrs[0])
    if k < 2 or not g.is_tree():
        return None
    d = max(rooted_tree(g, 0)[2])
    # the order test keeps a wide shallow tree from generating a huge one
    if d < 2 or g.n != kary_order(k, d):
        return None
    if g != generate("kary", k=k, d=d):
        return None
    return k, d


def _profile_quantities(g: Graph) -> dict:
    pv, pe = iso_profile(g)
    return {"h_vertex": h_index(pv), "h_edge": h_index(pe),
            "phi_vertex_peak": max(pv), "phi_edge_peak": max(pe)}


def cmd_bounds(args) -> tuple[dict | None, int]:
    g, gid = load_graph(args.graph)
    # (asked for, what, engine, cap, the quantities that engine gives) per
    # row; each engine refuses past its own cap, and a tree is profiled at any order
    requested = [
        (not args.no_iso, "isoperimetric profile", "iso", ISO_CAP, _profile_quantities),
        (args.pathwidth, "pathwidth", "pathwidth", PATHWIDTH_CAP,
         lambda graph: {"pathwidth": brute_pathwidth(graph).width}),
        (args.domination, "domination_number", "domination", DOMINATION_CAP,
         lambda graph: {"domination_number": min_dominating_set(graph).bit_count()}),
        (args.solve, "prox1", "prox", PROX_CAP, lambda graph: {"prox1": prox_number(graph)}),
        (args.solve, "zeta1", "zeta", ZETA_CAP, lambda graph: {"zeta1": zeta_number(graph)}),
    ]
    quantities: dict = {}
    caps, notes = {}, []
    for asked, what, engine, cap, compute in requested:
        if not asked:
            continue
        caps[engine] = cap
        try:
            quantities.update(compute(g))
        except SizeCapError:
            notes.append(f"{what} not computed: order {g.n} exceeds the {engine} cap {cap}")
    side = _grid_side_of(g)
    if side:
        quantities["grid_side"] = side
    shape = _kary_shape_of(g)
    if shape:
        quantities["kary_shape"] = shape
    return _report("bounds", g, gid, {"graph": gid}, assemble_bounds(g, quantities, graph_id=gid),
                   caps=caps, notes=notes), EXIT_OK


def cmd_prox(args) -> tuple[dict | None, int]:
    if args.action == "solve":
        if args.schedule is not None:
            raise UsageError("prox solve takes no --schedule: only prox verify reads one")
        g, gid = load_graph(args.graph)
        return _report("prox-solve", g, gid, {"graph": gid},
                       {"prox1": prox_number(g)}, caps={"prox": PROX_CAP}), EXIT_OK
    if not args.schedule:
        raise UsageError("prox verify needs --schedule")
    text = _read_text(args.schedule)
    g, gid = load_graph(args.graph)
    schedule = ProbeSchedule.from_json(text, g.n)
    trace = run_schedule(g, schedule)
    body = _report(
        "prox-verify",
        g,
        gid,
        {"graph": gid, "schedule": args.schedule, "cops": schedule.cops},
        trace.as_dict(),
    )
    return body, (EXIT_OK if trace.cleared else EXIT_NEGATIVE)


def cmd_zeta(args) -> tuple[dict | None, int]:
    if args.action == "solve":
        for flag, value in (("--policy", args.policy), ("--round-cap", args.round_cap)):
            if value is not None:
                raise UsageError(f"zeta solve takes no {flag}: only zeta simulate reads it")
        g, gid = load_graph(args.graph)
        return _report("zeta-solve", g, gid, {"graph": gid},
                       {"zeta1": zeta_number(g)}, caps={"zeta": ZETA_CAP}), EXIT_OK
    if not args.policy:
        raise UsageError("zeta simulate needs --policy")
    round_cap = _round_cap(args)
    if args.policy not in POLICY_REGISTRY:
        raise UsageError(f"unknown policy '{args.policy}'")
    g, gid = load_graph(args.graph)
    sim = simulate_policy(g, POLICY_REGISTRY[args.policy](g), round_cap=round_cap)
    body = _report(
        "zeta-simulate",
        g,
        gid,
        {"graph": gid, "policy": args.policy, "round_cap": round_cap},
        asdict(sim),
    )
    return body, (EXIT_OK if sim.captured else EXIT_NEGATIVE)


def cmd_strat(args) -> tuple[dict | None, int]:
    if args.name == "grid-sweep":
        if args.n is None:
            raise UsageError("grid-sweep needs --n")
        for flag, value in (("--graph", args.graph), ("--root", args.root),
                            ("--round-cap", args.round_cap)):
            if value is not None:
                raise UsageError(f"grid-sweep takes no {flag}: it sweeps the --n grid")
        schedule, trace = grid_strategy(args.n)
        if args.emit:
            _write_text(args.emit, schedule.to_json())
        body = _report(
            "strat",
            None,
            None,
            {"name": "grid-sweep", "n": args.n},
            {
                "budget": schedule.cops,
                "cleared": trace.cleared,
                "clear_round": trace.clear_round,
                "rounds": len(schedule.rounds),
            },
            notes=SWEEP_NOTES,
        )
        return body, EXIT_OK

    # every option is checked before the graph is built: only --root's range needs it
    if args.name not in STRATEGY_REGISTRY:
        raise UsageError(f"unknown strategy '{args.name}'")
    if not args.graph:
        raise UsageError(f"strategy '{args.name}' needs --graph")
    if args.n is not None:
        raise UsageError(f"strategy '{args.name}' takes no --n: it runs on --graph")
    kind, reads_root, build = STRATEGY_REGISTRY[args.name]
    if kind == "policy" and args.emit:
        raise UsageError(f"--emit writes a prox schedule, and '{args.name}' is a policy")
    if kind == "schedule" and args.round_cap is not None:
        raise UsageError(f"--round-cap caps a policy's simulation, and '{args.name}' is a schedule")
    round_cap = _round_cap(args)
    if args.root is not None and not reads_root:
        raise UsageError(f"strategy '{args.name}' takes no --root: it reads no root vertex")
    root = 0 if args.root is None else args.root
    g, gid = load_graph(args.graph)
    if not 0 <= root < g.n:
        raise UsageError(f"--root {root} is not a vertex index")
    artifact = build(g, root) if reads_root else build(g)
    if kind == "schedule":
        trace = run_schedule(g, artifact)
        verdict = trace.cleared
        results = {
            "kind": kind,
            "budget": artifact.cops,
            "cleared": trace.cleared,
            "clear_round": trace.clear_round,
            "rounds": len(artifact.rounds),
        }
        if args.emit:
            _write_text(args.emit, artifact.to_json())
    else:
        sim = simulate_policy(g, artifact, round_cap=round_cap)
        verdict = sim.captured
        results = {"kind": kind, "budget": artifact.budget, **asdict(sim)}
    body = _report("strat", g, gid, {"name": args.name, "graph": gid}, results)
    return body, (EXIT_OK if verdict else EXIT_NEGATIVE)


TABLE1_EXPECTED = {
    "T0": (6, 2, 4),
    "T10": (9, 10, 10),
    "T100": (12, 77, 10),
}


def table1_rows() -> dict[str, tuple[int, int, int]]:
    """Order, depth, and level upper-bound formulas for the three trees."""
    base = generate("kary", k=3, d=3)
    return {name: tree_upper_bounds(subdivide(base, i), 0)
            for name, i in (("T0", 0), ("T10", 10), ("T100", 100))}


def cmd_table(args) -> tuple[dict | None, int]:
    if args.name != "tab1":
        raise UsageError(f"unknown table '{args.name}'")
    rows = table1_rows()
    mismatches = []
    for name, expected in TABLE1_EXPECTED.items():
        got = rows[name]
        status = "ok" if got == expected else "MISMATCH"
        print(f"{name}: order-bound={got[0]} depth-bound={got[1]} "
              f"level-bound={got[2]}  [{status}]", file=sys.stderr)
        if got != expected:
            mismatches.append({"row": name, "expected": expected, "got": got})
    body = _report(
        "table",
        None,
        None,
        {"name": args.name},
        {"rows": {k: list(v) for k, v in rows.items()},
         "mismatches": mismatches},
    )
    return body, (EXIT_OK if not mismatches else EXIT_NEGATIVE)


# name: (help line, handler, options); each option is its flag or positional
# name with the keywords of its add_argument call
COMMANDS = {
    "gen": ("write a graph spec or file in the file format", cmd_gen, (
        ("--graph", {"required": True}),
        ("--out", {}),
    )),
    "iso": ("isoperimetric profile, peak, h-index", cmd_iso, (
        ("--graph", {"required": True}),
        ("--mode", {"choices": ("vertex", "edge"), "default": "vertex"}),
        ("--peak", {"action": "store_true"}),
        ("--h-index", {"dest": "h_index", "action": "store_true"}),
        ("--csv", {}),
    )),
    "bounds": ("assemble every applicable bound", cmd_bounds, (
        ("--graph", {"required": True}),
        ("--no-iso", {"action": "store_true"}),
        ("--pathwidth", {"action": "store_true"}),
        ("--domination", {"action": "store_true"}),
        ("--solve", {"action": "store_true"}),
    )),
    "prox": ("one-proximity solving and verification", cmd_prox, (
        ("action", {"choices": ("solve", "verify")}),
        ("--graph", {"required": True}),
        ("--schedule", {}),
    )),
    "zeta": ("localization solving and simulation", cmd_zeta, (
        ("action", {"choices": ("solve", "simulate")}),
        ("--graph", {"required": True}),
        ("--policy", {}),
        ("--round-cap", {"type": int}),
    )),
    "strat": ("generate and verify a named strategy", cmd_strat, (
        ("name", {}),
        ("--graph", {}),
        ("--n", {"type": int}),
        # None, not a default value, so that an option the strategy would not read is seen
        ("--root", {"type": int}),
        ("--round-cap", {"type": int}),
        ("--emit", {}),
    )),
    "table": ("desk-scale table reproduction", cmd_table, (
        ("name", {}),
    )),
}


def _with_options(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    _, fn, options = COMMANDS[command]
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(fn=fn)
    return parser


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with None the full parser of them all.

    Built on the first call and reused by every later ``main``.  A command's
    own parser gives the help and errors of its subparser in the full one;
    only arguments it does not know are reported under its own usage line.
    """
    if command is not None:
        p = _with_options(argparse.ArgumentParser(prog=f"lzl {command}"), command)
        p.set_defaults(cmd=command)
        return p
    p = argparse.ArgumentParser(
        prog="lzl",
        description="exact engines and verified strategies for the "
        "one-visibility localization and one-proximity games",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _with_options(sub.add_parser(name, help=help_line), name)
    return p


def main(argv=None) -> int:
    """Run one command and print its report, if it has one, with its timing."""
    argv = sys.argv[1:] if argv is None else argv
    # every command's parser together takes longer to build than a short command runs
    if argv and argv[0] in COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    started = time.time()
    try:
        body, code = args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if body is not None:
        timing = {"wall_time_s": round(time.time() - started, 4)}
        print(json.dumps({"report": body, "timing": timing}, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
