"""Command-line surface: generation, solving, verification, reproduction.

Exit codes: 0 success or positive verification, 1 negative verification
(the robber legitimately wins or a reproduction cell mismatches), 2 usage
or validation errors, 3 size-cap violations.  Results are emitted as JSON
with the deterministic payload under "report" and timing segregated under
"timing"; identical inputs give byte-identical report sections.  Each
engine checks its own size cap; the "caps" block reports the ones a
command ran under.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    GraphParseError,
    GraphValidationError,
    LzlError,
    ScheduleError,
    SizeCapError,
    UsageError,
)
from .graphs import (
    FAMILIES,
    Graph,
    generate,
    max_degree,
    parse_graph,
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
    level_decomposition,
    min_dominating_set,
)
from .zeta import ZETA_CAP, build_policy, simulate_policy, zeta_number
from .gridsweep import grid_strategy

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what}: '{text}' is not an integer") from None


def _round_cap(args) -> int:
    if args.round_cap < 1:
        raise UsageError(f"--round-cap must be at least 1, got {args.round_cap}")
    return args.round_cap


def _read_text(path: str, error: type[LzlError]) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise error(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


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
        return parse_graph(_read_text(spec, GraphParseError)), os.path.basename(spec)
    parts = spec.split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise GraphValidationError(
            f"'{spec}' is neither a file nor a family spec"
        )
    names = FAMILIES[family][1]
    values = [_int(x, spec) for x in parts[1].split(",")] if len(parts) > 1 and parts[1] else []
    if "arms" not in names and len(values) < len(names):
        missing = " and ".join(names[len(values):])
        raise GraphValidationError(f"family spec '{spec}' is missing {missing}")
    if "arms" not in names and len(values) > len(names):
        raise GraphValidationError(f"family spec '{spec}' has values beyond {' and '.join(names)}")
    sub = None
    if len(parts) > 2:
        seg = parts[2]
        if not seg.startswith("sub"):
            raise GraphValidationError(f"unknown graph spec segment '{seg}'")
        if len(parts) > 3:
            raise GraphValidationError(f"graph spec '{spec}' has a segment after ':{seg}'")
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
            "m": graph.edge_count(),
            "max_degree": max_degree(graph) if graph.n > 1 else 0,
        }
    return body


def _emit(body: dict, started: float) -> None:
    payload = json.dumps(
        {"report": body, "timing": {"wall_time_s": round(time.time() - started, 4)}},
        sort_keys=True,
        indent=2,
    )
    print(payload)


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> int:
    started = time.time()
    g, gid = load_graph(args.graph)
    text = serialize_graph(g)
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    _write_text(args.out, text)
    body = _report("gen", g, gid, {"graph": gid},
                   {"n": g.n, "m": g.edge_count(), "out": args.out})
    _emit(body, started)
    return EXIT_OK


def cmd_iso(args) -> int:
    started = time.time()
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
    body = _report("iso", g, gid, {"graph": gid, "mode": args.mode}, results,
                   caps={"iso": ISO_CAP})
    _emit(body, started)
    return EXIT_OK


def _grid_side_of(g: Graph) -> int | None:
    """n when ``g`` is the n-by-n grid with the generator's vertex order."""
    side = math.isqrt(g.n)
    if side * side != g.n or side < 2 or g.adj_bits != generate("grid", n=side).adj_bits:
        return None
    return side


def _kary_shape_of(g: Graph) -> tuple[int, int] | None:
    """(k, d) when ``g`` is the k-ary tree of depth d >= 2 with the generator's
    vertex order."""
    k = g.degree(0)
    if k < 2 or not g.is_tree():
        return None
    d = level_decomposition(g, 0).depth
    # the order test keeps a wide shallow tree from generating a huge one
    if d < 2 or g.n != (k ** (d + 1) - 1) // (k - 1):
        return None
    if g.adj_bits != generate("kary", k=k, d=d).adj_bits:
        return None
    return k, d


def cmd_bounds(args) -> int:
    started = time.time()
    g, gid = load_graph(args.graph)
    quantities: dict = {}
    if not args.no_iso and (g.n <= ISO_CAP or g.is_tree()):
        pv, pe = iso_profile(g)
        quantities["h_vertex"] = h_index(pv)
        quantities["h_edge"] = h_index(pe)
        quantities["phi_vertex_peak"] = max(pv)
        quantities["phi_edge_peak"] = max(pe)
    if args.pathwidth and g.n <= PATHWIDTH_CAP:
        quantities["pathwidth"] = brute_pathwidth(g).width
    if args.domination and g.n <= DOMINATION_CAP:
        quantities["domination_number"] = min_dominating_set(g).bit_count()
    if args.solve:
        if g.n <= PROX_CAP:
            quantities["prox1"] = prox_number(g)
        if g.n <= ZETA_CAP:
            quantities["zeta1"] = zeta_number(g)
    side = _grid_side_of(g)
    if side:
        quantities["grid_side"] = side
    shape = _kary_shape_of(g)
    if shape:
        quantities["kary_shape"] = shape
    report = assemble_bounds(g, graph_id=gid, **quantities)
    body = _report("bounds", g, gid, {"graph": gid}, report.as_dict(),
                   caps={"iso": ISO_CAP})
    _emit(body, started)
    return EXIT_OK


def cmd_prox(args) -> int:
    started = time.time()
    g, gid = load_graph(args.graph)
    if args.action == "solve":
        value = prox_number(g)
        body = _report("prox-solve", g, gid, {"graph": gid},
                       {"prox1": value}, caps={"prox": PROX_CAP})
        _emit(body, started)
        return EXIT_OK
    if not args.schedule:
        raise GraphValidationError("prox verify needs --schedule")
    schedule = ProbeSchedule.from_json(_read_text(args.schedule, ScheduleError))
    trace = run_schedule(g, schedule)
    body = _report(
        "prox-verify",
        g,
        gid,
        {"graph": gid, "schedule": args.schedule, "cops": schedule.cops},
        trace.as_dict(),
    )
    _emit(body, started)
    return EXIT_OK if trace.cleared else EXIT_NEGATIVE


def cmd_zeta(args) -> int:
    started = time.time()
    g, gid = load_graph(args.graph)
    if args.action == "solve":
        value = zeta_number(g)
        body = _report("zeta-solve", g, gid, {"graph": gid},
                       {"zeta1": value}, caps={"zeta": ZETA_CAP})
        _emit(body, started)
        return EXIT_OK
    if not args.policy:
        raise GraphValidationError("zeta simulate needs --policy")
    round_cap = _round_cap(args)
    sim = simulate_policy(g, build_policy(args.policy, g), round_cap=round_cap)
    body = _report(
        "zeta-simulate",
        g,
        gid,
        {"graph": gid, "policy": args.policy, "round_cap": round_cap},
        sim.as_dict(),
    )
    _emit(body, started)
    return EXIT_OK if sim.captured else EXIT_NEGATIVE


def cmd_strat(args) -> int:
    started = time.time()
    round_cap = _round_cap(args)
    if args.name == "grid-sweep":
        if args.n is None:
            raise GraphValidationError("grid-sweep needs --n")
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
            notes=schedule.metadata.get("notes", []),
        )
        _emit(body, started)
        return EXIT_OK

    if not args.graph:
        raise GraphValidationError(f"strategy '{args.name}' needs --graph")
    g, gid = load_graph(args.graph)
    if args.name not in STRATEGY_REGISTRY:
        raise GraphValidationError(f"unknown strategy '{args.name}'")
    if not 0 <= args.root < g.n:
        raise GraphValidationError(f"--root {args.root} is not a vertex index")
    kind, artifact = STRATEGY_REGISTRY[args.name](g, root=args.root)
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
        results = {"kind": kind, "budget": artifact.budget, **sim.as_dict()}
        if args.emit:
            _write_text(args.emit, json.dumps({"policy": artifact.name,
                                               "budget": artifact.budget}))
    body = _report("strat", g, gid, {"name": args.name, "graph": gid}, results)
    _emit(body, started)
    return EXIT_OK if verdict else EXIT_NEGATIVE


TABLE1_EXPECTED = {
    "T0": (6, 2, 4),
    "T10": (9, 10, 10),
    "T100": (12, 77, 10),
}


def table1_rows() -> dict[str, tuple[int, int, int]]:
    """Order, depth, and level upper-bound formulas for the three trees."""
    rows = {}
    base = generate("kary", k=3, d=3)
    for name, i in (("T0", 0), ("T10", 10), ("T100", 100)):
        g = subdivide(base, i)
        ld = level_decomposition(g, 0)
        rows[name] = (
            (g.n - 1).bit_length(),  # ceil(log2 n)
            ld.depth // 4 + 2,
            -(-ld.max_nonleaf // 3) + 1,
        )
    return rows


def cmd_table(args) -> int:
    started = time.time()
    if args.name != "tab1":
        raise GraphValidationError(f"unknown table '{args.name}'")
    rows = table1_rows()
    mismatches = []
    for name, expected in TABLE1_EXPECTED.items():
        got = rows[name]
        status = "ok" if got == expected else "MISMATCH"
        print(f"{name}: order-bound={got[0]} depth-bound={got[1]} "
              f"level-bound={got[2]}  [{status}]")
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
    _emit(body, started)
    return EXIT_OK if not mismatches else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lzl",
        description="exact engines and verified strategies for the "
        "one-visibility localization and one-proximity games",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="write a graph spec or file in the file format")
    g.add_argument("--graph", required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    i = sub.add_parser("iso", help="isoperimetric profile, peak, h-index")
    i.add_argument("--graph", required=True)
    i.add_argument("--mode", choices=("vertex", "edge"), default="vertex")
    i.add_argument("--peak", action="store_true")
    i.add_argument("--h-index", dest="h_index", action="store_true")
    i.add_argument("--csv")
    i.set_defaults(fn=cmd_iso)

    b = sub.add_parser("bounds", help="assemble every applicable bound")
    b.add_argument("--graph", required=True)
    b.add_argument("--no-iso", action="store_true")
    b.add_argument("--pathwidth", action="store_true")
    b.add_argument("--domination", action="store_true")
    b.add_argument("--solve", action="store_true")
    b.set_defaults(fn=cmd_bounds)

    pr = sub.add_parser("prox", help="one-proximity solving and verification")
    pr.add_argument("action", choices=("solve", "verify"))
    pr.add_argument("--graph", required=True)
    pr.add_argument("--schedule")
    pr.set_defaults(fn=cmd_prox)

    z = sub.add_parser("zeta", help="localization solving and simulation")
    z.add_argument("action", choices=("solve", "simulate"))
    z.add_argument("--graph", required=True)
    z.add_argument("--policy")
    z.add_argument("--round-cap", type=int, default=400)
    z.set_defaults(fn=cmd_zeta)

    s = sub.add_parser("strat", help="generate and verify a named strategy")
    s.add_argument("name")
    s.add_argument("--graph")
    s.add_argument("--n", type=int)
    s.add_argument("--root", type=int, default=0)
    s.add_argument("--round-cap", type=int, default=400)
    s.add_argument("--emit")
    s.set_defaults(fn=cmd_strat)

    t = sub.add_parser("table", help="desk-scale table reproduction")
    t.add_argument("name")
    t.set_defaults(fn=cmd_table)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (LzlError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
