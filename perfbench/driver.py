"""One driver process: run one segment of a workload's jobs and judge them.

Started by run.py once per segment and pass, so every pass begins in a
fresh interpreter with cold module-level memos.  Protocol on stdout: the
line ``ready`` once set-up is done (interpreter start, ``import lzl``,
reading the generated inputs), then one JSON line with the outcome.  The
jobs' own output is captured, never written to this process's stdout.

    python3 perfbench/driver.py --workload W --segment I --manifest FILE [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import jobs


def read_inputs(manifest: dict) -> dict[str, list[set[int]]]:
    """Read each generated input, check its sha256, and parse its edges."""
    adjacency = {}
    for name, info in manifest.items():
        with open(info["path"], "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != info["sha256"]:
            raise RuntimeError(f"input {name} changed after it was written")
        adj = [set() for _ in range(info["n"])]
        for line in data.decode().splitlines()[1:]:
            _, u, v = line.split()
            adj[int(u) - 1].add(int(v) - 1)
            adj[int(v) - 1].add(int(u) - 1)
        adjacency[name] = adj
    return adjacency


def run_job(cli, job: jobs.Job, argv: list[str], ctx: jobs.Context) -> dict:
    """Call lzl.cli.main once; return the job's outcome and verdict."""
    out, err = io.StringIO(), io.StringIO()
    outcome = {"id": job.id, "rc": None, "ok": False, "basis": None, "error": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome["rc"] = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        outcome["rc"] = exc.code
    except Exception as exc:  # an engine bug; counted as a failed job
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        return outcome
    if outcome["rc"] != 0:
        outcome["error"] = err.getvalue().strip()[-500:]
        return outcome
    results = json.loads(out.getvalue())["report"]["results"]
    ctx.results[job.id] = results
    try:
        outcome["ok"], outcome["basis"] = job.check(results, ctx)
    except (KeyError, TypeError) as exc:  # the report lacks a field
        outcome["basis"] = f"malformed report: {exc!r}"
    return outcome


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop of the kind lzl runs (big-int shifts
    and masks, dict stores).  It never changes with lzl, so its time tracks
    only how fast the machine runs this process at the moment."""
    start = time.perf_counter()
    seen = {}
    acc, x, mask = 0, 12345, (1 << 200) - 1
    for i in range(40000):
        x = ((x << 3) ^ (x >> 5) ^ i) & mask
        acc += (x & -x).bit_length()
        seen[acc & 4095] = i
    return time.perf_counter() - start


def run_segment(cli, segment: jobs.Segment, manifest: dict, adjacency: dict,
                tracer=None) -> list[dict]:
    """Run every job of the segment.  A job's time runs from its call to its
    verdict; the reference loop runs after each job, outside that time."""
    ctx = jobs.Context(inputs=manifest, adjacency=adjacency, results={})
    outcomes = []
    for job in segment.jobs:
        if tracer is not None:
            tracer.job = job.id
        start = time.perf_counter()
        outcome = run_job(cli, job, jobs.job_argv(job, manifest), ctx)
        outcome["seconds"] = time.perf_counter() - start
        outcome["reference_s"] = reference_seconds()
        outcomes.append(outcome)
    return outcomes


def peak_rss_mib() -> float:
    """Peak resident set of this process or any worker it waited for."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--segment", type=int, required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import lzl.cli as cli

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"lzl imported from {cli.__file__}, not from {src}")
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    adjacency = read_inputs(manifest)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    print("ready", flush=True)

    segment = jobs.WORKLOADS[args.workload][args.segment]
    outcomes = run_segment(cli, segment, manifest, adjacency, tracer)
    print(json.dumps({
        "jobs": outcomes,
        "peak_rss_mib": peak_rss_mib(),
        "spans": tracer.spans if tracer else [],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
