"""lzl benchmark: fixed CLI job lists, timed end to end, checked against
known answers.

    python3 perfbench/run.py --workload {exact,grid,trees,profile,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program under test is imported
from ``src/`` there, never from an installed copy.  Inputs are generated
from ``--seed`` into ``.perfbench_work/``.  The run repeats passes over the
workload's job list until ``--seconds`` is spent; every pass starts fresh
driver processes (see driver.py), so module-level memos never carry over.

With ``--trace 0`` the last stdout line holds the end-to-end metrics and
each pass's raw times go to ``.perfbench_work/passes-<workload>-<seed>.json``;
with ``--trace 1`` it holds the per-layer metrics from traced passes,
interleaved with untraced passes to measure the tracing overhead, and the
spans go to ``.perfbench_work/trace-<workload>-<seed>.json``.  See README.md
for every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SEGMENT_TIMEOUT_S = 120
# norm_wall_s is the mean pass time rescaled to a machine on which
# driver.reference_seconds() takes this long on average.  On the 2-vCPU Xeon
# VM behind the baselines in README.md (CPython 3.11.7) it averaged 18-29 ms
# from run to run, with the machine's load.
REFERENCE_NOMINAL_S = 0.020
# Variables that change what lzl computes or where it reads and writes.
LZL_ENV = ("LZL_CACHE", "LZL_THREADS", "LZL_MAX_N", "LZL_LOG")


class BenchError(Exception):
    pass


def run_segment(workload: str, index: int, manifest_path: str, trace: bool,
                env: dict, log_path: str) -> dict:
    """Start one driver process; return its outcome plus its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "driver.py"), "--workload", workload,
           "--segment", str(index), "--manifest", manifest_path]
    if trace:
        cmd.append("--trace")
    with open(log_path, "a", encoding="utf-8") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                                cwd=ROOT, text=True)
        watchdog = threading.Timer(SEGMENT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"driver for {workload}[{index}] failed "
                         f"(exit {proc.returncode}); see {log_path}")
    outcome = json.loads(rest.strip().splitlines()[-1])
    outcome["setup_s"] = setup_s
    return outcome


def run_pass(workload: str, manifest_path: str, trace: bool, log_path: str) -> dict:
    """One pass over the workload: each segment in a fresh process."""
    result = {"wall_s": 0.0, "peak_rss_mib": 0.0, "setup_s": [], "jobs": [], "spans": []}
    for index, segment in enumerate(jobs.WORKLOADS[workload]):
        env = {k: v for k, v in os.environ.items() if k not in LZL_ENV}
        env.update(segment.env)
        env["PYTHONPATH"] = SRC
        out = run_segment(workload, index, manifest_path, trace, env, log_path)
        result["wall_s"] += sum(j["seconds"] for j in out["jobs"])
        result["peak_rss_mib"] = max(result["peak_rss_mib"], out["peak_rss_mib"])
        result["setup_s"].append(out["setup_s"])
        result["jobs"] += out["jobs"]
        # parent indices are per process; shift them into the merged list
        offset = len(result["spans"])
        for s in out["spans"]:
            if s[spans.PARENT] >= 0:
                s[spans.PARENT] += offset
        result["spans"] += out["spans"]
    return result


def tail_percentile(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in range(50, 100):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"n/a (needs >= 20 samples, have {n})"
    q = statistics.quantiles(values, n=100, method="inclusive")[best - 1]
    return f"p{best} = {q:.4f} s"


def job_times(passes: list[dict]) -> dict[str, list[float]]:
    """job id -> its time in every pass, in job-list order."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["id"], []).append(j["seconds"])
    return times


def tally(outcomes: list[dict]) -> tuple[int, int]:
    """(jobs that raised or exited non-zero, jobs judged wrong)."""
    failed = sum(1 for j in outcomes if j["error"] is not None)
    mismatches = sum(1 for j in outcomes if j["error"] is None and not j["ok"])
    return failed, mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Byte-compile up front, as an installed package would be, so that
    # set-up time and memory do not depend on PYTHONDONTWRITEBYTECODE or on
    # whether an earlier run left __pycache__ behind.
    for directory in (os.path.join(SRC, "lzl"), HERE):
        if not compileall.compile_dir(directory, quiet=1):
            raise BenchError(f"could not byte-compile {directory}")
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = inputs.write_inputs(seed, work)
        manifest_path = os.path.join(work, "inputs.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True)
        log_path = os.path.join(WORK, f"driver-{workload}-{seed}.log")
        open(log_path, "w").close()

        passes = []
        start = time.perf_counter()
        while True:
            # in a traced run, odd passes are traced and even ones are not
            passes.append(run_pass(workload, manifest_path, trace and len(passes) % 2 == 1,
                                   log_path))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if len(passes) >= 2 and elapsed + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [j for p in passes for j in p["jobs"]]
    failed, mismatches = tally(outcomes)
    summary = {
        "workload": workload,
        "seed": seed,
        "inputs": {k: v["sha256"] for k, v in manifest.items()},
        "attempted": len(outcomes),
        "failed": failed,
        "verdict_mismatches": mismatches,
        "bases": sorted({f"{j['id']}: {j['basis']}" for j in outcomes}),
        "job_seconds": {job: (statistics.median(times), min(times))
                        for job, times in job_times(passes).items()},
        "errors": sorted({f"{j['id']}: {j['error']}" for j in outcomes if j["error"]}),
        "passes": len(passes),
    }
    if trace:
        traced = [p for i, p in enumerate(passes) if i % 2 == 1]
        plain = [p for i, p in enumerate(passes) if i % 2 == 0]
        layers = spans.median_metrics([spans.layer_metrics(p["spans"]) for p in traced])
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1
        )
        summary["metrics"] = layers
        dump = os.path.join(WORK, f"trace-{workload}-{seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "work"],
                       "passes": [p["spans"] for p in traced]}, fh)
    else:
        dump = os.path.join(WORK, f"passes-{workload}-{seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump([{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mib")}
                       | {"jobs": {j["id"]: [j["seconds"], j["reference_s"]] for j in p["jobs"]}}
                       for p in passes], fh)
        walls = [p["wall_s"] for p in passes]
        # The reference loop runs after every job, so its mean time samples
        # the machine's speed across the same passes as the mean pass time.
        reference = statistics.mean(j["reference_s"] for j in outcomes)
        summary["metrics"] = {
            "norm_wall_s": statistics.mean(walls) * REFERENCE_NOMINAL_S / reference,
            "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        summary["also_shown"] = {
            "best_wall_s": sum(best for _, best in summary["job_seconds"].values()),
            "reference_s": reference,
            "wall_s": statistics.median(walls),
            "verdict_mismatches": mismatches,
            "failed_ratio": failed / len(outcomes),
        }
        summary["wall_tail"] = tail_percentile(walls)
    return summary


UNITS = {"peak_rss_mib": "MiB", "verdict_mismatches": "count", "failed_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "speedup_2w")):
        return "ratio"
    return "count"


def report(summary: dict) -> dict:
    """Print a readable table; return the result line's object."""
    metrics = summary["metrics"]
    shown = metrics | summary.get("also_shown", {})
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"passes {summary['passes']}  jobs {summary['attempted']}")
    for name, sha in summary["inputs"].items():
        print(f"  input {name:10s} sha256 {sha}")
    for line in summary["bases"]:
        print(f"  verdict basis  {line}")
    for job, (median, best) in summary["job_seconds"].items():
        print(f"  job {job:24s} median {median:.4f} s  best {best:.4f} s")
    for line in summary["errors"]:
        print(f"  ERROR {line}")
    for name, value in shown.items():
        print(f"  {name:26s} {value:14.6g} {unit_of(name)}")
    if "wall_tail" in summary:
        print(f"  wall_s tail: {summary['wall_tail']}")
    return {
        "correct": summary["verdict_mismatches"] == 0 and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    # On SIGTERM, unwind through run_segment's cleanup so no driver outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lzl", "cli.py")):
        print(f"error: no lzl sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(summary)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
