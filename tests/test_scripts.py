"""Smoke test: each script under ``scripts/`` runs to completion on a small input.

The scripts import the public API, so a renamed or retyped entry point
breaks them; this runs each one in a fresh interpreter with ``src`` on the
path and warnings turned into errors, and expects exit status 0, plus the
output fragment that ``EXPECTED`` names for it, if any.  A malformed
argument exits 2 with the usage line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


#: what a script must print on its input below, where the test checks output
EXPECTED = {
    # kary(2,3): h_V = 2 and Delta = 3, so prox1 > 2/4
    "tree_bound_survey.py": "h_V 2, prox1 >= 1 (h-index-vertex)",
    # grid3: n Delta prox1 zeta1 H_V h-bound lift
    "solve_small.py": "grid3   9     4     1     2    3       1     4",
}


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["solve_small.py"],
    ["verify_grids.py", "11"],
    ["tree_bound_survey.py", "2,3"],
])
def test_script_exits_zero(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED.get(argv[0], "") in proc.stdout


@pytest.mark.parametrize("args", [
    ["2", "8", "3", "6"],  # the old k d sub grouping: "2" is not K,D
    ["2,x"],
    ["2,3,1,1"],
    ["2,0"],
    ["2,3", "3,2,-1"],
])
def test_tree_survey_rejects_malformed_trees(args):
    proc = run_script(["tree_bound_survey.py", *args])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: tree_bound_survey.py")
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [["x"], ["11", "2.5"], ["1"], ["-4"]])
def test_verify_grids_rejects_bad_sizes(args):
    proc = run_script(["verify_grids.py", *args])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: verify_grids.py")
    assert proc.stdout == ""
