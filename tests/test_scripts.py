"""Smoke test: `scripts/family_windows.py` runs to completion and refuses what `lzl` refuses.

The script runs `lzl` commands in-process, so a renamed command, option or
report field breaks it; this runs it in a fresh interpreter with ``src`` on
the path and warnings turned into errors, and expects exit status 0 and
the rows that ``EXPECTED`` names for its spec.  A spec that `lzl` refuses
exits 2 with the script's usage line first and nothing on stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: rows the script must print for the one spec it is given
EXPECTED = {
    # n Delta H_V prox1 window zeta1 window: prox1 = 1 lies below the grid
    # window's lower end 2, which is why that rule starts at n = 4
    "grid:3": ["grid:3     9     4    3     1    1..2     2      1..4"],
    # the paper's grid window 4..7 and the verified sweep with m + 3 = 6 cops
    "grid:11": ["grid:11   121     4    -     -    4..7     -      4..7",
                "  grid-sweep: budget 6, cleared True, clear round 241, 256 rounds"],
    # T100 of the tree table, and both schedules verified on it
    "kary:3,3:sub100": ["kary:3,3:sub100  3940     4    3     -    1..?     -   ?..3939",
                        "  tree bounds: order 12, depth 77, levels 10",
                        "  tree-depth: budget 76, cleared True,",
                        "  tree-levels: budget 10, cleared True,"],
}


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "family_windows.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", [[spec] for spec in EXPECTED])
def test_script_exits_zero(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    for row in EXPECTED[argv[0]]:
        assert row in proc.stdout


def test_default_specs_each_get_a_row():
    proc = run_script()
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:] if not line.startswith(" ")]
    assert rows == [
        "path:4", "path:8", "cycle:5", "cycle:8", "complete:4", "complete:6",
        "spider:1,1,1,1,1,1", "spider:2,2,2", "spider:3,3,3",
        "grid:2", "grid:3", "kary:2,2",
        "grid:11", "grid:16", "grid:21", "grid:26",
        "kary:3,3", "kary:3,3:sub10", "kary:3,3:sub100",
    ]


def assert_refused(args):
    proc = run_script(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: family_windows.py [SPEC ...]\nerror: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ["2,8"],  # the old K,D form is no graph spec
    ["kary:2,x"],
    ["kary:2,3,1"],
    ["kary:2"],
    ["kary:2,3", "kary:3,2:sub-1"],  # a later refusal still comes before any row
])
def test_tree_survey_rejects_malformed_trees(args):
    assert_refused(args)


@pytest.mark.parametrize("args", [["grid:x"], ["grid:11", "grid:2.5"], ["grid:3:junk"], ["grid:-4"]])
def test_verify_grids_rejects_bad_sizes(args):
    assert_refused(args)
