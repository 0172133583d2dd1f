"""Whole `report` sections and exit codes of `strat`, `zeta simulate` and
`table`, pinned byte for byte.

`golden_strat_reports.json` maps each command line below to the exit code
of `lzl <command>` and the `report` it prints, or null when it prints none
(a usage error or a size cap).  A change to a strategy's budget or rounds,
to the simulator's verdict or escape path, or to the tree bound table shows
up here as a diff of that file.
"""

import json
import shlex
from pathlib import Path

import pytest

from lzl.cli import main
from lzl.strategies import STRATEGY_REGISTRY
from lzl.zeta import POLICY_REGISTRY

GOLDEN = Path(__file__).with_name("golden_strat_reports.json")

COMMANDS = [
    f"strat {name} --graph {graph}"
    for graph in ("path:9", "cycle:6", "spider:3,3,3", "kary:2,3", "kary:3,3:sub10")
    for name in STRATEGY_REGISTRY
] + [
    f"strat grid-sweep --n {n}" for n in (11, 16)
] + [
    f"zeta simulate --graph spider:3,3,3 --policy {policy}" for policy in POLICY_REGISTRY
] + [
    "table tab1",
]


def run(capsys, command: str) -> dict:
    """Exit code and report of one command; stdout is one JSON document or empty."""
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    return {"exit": code, "report": json.loads(out)["report"] if out else None}


def test_golden_file_lists_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(capsys, command):
    expected = json.loads(GOLDEN.read_text())[command]
    got = run(capsys, command)
    assert got["exit"] == expected["exit"]
    assert json.dumps(got["report"], sort_keys=True, indent=2) == json.dumps(
        expected["report"], sort_keys=True, indent=2
    )
