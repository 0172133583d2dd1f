"""Whole `report` sections of `bounds` and `iso`, pinned byte for byte.

`golden_reports.json` maps each command line below to the `report` that
`lzl <command>` prints.  A change to a bound rule, a profile or a report
field shows up here as a diff of that file.
"""

import json
import shlex
from pathlib import Path

import pytest

from lzl.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

COMMANDS = [
    f"bounds --graph {graph}{solve}"
    for graph in ("grid:3", "grid:5", "cycle:9", "spider:3,3,3", "kary:2,8", "complete:5")
    for solve in ("", " --solve")
] + [
    # K2: Delta = 1 = prox1, so large-proximity-equality and tree-degree-equality fire
    "bounds --graph path:2 --solve",
    # C9 is C4-free with domination number 3 and Delta = 2: domination-c4free gives 5
    "bounds --graph cycle:9 --domination",
] + [
    f"iso --graph {graph} --mode {mode} --peak --h-index"
    for graph in ("grid:4", "kary:2,8")
    for mode in ("vertex", "edge")
]


def report_text(capsys, command: str) -> str:
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    return json.dumps(json.loads(out)["report"], sort_keys=True, indent=2)


def test_golden_file_lists_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(capsys, command):
    expected = json.loads(GOLDEN.read_text())[command]
    assert report_text(capsys, command) == json.dumps(expected, sort_keys=True, indent=2)
