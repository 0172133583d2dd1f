"""The README's CLI block, run top to bottom as real processes.

Each `lzl` line of the block runs as `python -m lzl ...` in one empty
directory, in order, so a line that reads a file an earlier line writes
must come after it.  This also checks `__main__.py`, the exit code a
real process returns, and that its stdout is one JSON document.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_lines() -> list[list[str]]:
    """The argv after `lzl` of every line in the first sh block under "## CLI"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("lzl ")]


def lzl(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "lzl", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )


def test_readme_cli_block_runs_in_order(tmp_path):
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for argv in lines:
        proc = lzl(argv, tmp_path)
        # the README shows arm-scan losing: the robber escapes the spider
        escapes = "arm-scan" in argv
        assert proc.returncode == (1 if escapes else 0), (argv, proc.stderr)
        report = json.loads(proc.stdout)["report"]  # stdout is one JSON document
        if escapes:
            assert report["results"]["outcome"] == "escape-witness"


@pytest.mark.parametrize("argv,code", [
    (["gen", "--graph", "foo:3"], 2),
    (["zeta", "solve", "--graph", "grid:4"], 3),
])
def test_process_exit_codes(tmp_path, argv, code):
    proc = lzl(argv, tmp_path)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
