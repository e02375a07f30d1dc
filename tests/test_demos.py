"""Each narrative demo runs to completion with nothing on stderr, and the
demos that print a check print it passing."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bbgroups
from bbgroups import BBContext, InsertMove, RotateMove, apply_move_to_cycle, parse_graph_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_kernel_presentations_demo_verifies_every_relator():
    out = run_demo(ROOT / "demos" / "03_kernel_presentations.py").stdout
    (checked,) = re.findall(r"^verified (\d+)/(\d+) relators$", out, re.M)
    assert checked[0] == checked[1] != "0"


def test_homotopy_moves_demo_prints_moves_that_replay():
    out = run_demo(ROOT / "demos" / "04_homotopy_moves.py").stdout
    assert "replay reaches the target: True\n" in out
    printed = out.split("search result (None would mean: unknown within budget):\n")[1]
    printed = printed.split("replay reaches the target:")[0].splitlines()
    # Each line is a move's dataclass repr; rebuild it from the public names.
    moves = [eval(line.strip(), dict(vars(bbgroups))) for line in printed]
    assert moves
    k3 = parse_graph_text("vertices: a b c\nedges: a-b b-c a-c\n")
    ctx = BBContext(k3)
    triangle = k3.directed_cycle(["a", "b", "c"])
    target = apply_move_to_cycle(triangle, InsertMove(0, k3.directed_edge("a", "c")), ctx)
    target = apply_move_to_cycle(target, RotateMove(1), ctx)
    current = triangle
    for move in moves:
        current = apply_move_to_cycle(current, move, ctx)
    assert current == target
