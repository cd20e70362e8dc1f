"""Smoke tests: the quick demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


# demo 01 prints the node count of its hand-built instance's plain
# depth-first tree, which replaying repeated subtrees must not change
@pytest.mark.parametrize(
    "name, expected",
    [("01_instances_and_exact_solving.py", "(proven=True, 19 nodes)"), ("02_qubo_encoding.py", "")],
)
def test_demo_runs(name, expected):
    result = _run_demo(name)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
