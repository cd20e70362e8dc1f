"""Smoke tests: every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # demo 05 writes its outputs to a temporary directory
    # the suite's RuntimeWarning filter, which a subprocess does not inherit
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


# demo 01 prints the node count of its hand-built instance's plain
# depth-first tree, which replaying repeated subtrees must not change
@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_instances_and_exact_solving.py", "(proven=True, 19 nodes)"),
        ("02_qubo_encoding.py", ""),
        ("03_simulated_annealing.py", "across runs: expected AR"),
        ("04_qaoa_layers.py", "depth 8 vs depth 1"),
        ("05_full_benchmark.py", "pipeline finished with exit code 0"),
    ],
)
def test_demo_runs(name, expected, tmp_path):
    result = _run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
    assert not any(tmp_path.iterdir())  # no demo leaves files in the temporary directory
