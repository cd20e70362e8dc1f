"""Compare the ``satplan run`` outputs of two source trees, file by file.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N]

For each benchmark workload, the config and source instances are written
once with ``benchmark/workloads.write_inputs`` (importing the package from
PARENT_SRC), then ``satplan run`` runs that config once from each tree, in a
fresh interpreter with ``PYTHONPATH`` set to the tree.  Every file of the two
output directories (report.json, results.csv, the plot CSVs and every sample
file) is compared byte for byte.  Each differing, missing or extra file is
listed, a differing text file with its first differing line from each tree.
A run fails when it exits non-zero or writes no report.json.  The exit code
is 1 on any difference or failed run, on either side, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
_SHOWN = 200  # characters printed of each differing line


def run_tree(src: Path, config: Path, out: Path) -> int:
    """Exit code of ``satplan run config -o out`` with the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "satplan.cli", "run", str(config), "-o", str(out)]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between trees ``a`` and ``b``
    or exist in only one of them, sorted."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(rel)
        for rel in files_a | files_b
        if rel not in files_a
        or rel not in files_b
        or (a / rel).read_bytes() != (b / rel).read_bytes()
    )


def first_differing_line(a: Path, b: Path) -> tuple[int, str, str] | None:
    """(1-based line number, line in ``a``, line in ``b``) of the first line
    where text files ``a`` and ``b`` differ, "<end of file>" standing in for
    the line of the shorter file; None when either file is not UTF-8 text or
    their lines are equal."""
    try:
        lines_a = a.read_text(encoding="utf-8").splitlines(keepends=True)
        lines_b = b.read_text(encoding="utf-8").splitlines(keepends=True)
    except UnicodeDecodeError:
        return None
    end = ["<end of file>"]
    for number, (line_a, line_b) in enumerate(zip(lines_a + end, lines_b + end), 1):
        if line_a != line_b:
            return number, line_a.rstrip("\n"), line_b.rstrip("\n")
    return None


def compare_workload(name: str, config: Path, work: Path, parent: Path, change: Path) -> bool:
    """Run ``config`` from the ``parent`` and ``change`` source trees into
    ``work``/parent and ``work``/change and print each failed run and each
    differing file; True when a run failed or a file differs."""
    failed = False
    for side, src in (("parent", parent), ("change", change)):
        code = run_tree(src, config, work / side)
        if code != 0:
            print(f"{name}: satplan run from the {side} tree exited with {code}")
        elif not (work / side / "report.json").is_file():
            print(f"{name}: satplan run from the {side} tree wrote no report.json")
        else:
            continue
        failed = True
    diffs = differing_files(work / "parent", work / "change")
    for rel in diffs:
        print(f"{name}: {rel} differs")
        a, b = work / "parent" / rel, work / "change" / rel
        line = first_differing_line(a, b) if a.is_file() and b.is_file() else None
        if line is not None:
            number, line_a, line_b = line
            print(f"  line {number} parent: {line_a[:_SHOWN]}")
            print(f"  line {number} change: {line_b[:_SHOWN]}")
    count = sum(1 for p in (work / "parent").rglob("*") if p.is_file())
    print(f"{name}: {count} files compared, {len(diffs)} differ")
    return failed or bool(diffs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)
    parent, change = args.parent_src.resolve(), args.change_src.resolve()
    for src in (parent, change):
        if not (src / "satplan" / "__init__.py").is_file():
            parser.error(f"no satplan package under {src}")

    sys.path[:0] = [str(parent), str(BENCHMARK)]
    from workloads import WORKLOADS, write_inputs

    failed = False
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for name in WORKLOADS:
            work = Path(tmp) / name
            config, _, _ = write_inputs(name, args.seed, work)
            failed |= compare_workload(name, config, work, parent, change)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
