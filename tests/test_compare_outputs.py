import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402
from compare_outputs import compare_workload, differing_files, first_differing_line  # noqa: E402


def test_differing_files_lists_changed_missing_and_extra_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "samples").mkdir(parents=True)
        (root / "report.json").write_text("{}\n")
        (root / "samples" / "same.json").write_text("1\n")
    (a / "samples" / "changed.json").write_text("1\n")
    (b / "samples" / "changed.json").write_text("2\n")
    (a / "samples" / "only_a.json").write_text("1\n")
    (b / "only_b.csv").write_text("x\n")
    assert differing_files(a, b) == ["only_b.csv", "samples/changed.json", "samples/only_a.json"]
    assert differing_files(a, a) == []


def test_first_differing_line_names_the_line_in_each_tree(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x,y\n1,2\n3,4\n")
    b.write_text("x,y\n1,2\n3,5\n")
    assert first_differing_line(a, b) == (3, "3,4", "3,5")
    b.write_text("x,y\n1,2\n3,4\n5,6\n")
    assert first_differing_line(a, b) == (4, "<end of file>", "5,6")
    assert first_differing_line(b, a) == (4, "5,6", "<end of file>")
    assert first_differing_line(a, a) is None
    b.write_bytes(b"\xff\xfe")  # not UTF-8: no line to show
    assert first_differing_line(a, b) is None


@pytest.mark.parametrize(
    "parent_run, change_run, failed",
    [
        ((0, True), (0, True), False),
        ((1, False), (1, False), True),  # both crash: no file to compare
        ((0, False), (0, False), True),  # both exit 0 but write no report
        ((1, True), (1, True), True),  # equal outputs of a partial failure
        ((0, True), (2, False), True),
    ],
)
def test_a_failed_run_fails_the_comparison(tmp_path, monkeypatch, parent_run, change_run, failed):
    outcomes = {"parent_src": parent_run, "change_src": change_run}

    def run_tree(src, config, out):
        code, writes_report = outcomes[src.name]
        out.mkdir(parents=True)
        if writes_report:
            (out / "report.json").write_text("{}\n")
        return code

    monkeypatch.setattr(compare_outputs, "run_tree", run_tree)
    config, work = tmp_path / "config.json", tmp_path / "work"
    parent, change = tmp_path / "parent_src", tmp_path / "change_src"
    assert compare_workload("w", config, work, parent, change) is failed
