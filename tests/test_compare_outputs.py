import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from compare_outputs import differing_files  # noqa: E402


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
