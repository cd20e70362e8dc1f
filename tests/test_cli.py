import json
import os
import subprocess
import sys
from pathlib import Path

import satplan
from satplan import Instance, Request, VarRef, load_instance, save_instance
from satplan.cli import main


def write_source(tmp_path):
    src = Instance(
        name="source",
        requests=tuple(
            Request(
                id=i,
                kind="mono",
                weight=float(i + 1),
                allowed_cameras=(1, 2),
                capacity_by_camera={1: i % 3},
            )
            for i in range(6)
        ),
        ternary_forbidden=frozenset(
            {
                (VarRef(0, 1), VarRef(2, 1), VarRef(4, 1)),
                (VarRef(1, 2), VarRef(3, 2), VarRef(5, 2)),
            }
        ),
    )
    path = tmp_path / "source.json"
    save_instance(src, path)
    return path


def test_generate_and_encode(tmp_path, capsys):
    src = write_source(tmp_path)
    out = tmp_path / "reduced.json"
    assert main(["generate", str(src), "-o", str(out), "--target", "3", "--seed", "1"]) == 0
    inst = load_instance(out)
    assert len(inst.requests) >= 3
    assert "seed1" in inst.name

    qubo_out = tmp_path / "qubo.json"
    assert main(["encode", str(out), "-o", str(qubo_out)]) == 0
    doc = json.loads(qubo_out.read_text())
    assert {"n", "s", "offset", "m", "terms"} <= set(doc)


def test_solve_one_cell(tmp_path):
    src = write_source(tmp_path)
    out = tmp_path / "cell.json"
    code = main(
        ["solve", str(src), "--solver", "exhaustive", "--reads", "50", "-o", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["proven_optimal"] is True
    assert doc["metrics"]["best_ar"] == 1.0
    assert doc["samples"]["reads"] == 50


def test_run_and_report(tmp_path, capsys):
    src = write_source(tmp_path)
    config = {
        "instances": [
            {"source": str(src), "target_requests": 3, "with_capacity": False, "seed": 4}
        ],
        "solvers": ["exhaustive", "sa"],
        "reads": 40,
        "runs": 2,
        "master_seed": 9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "-o", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "results.csv").exists()

    report_dir = tmp_path / "plots"
    assert main(["report", str(out_dir / "report.json"), "-o", str(report_dir)]) == 0
    header = (report_dir / "expected_ar.csv").read_text().splitlines()[0]
    assert header == "instance,exhaustive,exhaustive_ci95,sa,sa_ci95"


def test_flag_overrides_beat_config(tmp_path):
    src = write_source(tmp_path)
    config = {
        "instances": [str(src)],
        "solvers": ["exact"],
        "reads": 40,
        "runs": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "-o", str(out_dir), "--reads", "7"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["reads"] == 7


def test_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"instances": [], "solvers": ["sa"]}))
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
    assert main(["run", str(tmp_path / "missing.json"), "-o", str(tmp_path / "o")]) == 2


def test_partial_failure_exit_code(tmp_path):
    src = write_source(tmp_path)
    config = {
        "instances": [str(src), str(tmp_path / "missing-instance.json")],
        "solvers": ["exact"],
        "reads": 5,
        "runs": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 1


def test_cli_import_skips_scipy_stats():
    # scipy.stats adds over a second of import time and nothing needs it
    env = dict(os.environ, PYTHONPATH=str(Path(satplan.__file__).parents[1]))
    code = "import sys, satplan.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
