import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satplan
from satplan import Instance, Request, VarRef, load_instance, save_instance
from satplan.bench import cell_seed
from satplan.cli import main
from helpers import probe_instance


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


@pytest.mark.parametrize("penalty", ["-1", "0", "nan", "inf"])
def test_encode_rejects_bad_penalty(tmp_path, capsys, penalty):
    src = write_source(tmp_path)
    out = tmp_path / "qubo.json"
    assert main(["encode", str(src), "-o", str(out), "--penalty", penalty]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: penalty magnitude must be positive and finite, got ")
    assert not out.exists()


def write_capacity_instance(tmp_path):
    """Three one-camera requests of loads 1, 2 and 3 on a disk of 3."""
    inst = Instance(
        name="cap3",
        requests=tuple(
            Request(
                id=i, kind="mono", weight=float(i + 1), allowed_cameras=(1,),
                capacity_by_camera={1: i + 1},
            )
            for i in range(3)
        ),
        disk_capacity=3,
    )
    path = tmp_path / "cap3.json"
    save_instance(inst, path)
    return path


@pytest.mark.parametrize(
    "command",
    [["encode"], ["solve", "--solver", "exhaustive"], ["solve", "--solver", "sa"],
     ["solve", "--solver", "exact"]],
    ids=["encode", "exhaustive", "sa", "exact"],
)
def test_a_penalty_that_overflows_the_energies_exits_2(tmp_path, capsys, command):
    path = write_capacity_instance(tmp_path)
    out = tmp_path / "out.json"
    argv = [command[0], str(path), *command[1:], "-o", str(out), "--penalty", "1e308"]
    assert main(argv) == 2
    assert "1e+308 takes energies past the largest float" in capsys.readouterr().err
    assert not out.exists()


def test_a_penalty_that_overflows_the_energies_fails_only_its_instance(tmp_path):
    # M enters no term of a lone one-camera request, so 1e308 encodes it
    lone = Instance(
        name="lone", requests=(Request(id=0, kind="mono", weight=2.0, allowed_cameras=(1,)),)
    )
    save_instance(lone, tmp_path / "lone.json")
    config = tmp_path / "config.json"
    entries = [str(write_capacity_instance(tmp_path)), str(tmp_path / "lone.json")]
    config.write_text(json.dumps({"instances": entries, "solvers": ["sa", "exact"], "runs": 1}))
    out = tmp_path / "out"
    assert main(["run", str(config), "-o", str(out), "--penalty", "1e308", "--reads", "20"]) == 1
    overflowed, fine = json.loads((out / "report.json").read_text())["instances"]
    assert "past the largest float" in overflowed["error"]
    assert fine["error"] is None
    for solver in ("sa", "exact"):
        assert fine["solvers"][solver]["runs"][0]["best_ar"] == 1.0


BIG = 10**400  # an integer literal past the largest float


@pytest.mark.parametrize(
    "field, error",
    [
        ("weight", "requests[0]: weight must be finite and >= 0"),
        ("disk_capacity", "a disk capacity or load exceeds the largest float"),
        ("capacity", "a disk capacity or load exceeds the largest float"),
    ],
)
@pytest.mark.parametrize(
    "command", [["encode"], ["solve", "--solver", "exact"]], ids=["encode", "solve"]
)
def test_integers_past_the_largest_float_exit_2(tmp_path, capsys, field, error, command):
    request = {"id": 0, "kind": "mono", "weight": 2, "allowed_cameras": [1, 2],
               "capacity_by_camera": {"1": 1}}
    doc = {"name": "big", "requests": [request], "binary_forbidden": [],
           "ternary_forbidden": [], "disk_capacity": 3}
    if field == "capacity":
        request["capacity_by_camera"]["1"] = BIG
    elif field == "weight":
        request["weight"] = BIG
    else:
        doc[field] = BIG
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([command[0], str(path), *command[1:], "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_rejects_loads_past_int64(tmp_path, capsys):
    # a load of 2^63 is one past int64 but below the largest float
    request = {"id": 0, "kind": "mono", "weight": 2, "allowed_cameras": [1, 2],
               "capacity_by_camera": {"1": 2**63}}
    doc = {"name": "big", "requests": [request], "binary_forbidden": [],
           "ternary_forbidden": [], "disk_capacity": 2**64}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["solve", str(path), "--solver", "exact", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "loads sum past 2^63 - 1" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def save_wide(tmp_path, n_requests, weight=1.0):
    """``n_requests`` unconstrained one-camera requests: one variable each."""
    inst = Instance(
        name=f"wide{n_requests}",
        requests=tuple(
            Request(id=i, kind="mono", weight=weight, allowed_cameras=(1,))
            for i in range(n_requests)
        ),
    )
    path = tmp_path / f"wide{n_requests}.json"
    save_instance(inst, path)
    return path


def run_report(tmp_path, config, *flags):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code = main(["run", str(cfg_path), "-o", str(out_dir), *flags])
    return code, json.loads((out_dir / "report.json").read_text())


def test_solve_defaults_come_from_the_config(tmp_path):
    src = write_source(tmp_path)
    out = tmp_path / "cell.json"
    assert main(["solve", str(src), "--solver", "exact", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reads"] == doc["samples"]["reads"] == 2000
    assert doc["seed"] == cell_seed(0, 0, "exact", 0)


@pytest.mark.parametrize("solver, n_requests", [("exhaustive", 25), ("qaoa", 27)])
def test_solve_past_size_limit_exits_2(tmp_path, capsys, solver, n_requests):
    path = save_wide(tmp_path, n_requests)
    assert main(["solve", str(path), "--solver", solver]) == 2
    err = capsys.readouterr().err
    code, report = run_report(tmp_path, {"instances": [str(path)], "solvers": [solver]})
    assert code == 0
    skipped = report["instances"][0]["solvers"][solver]["skipped"]
    assert skipped.startswith(f"{n_requests} ")
    assert err == f"error: {skipped}\n"


def test_solve_non_positive_optimum_exits_2(tmp_path, capsys):
    path = save_wide(tmp_path, 2, weight=0.0)
    assert main(["solve", str(path), "--solver", "sa"]) == 2
    err = capsys.readouterr().err
    code, report = run_report(tmp_path, {"instances": [str(path)], "solvers": ["sa"]})
    assert code == 1
    assert "non-positive optimum" in report["instances"][0]["error"]
    assert err == f"error: {report['instances'][0]['error']}\n"


def test_node_budget_out_before_an_incumbent_is_named(tmp_path, capsys, monkeypatch):
    # two nodes end the search before its first leaf; the optimum is positive
    path = tmp_path / "probe.json"
    save_instance(probe_instance(), path)
    config = {"instances": [str(path)], "solvers": ["sa"], "node_budget": 2}
    code, report = run_report(tmp_path, config)
    assert code == 1
    assert report["instances"][0]["error"] == (
        "instance 'probe': node budget 2 ran out before an incumbent was found; AR undefined"
    )
    capsys.readouterr()
    # solve has no budget flag: its search gets the same two nodes
    search = satplan.bench.solve_exact
    monkeypatch.setattr(satplan.bench, "solve_exact", lambda inst, budget: search(inst, 2))
    assert main(["solve", str(path), "--solver", "sa"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance 'probe': node budget ")
    assert err.endswith(" ran out before an incumbent was found; AR undefined\n")


def test_solve_exact_on_ids_out_of_file_order_scores_one(tmp_path):
    path = tmp_path / "probe.json"
    save_instance(probe_instance(), path)
    out = tmp_path / "cell.json"
    assert main(["solve", str(path), "--solver", "exact", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["f_max"] == 0.9999999999999999
    assert doc["metrics"]["expected_ar"] == doc["metrics"]["best_ar"] == 1.0


@pytest.mark.parametrize("solver", ["exact", "sa", "qaoa", "exhaustive"])
def test_solve_is_one_cell_of_run(tmp_path, solver):
    src = write_source(tmp_path)
    flags = ["--reads", "60", "--max-layers", "2", "--n-inits", "1"]
    out = tmp_path / "cell.json"
    argv = ["solve", str(src), "--solver", solver, "--seed", "13", "-o", str(out), *flags]
    assert main(argv) == 0
    cell = json.loads(out.read_text())
    config = {"instances": [str(src)], "solvers": [solver], "runs": 1, "master_seed": 13}
    code, report = run_report(tmp_path, config, *flags)
    assert code == 0
    (run,) = report["instances"][0]["solvers"][solver]["runs"]
    assert run["seed"] == cell["seed"]
    assert {key: run[key] for key in cell["metrics"]} == cell["metrics"]
    assert run.get("layers") == cell.get("layers")
    assert (solver == "qaoa") == ("layers" in cell)
    schedule = ("sweeps", "beta_start", "beta_end", "precision")
    assert {key: run.get(key) for key in schedule} == {key: cell.get(key) for key in schedule}
    assert (solver == "sa") == ("precision" in cell)
    samples = tmp_path / "out" / "samples" / f"source__{solver}__run0.json"
    assert json.loads(samples.read_text()) == cell["samples"]


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
    assert header == "instance,exhaustive,exhaustive_ci95,sa,sa_ci95,proven_optimal"


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
    src = write_source(tmp_path)
    for field, value in [("runs", 2.5), ("master_seed", 1.5), ("master_seed", -1)]:
        cfg_path.write_text(json.dumps({"instances": [str(src)], "solvers": ["sa"], field: value}))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "o")]) == 2
        assert f"error: {field} must be an integer" in capsys.readouterr().err
    assert main(["solve", str(src), "--solver", "sa", "--seed", "-1"]) == 2
    assert "error: master_seed must be an integer >= 0" in capsys.readouterr().err


def test_report_rejects_unreadable_input(tmp_path, capsys):
    inputs = {
        "missing.json": None,
        "malformed.json": "{bad",
        "list.json": "[1, 2]",
        "partial.json": json.dumps({"solvers": ["sa"]}),
        "scalar-solvers.json": json.dumps({"solvers": 5, "instances": []}),
        "scalar-instance.json": json.dumps({"solvers": ["sa"], "instances": [1]}),
        "bare-instance.json": json.dumps({"solvers": ["sa"], "instances": [{"solvers": 3}]}),
    }
    for name, text in inputs.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["report", str(path), "-o", str(tmp_path / "plots")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read report {path}: ")
    assert not list(tmp_path.glob("plots/*.csv"))


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
    # scipy.stats adds over a second of import time and nothing needs it;
    # nothing imports scipy.optimize, and scipy.special is imported where
    # it is first used
    env = dict(os.environ, PYTHONPATH=str(Path(satplan.__file__).parents[1]))
    heavy = ("scipy.stats", "scipy.optimize", "scipy.special")
    code = f"import sys, satplan.cli; sys.exit(any(m in sys.modules for m in {heavy!r}))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_qaoa_solve_skips_scipy_optimize(tmp_path):
    # Powell's method runs in satplan.qaoa: importing scipy.optimize would
    # add about 47 MB and half a second to every QAOA run
    path = tmp_path / "tiny.json"
    requests = tuple(
        Request(id=i, kind="mono", weight=float(i + 1), allowed_cameras=(1,)) for i in range(3)
    )
    save_instance(Instance(name="tiny", requests=requests), path)
    out = tmp_path / "cell.json"
    argv = ["solve", str(path), "--solver", "qaoa", "--reads", "20", "--max-layers", "2",
            "--n-inits", "1", "-o", str(out)]
    code = (
        "import sys; from satplan.cli import main; code = main(%r); "
        "sys.exit(code or 3 * ('scipy.optimize' in sys.modules))" % argv
    )
    env = dict(os.environ, PYTHONPATH=str(Path(satplan.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    assert "layers" in json.loads(out.read_text())
