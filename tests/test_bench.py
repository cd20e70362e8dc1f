import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from satplan import (
    AnnealSchedule,
    Instance,
    Request,
    SampleEntry,
    VarRef,
    encode,
    load_instance,
    save_instance,
    solve_exact,
)
from helpers import bit_rows, encode_checked, probe_instance, random_instance
from satplan.anneal import anneal_settings
from satplan.bench import (
    ConfigError,
    ExperimentConfig,
    cell_seed,
    emit_plot_data,
    resolve_instance,
    run_cell,
    run_pipeline,
    samples_json,
)


def tiny_instance(name="tiny3"):
    pair = (VarRef(0, 1), VarRef(1, 1))
    return Instance(
        name=name,
        requests=(
            Request(id=0, kind="mono", weight=2.0, allowed_cameras=(1,)),
            Request(id=1, kind="mono", weight=3.0, allowed_cameras=(1, 2)),
            Request(id=2, kind="stereo", weight=1.0, allowed_cameras=(4,)),
        ),
        binary_forbidden=frozenset({pair}),
    )


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "tiny3.json"
    save_instance(tiny_instance(), path)
    return str(path)


def test_exhaustive_pipeline_scores_one(instance_file, tmp_path):
    cfg = ExperimentConfig(
        instances=[instance_file], solvers=["exhaustive"], reads=100, runs=1
    )
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    cell = report["instances"][0]["solvers"]["exhaustive"]
    assert cell["runs"][0]["expected_ar"] == 1.0
    assert cell["runs"][0]["best_ar"] == 1.0
    assert cell["aggregate"] is None  # single run: no CI
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    assert "aggregate" not in csv_text


def test_proven_optimum_scores_exactly_one_with_ids_out_of_file_order(tmp_path):
    # the scorer adds the weights in the search's order: 0.9999999999999999
    # over itself is 1.0, not 1.0 / 0.9999999999999999
    path = tmp_path / "probe.json"
    save_instance(probe_instance(), path)
    solvers = ["exact", "exhaustive", "sa"]
    cfg = ExperimentConfig(instances=[str(path)], solvers=solvers, reads=50, runs=2)
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    record = report["instances"][0]
    assert record["f_max"] == 0.9999999999999999 and record["proven_optimal"]
    for solver in solvers:
        cell = record["solvers"][solver]
        assert cell["aggregate"]["mean_expected_ar"] == cell["aggregate"]["mean_best_ar"] == 1.0
        for run in cell["runs"]:
            assert run["expected_ar"] == run["best_ar"] == 1.0


def test_pipeline_is_deterministic(instance_file, tmp_path):
    cfg = dict(
        instances=[instance_file],
        solvers=["exact", "sa"],
        reads=50,
        runs=3,
        master_seed=7,
    )
    _, code_a = run_pipeline(ExperimentConfig(**cfg), tmp_path / "a")
    _, code_b = run_pipeline(ExperimentConfig(**cfg), tmp_path / "b")
    assert code_a == code_b == 0
    samples = sorted(f"samples/{p.name}" for p in (tmp_path / "a" / "samples").iterdir())
    assert samples == sorted(f"samples/{p.name}" for p in (tmp_path / "b" / "samples").iterdir())
    assert len(samples) == 2 * 3  # two solvers, three runs
    for name in ("results.csv", "report.json", "expected_ar.csv", "best_ar.csv", *samples):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sa_runs_record_their_schedule(instance_file, tmp_path):
    cfg = ExperimentConfig(instances=[instance_file], solvers=["sa"], reads=20, runs=2)
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    q = encode(tiny_instance())
    beta_start, beta_end, precision, _ = anneal_settings(q)
    assert precision == "float32"
    for doc in report["instances"][0]["solvers"]["sa"]["runs"]:
        assert (doc["sweeps"], doc["beta_start"], doc["beta_end"], doc["precision"]) == (
            AnnealSchedule().sweeps, beta_start, beta_end, precision,
        )


def test_traced_flip_attempts_count_one_chain_per_read(instance_file, tmp_path, monkeypatch):
    """The benchmark's tracer counts reads x sweeps x variables flip
    attempts per ``sample_sa`` call: each read is one chain."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    import tracing

    cfg = ExperimentConfig(instances=[instance_file], solvers=["exact", "sa"], reads=20, runs=2)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        _, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    metrics = tracing.layer_metrics(tracer)
    calls, variables = metrics["anneal.sa_calls"], encode(tiny_instance()).num_variables
    assert calls == 2
    assert metrics["anneal.flip_attempts"] == calls * 20 * AnnealSchedule().sweeps * variables


def test_aggregate_rows_with_ci(instance_file, tmp_path):
    cfg = ExperimentConfig(
        instances=[instance_file], solvers=["exact"], reads=10, runs=5, master_seed=1
    )
    report, _ = run_pipeline(cfg, tmp_path / "out")
    agg = report["instances"][0]["solvers"]["exact"]["aggregate"]
    assert agg["runs"] == 5
    assert agg["mean_expected_ar"] == 1.0
    assert agg["ci95_expected"] == 0.0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    agg_rows = [l for l in lines if ",aggregate," in l]
    assert len(agg_rows) == 1
    assert agg_rows[0].split(",")[5] != ""  # CI column populated


def test_results_csv_flags_unproven_optimum(instance_file, tmp_path):
    # four nodes reach the search's first leaf: an incumbent but no proof
    for budget, flag in ((4, "false"), (1000, "true")):
        cfg = ExperimentConfig(
            instances=[instance_file], solvers=["exact"], reads=10, runs=2, node_budget=budget
        )
        report, code = run_pipeline(cfg, tmp_path / str(budget))
        assert code == 0
        assert report["instances"][0]["proven_optimal"] is (flag == "true")
        header, *rows = (tmp_path / str(budget) / "results.csv").read_text().splitlines()
        assert header.split(",")[5:] == ["ci95_expected", "ci95_best", "proven_optimal"]
        assert len(rows) == 3  # two runs and the aggregate
        assert all(row.split(",")[-1] == flag for row in rows)
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
        # the plot tables carry the same flag as their last column
        for name in ("expected_ar.csv", "best_ar.csv"):
            header, row = (tmp_path / str(budget) / name).read_text().splitlines()
            assert header.endswith(",proven_optimal")
            assert row.split(",")[-1] == flag


def test_emit_plot_data_layout(instance_file, tmp_path):
    other = tiny_instance("zz-bigger")
    bigger = Instance(
        name=other.name,
        requests=other.requests
        + (Request(id=3, kind="mono", weight=1.0, allowed_cameras=(2,)),),
        binary_forbidden=other.binary_forbidden,
    )
    bigger_path = tmp_path / "bigger.json"
    save_instance(bigger, bigger_path)
    cfg = ExperimentConfig(
        instances=[str(bigger_path), instance_file],
        solvers=["exhaustive", "exact"],
        reads=10,
        runs=2,
        master_seed=3,
    )
    report, _ = run_pipeline(cfg, tmp_path / "out")
    expected_csv, best_csv = emit_plot_data(report)
    header, *rows = expected_csv.strip().splitlines()
    assert header == "instance,exhaustive,exhaustive_ci95,exact,exact_ci95,proven_optimal"
    assert len(rows) == 2
    # ordered by request count: tiny3 (3 requests) before zz-bigger (4)
    assert rows[0].startswith("tiny3,")
    assert rows[1].startswith("zz-bigger,")
    assert all(row.endswith(",true") for row in rows)
    assert best_csv.splitlines()[0] == header


def test_emit_plot_data_empty_report():
    expected_csv, best_csv = emit_plot_data({"solvers": ["sa"], "instances": []})
    assert expected_csv == "instance,sa,sa_ci95,proven_optimal\n"
    assert best_csv == "instance,sa,sa_ci95,proven_optimal\n"


def test_csv_files_quote_names_with_commas_and_quotes(tmp_path):
    name = 'pass,"42"'
    path = tmp_path / "quoted.json"
    save_instance(tiny_instance(name), path)
    cfg = ExperimentConfig(
        instances=[str(path)], solvers=["exact", "exhaustive"], reads=10, runs=2
    )
    _, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    # two runs and the aggregate per solver; one instance row per plot table
    for csv_name, rows_wanted in (("results.csv", 6), ("expected_ar.csv", 1), ("best_ar.csv", 1)):
        with open(tmp_path / "out" / csv_name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == rows_wanted
        assert all(len(row) == len(header) and row[0] == name for row in rows)


@pytest.mark.parametrize(
    "names", [("p/1", "p_1"), ("tiny3", "tiny3")], ids=["same-file-name", "listed-twice"]
)
def test_colliding_sample_files_fail_the_later_instance(names, tmp_path):
    # "p/1" and "p_1" give the same sample file names; so does one file listed twice
    paths = []
    for k, name in enumerate(names):
        paths.append(tmp_path / f"inst{k}.json")
        save_instance(tiny_instance(name), paths[k])
    if names[0] == names[1]:
        paths[1] = paths[0]
    cfg = ExperimentConfig(instances=[str(p) for p in paths], solvers=["exact"], reads=10, runs=1)
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 1
    first, second = report["instances"]
    assert first["error"] is None and first["solvers"]["exact"]["runs"]
    assert second["name"] == names[1] and second["solvers"] == {}
    assert repr(names[0]) in second["error"]
    out = tmp_path / "out"
    # names[1] is already a safe file name
    assert [p.name for p in (out / "samples").iterdir()] == [f"{names[1]}__exact__run0.json"]
    assert len((out / "results.csv").read_text().splitlines()) == 2


def test_crash_isolation(instance_file, tmp_path):
    cfg = ExperimentConfig(
        instances=["/nonexistent/broken.json", instance_file],
        solvers=["exhaustive"],
        reads=10,
        runs=1,
    )
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 1
    broken, good = report["instances"]
    assert broken["error"]
    assert good["error"] is None
    assert good["solvers"]["exhaustive"]["runs"][0]["best_ar"] == 1.0


def test_bad_instance_entry_is_isolated(instance_file, tmp_path):
    spec = {"source": instance_file, "target_requests": 2, "with_capacity": False, "seed": 0}
    # a source of 0 or 1 would be taken as a file descriptor
    bad_fields = [
        ("source", 1), ("source", 0), ("target_requests", 2.5), ("target_requests", True),
        ("seed", True), ("with_capacity", "no"),
    ]
    entries = [5, *({**spec, field: value} for field, value in bad_fields), instance_file]
    cfg = ExperimentConfig(instances=entries, solvers=["exact"], reads=10, runs=1)
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 1
    broken, *bad_specs, good = report["instances"]
    assert broken["spec"] == 5
    assert "path or generation spec" in broken["error"]
    for record, (field, value) in zip(bad_specs, bad_fields):
        assert record["spec"][field] == value
        assert field in record["error"]
    assert good["solvers"]["exact"]["runs"][0]["best_ar"] == 1.0


def test_cell_failure_is_isolated(instance_file, tmp_path, monkeypatch):
    def broken_sampler(*args, **kwargs):
        raise RuntimeError("annealer down")

    monkeypatch.setattr("satplan.bench.sample_sa", broken_sampler)
    cfg = ExperimentConfig(instances=[instance_file], solvers=["exact", "sa"], reads=10, runs=2)
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 1
    record = report["instances"][0]
    assert record["error"] is None
    assert record["solvers"]["sa"] == {
        "runs": [],
        "aggregate": None,
        "error": "annealer down",
        "skipped": None,
    }
    exact = record["solvers"]["exact"]
    assert exact["error"] is None
    assert [doc["best_ar"] for doc in exact["runs"]] == [1.0, 1.0]
    assert exact["aggregate"]["mean_best_ar"] == 1.0
    out = tmp_path / "out"
    assert json.loads((out / "report.json").read_text()) == report
    assert sorted(p.name for p in out.iterdir()) == [
        "best_ar.csv",
        "expected_ar.csv",
        "report.json",
        "results.csv",
        "samples",
    ]
    assert sorted(p.name for p in (out / "samples").iterdir()) == [
        "tiny3__exact__run0.json",
        "tiny3__exact__run1.json",
    ]
    # the failed sa cell leaves its two columns empty, before proven_optimal
    assert (out / "expected_ar.csv").read_text().splitlines()[1].endswith(",,,true")


def test_oversized_cells_are_skipped_with_reason(tmp_path):
    wide = Instance(
        name="wide27",
        requests=tuple(
            Request(id=i, kind="mono", weight=1.0, allowed_cameras=(1,)) for i in range(27)
        ),
    )
    path = tmp_path / "wide27.json"
    save_instance(wide, path)
    cfg = ExperimentConfig(
        instances=[str(path)], solvers=["exact", "exhaustive", "qaoa"], reads=10, runs=1
    )
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    cells = report["instances"][0]["solvers"]
    assert cells["exact"]["skipped"] is None
    assert cells["exhaustive"] == {
        "runs": [],
        "aggregate": None,
        "error": None,
        "skipped": "27 variables exceed the 24-variable enumeration limit",
    }
    assert cells["qaoa"]["skipped"] == "27 qubits exceed the 26-qubit statevector limit"
    assert cells["qaoa"]["runs"] == []
    samples = sorted(p.name for p in (tmp_path / "out" / "samples").iterdir())
    assert samples == ["wide27__exact__run0.json"]


def test_qaoa_cell_runs_and_persists(instance_file, tmp_path):
    cfg = ExperimentConfig(
        instances=[instance_file],
        solvers=["qaoa"],
        reads=100,
        runs=1,
        max_layers=2,
        n_inits=2,
        master_seed=11,
    )
    report, code = run_pipeline(cfg, tmp_path / "out")
    assert code == 0
    run = report["instances"][0]["solvers"]["qaoa"]["runs"][0]
    assert [l["layer"] for l in run["layers"]] == [1, 2]
    sample_files = list((tmp_path / "out" / "samples").glob("*qaoa*"))
    assert len(sample_files) == 1
    doc = json.loads(sample_files[0].read_text())
    assert [l["layer"] for l in doc["layers"]] == [1, 2]
    assert all("gammas" in l and "betas" in l and "expectation" in l for l in doc["layers"])


def tenths_instance():
    """Weights in multiples of 0.1, so QUBO coefficients are not integers."""
    return Instance(
        name="tenths",
        requests=(
            Request(id=0, kind="mono", weight=0.3, allowed_cameras=(1, 2)),
            Request(id=1, kind="mono", weight=0.7, allowed_cameras=(2, 3)),
            Request(id=2, kind="stereo", weight=1.1, allowed_cameras=(4,)),
            Request(id=3, kind="mono", weight=0.2, allowed_cameras=(1,)),
            Request(id=4, kind="mono", weight=0.9, allowed_cameras=(3,)),
        ),
        binary_forbidden=frozenset({(VarRef(0, 2), VarRef(1, 2))}),
        ternary_forbidden=frozenset({(VarRef(0, 1), VarRef(2, 4), VarRef(3, 1))}),
    )


@pytest.mark.parametrize("solver", ["qaoa", "sa", "exhaustive", "exact"])
def test_sample_energies_are_qubo_energies(solver):
    # every solver stores energies that Qubo.energy reproduces exactly; the
    # Ising table of this QUBO differs from the QUBO's in the last ulps
    inst = tenths_instance()
    qubo = encode(inst)
    assert qubo.num_variables == 8
    assert not np.array_equal(qubo.energy_table(), qubo.to_ising().energy_table())
    cfg = ExperimentConfig(instances=["-"], solvers=[solver], reads=200, max_layers=2, n_inits=1)
    f_max = solve_exact(inst).best_value
    _, doc, _ = run_cell(inst, qubo, f_max, solver, cell_seed(0, 0, solver, 0), cfg)
    sample_sets = doc["layers"] if solver == "qaoa" else [doc]
    assert len(sample_sets) == (2 if solver == "qaoa" else 1)
    for sample_set in sample_sets:
        entries = [SampleEntry(**e) for e in sample_set["entries"]]
        for entry, bits in zip(entries, bit_rows(entries, qubo.num_variables)):
            assert entry.energy == qubo.energy(bits)


def test_samples_json_is_json_dumps_with_indent():
    inst = tenths_instance()
    qubo = encode(inst)
    f_max = solve_exact(inst).best_value
    cfg = ExperimentConfig(instances=["-"], solvers=["sa"], reads=200, max_layers=2, n_inits=1)
    docs = [run_cell(inst, qubo, f_max, s, 7, cfg)[1] for s in ("sa", "exact", "qaoa")]
    energies = [-0.0, 0.0, 5e-324, 1e16, 0.1, math.inf, -math.inf, math.nan]
    entries = [{"bits": "01" * i, "energy": e, "count": i} for i, e in enumerate(energies)]
    sample_set = {"sampler": "sa", "seed": 1, "reads": 28, "entries": entries}
    layer = {**sample_set, "layer": 1, "gammas": [0.5], "betas": [-0.0], "expectation": 1e300}
    docs += [
        sample_set,
        {**sample_set, "entries": []},
        {"layers": [layer, {**layer, "layer": 2, "entries": []}, {**layer, "layer": 3}]},
        {"layers": []},
    ]
    for doc in docs:
        assert samples_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("trial", range(6))
def test_exact_cell_stores_a_qubo_ground_state(trial):
    # capacity instances with triples: the exact cell's slacks complete the
    # optimum to a ground state, as low as the exhaustive cell's
    rng = np.random.default_rng([83, trial])
    inst = random_instance(
        rng, n_requests=6, n_pairs=1, n_triples=2, with_capacity=True, name=f"ground{trial}"
    )
    qubo = encode_checked(inst)
    assert qubo.s > 0 and qubo.num_variables <= 20
    f_max = solve_exact(inst).best_value
    cfg = ExperimentConfig(instances=["-"], solvers=["exact", "exhaustive"], reads=30)
    energies = {}
    for solver in ("exact", "exhaustive"):
        metrics, doc, _ = run_cell(inst, qubo, f_max, solver, 0, cfg)
        (entry,) = doc["entries"]
        assert entry["count"] == doc["reads"] == 30
        (bits,) = bit_rows([SampleEntry(**entry)], qubo.num_variables)
        assert entry["energy"] == qubo.energy(bits)
        assert metrics.best_ar == metrics.expected_ar == 1.0
        energies[solver] = entry["energy"]
    assert energies["exact"] == energies["exhaustive"] == -f_max


def spec_source() -> Instance:
    rng = np.random.default_rng(5)
    return Instance(
        name="src",
        requests=tuple(
            Request(id=i, kind="mono", weight=float(rng.integers(1, 5)), allowed_cameras=(1,))
            for i in range(6)
        ),
        ternary_forbidden=frozenset(
            {(VarRef(0, 1), VarRef(2, 1), VarRef(4, 1)), (VarRef(1, 1), VarRef(3, 1), VarRef(5, 1))}
        ),
    )


def test_generation_spec_entries(tmp_path):
    src_path = tmp_path / "src.json"
    save_instance(spec_source(), src_path)
    spec = {"source": str(src_path), "target_requests": 3, "with_capacity": False, "seed": 2}
    inst = resolve_instance(spec)
    assert len(inst.requests) >= 3
    with pytest.raises(ConfigError):
        resolve_instance({"source": str(src_path)})
    # only a spec's source is kept for later entries; a plain path is not
    sources = {}
    assert resolve_instance(str(src_path), sources) == spec_source()
    assert sources == {}
    assert resolve_instance(spec, sources) == inst
    assert list(sources) == [str(src_path)]


def test_run_parses_each_source_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("one.json", "two.json"):
        save_instance(spec_source(), name)
    parsed = []

    def counting_load(path):
        parsed.append(path)
        return load_instance(path)

    monkeypatch.setattr("satplan.bench.load_instance", counting_load)
    specs = [
        {"source": "one.json", "target_requests": 3, "with_capacity": False, "seed": seed}
        for seed in (2, 4)
    ]
    apart = [specs[0], {**specs[1], "source": "two.json"}]
    for instances, out in ((specs, "shared"), (apart, "apart")):
        cfg = ExperimentConfig(instances=instances, solvers=["exact", "sa"], reads=50, runs=2)
        assert run_pipeline(cfg, out)[1] == 0
    assert parsed == ["one.json", "one.json", "two.json"]
    # the runs differ only in the second spec's source path
    shared, other = (Path(out, "report.json").read_text() for out in ("shared", "apart"))
    assert len({r["name"] for r in json.loads(shared)["instances"]}) == 2
    assert other.count('"two.json"') == 1
    assert other.replace('"two.json"', '"one.json"') == shared
    files = sorted(p.relative_to("shared") for p in Path("shared").rglob("*") if p.is_file())
    assert len(files) == 4 + 2 * 2 * 2  # report, 3 CSVs, 2 instances x 2 solvers x 2 runs
    for path in files:
        if path.name != "report.json":
            assert (Path("shared") / path).read_bytes() == (Path("apart") / path).read_bytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=[], solvers=["sa"])
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=["x"], solvers=["bogus"])
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=["x"], solvers=["sa", "sa"])
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=["x"], solvers=["sa"], reads=0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"instances": ["x"], "solvers": ["sa"], "bogus_field": 1})
    bad_values = [
        ("reads", 2.5),
        ("runs", 2.5),
        ("runs", True),
        ("max_layers", 0),
        ("n_inits", "3"),
        ("node_budget", 0),
        ("master_seed", 1.5),
        ("master_seed", -1),
        ("master_seed", False),
        ("penalty_m", 0.0),
        ("penalty_m", float("nan")),
        ("penalty_m", float("inf")),
        ("penalty_m", True),
        ("penalty_m", "7"),
        ("instances", "x.json"),
        ("solvers", "sa"),
    ]
    for field, value in bad_values:
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict({"instances": ["x"], "solvers": ["sa"], field: value})
    assert ExperimentConfig(instances=["x"], solvers=["sa"], master_seed=0, node_budget=1)


def test_cell_seed_is_stable():
    a = cell_seed(1, 0, "sa", 0)
    assert a == cell_seed(1, 0, "sa", 0)
    assert a != cell_seed(1, 0, "sa", 1)
    assert a != cell_seed(1, 0, "qaoa", 0)
    assert a != cell_seed(2, 0, "sa", 0)
