"""Smoke tests of the benchmark's own code.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from satplan import Instance, Request, VarRef, serialize_instance, solve_exact  # noqa: E402
from satplan.reductor import ReductionSpec, reduce  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from spot5 import spot5_source  # noqa: E402
from workloads import WORKLOADS, Chosen, Slot, _fits, reference_search  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic_per_seed():
    a, b, c = spot5_source(4), spot5_source(4), spot5_source(5)
    assert serialize_instance(a) == serialize_instance(b)
    assert serialize_instance(a) != serialize_instance(c)
    kinds = {r.kind for r in a.requests}
    assert kinds == {"mono", "stereo"}
    assert a.binary_forbidden and a.ternary_forbidden
    assert a.has_capacity_data
    for refs in list(a.binary_forbidden) + list(a.ternary_forbidden):
        ids = [ref.request_id for ref in refs]
        assert max(ids) - min(ids) <= 3  # local constraints, as in SPOT5


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = {"trace.overhead_s", "quality.optimum_hit_rate"}
    assert per_layer == set(tracing.layer_metrics(tracing.Tracer())) | traced
    assert e2e == {"run_s", "setup_s", "peak_rss_mb", "expected_ar", "feasible_fraction", "best_ar"}
    assert set(run.declared_units()) == e2e | per_layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in e2e | per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64


def _toy_instance(rng: np.random.Generator, n: int) -> Instance:
    requests = []
    for rid in range(n):
        cams = (4,) if rng.random() < 0.3 else (1, 2, 3)[: int(rng.integers(1, 4))]
        caps = {cam: int(rng.integers(0, 4)) for cam in cams}
        kind = "stereo" if cams == (4,) else "mono"
        requests.append(Request(rid, kind, float(rng.integers(1, 9)), cams, caps))
    refs = [VarRef(r.id, c) for r in requests for c in r.allowed_cameras]

    def draw(k: int):
        return tuple(sorted(refs[i] for i in rng.choice(len(refs), k, replace=False)))

    pairs = {draw(2) for _ in range(n)}
    triples = {draw(3) for _ in range(2)}
    total = sum(max(r.capacity_by_camera.values()) for r in requests)
    return Instance(
        name="toy",
        requests=tuple(requests),
        binary_forbidden=frozenset(p for p in pairs if p[0].request_id != p[1].request_id),
        ternary_forbidden=frozenset(t for t in triples if len({r.request_id for r in t}) == 3),
        disk_capacity=total // 2 if rng.random() < 0.5 else None,
    )


def test_reference_search_matches_program_solver():
    rng = np.random.default_rng(7)
    for _ in range(30):
        inst = _toy_instance(rng, int(rng.integers(3, 9)))
        program = solve_exact(inst)
        assert reference_search(inst, 10**7) == (program.nodes_explored, program.best_value)
    assert reference_search(_toy_instance(rng, 8), 1) is None


@pytest.mark.parametrize("workload, slot_idx", [("reference-sparse", 1), ("qaoa-desk", 0)])
def test_pool_entries_fit_their_slot(workload, slot_idx):
    slot = WORKLOADS[workload].slots[slot_idx]
    src_seed, red_seed = slot.pool[0]
    inst = reduce(spot5_source(src_seed), ReductionSpec(slot.target_requests, False, red_seed))
    assert _fits(slot, inst) is not None
    assert _fits(Slot(slot.target_requests, False, (0, 0)), inst) is None


SOLVERS = ("exact", "exhaustive", "sa")


@pytest.fixture(scope="module")
def toy_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    inst = reduce(spot5_source(0), ReductionSpec(4, True, 1))
    path = tmp / "inst.json"
    path.write_bytes(serialize_instance(inst))
    config = tmp / "config.json"
    config.write_text(
        json.dumps({"instances": [str(path)], "solvers": list(SOLVERS), "reads": 50, "runs": 2})
    )
    _, code, plain = run.run_once(config, tmp / "out")
    assert code == 0
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        _, _, traced = run.run_once(config, tmp / "out")
    chosen = Chosen({}, *reference_search(inst, 10**7), may_skip=())
    return json.loads(plain), json.loads(traced), tracer, chosen


def _skip(solver):
    def corrupt(report):
        cell = report["instances"][0]["solvers"][solver]
        cell.update(runs=[], aggregate=None, skipped="too large")

    return corrupt


def test_checks_pass_a_clean_report(toy_report):
    report, _, _, chosen = toy_report
    assert checks.check_report(report, SOLVERS, [chosen]) == []
    assert checks.tally(report) == (1 + 3 * 2, 0)
    quality = checks.quality(report)
    assert set(quality) == set(checks.QUALITY)
    assert all(0.0 <= v <= 1.0 for v in quality.values())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["instances"][0].update(proven_optimal=False),
        lambda r: r["instances"][0].update(f_max=r["instances"][0]["f_max"] + 1),
        lambda r: r["instances"][0].update(error="boom"),
        lambda r: r["instances"][0]["solvers"]["sa"]["runs"][0].update(best_ar=1.5),
        lambda r: r["instances"][0]["solvers"]["sa"]["runs"][1].update(expected_ar=-0.1),
        lambda r: r["instances"][0]["solvers"]["exact"]["runs"][0].update(expected_ar=0.5),
        lambda r: r["instances"][0]["solvers"]["exhaustive"]["runs"][1].update(best_ar=0.9),
        lambda r: r["instances"][0]["solvers"]["sa"]["runs"].pop(),
        lambda r: r["instances"][0]["solvers"]["exact"].update(error="boom"),
        lambda r: r["instances"][0]["solvers"].pop("sa"),
        lambda r: r.update(solvers=["exact", "exhaustive"]),
        _skip("exhaustive"),
        _skip("sa"),
    ],
)
def test_checks_catch_a_corrupted_report(toy_report, corrupt):
    report = copy.deepcopy(toy_report[0])
    corrupt(report)
    assert checks.check_report(report, SOLVERS, [toy_report[3]])


def test_checks_let_only_declared_cells_skip(toy_report):
    report = copy.deepcopy(toy_report[0])
    _skip("exhaustive")(report)
    may_skip = replace(toy_report[3], may_skip=("exhaustive",))
    assert checks.check_report(report, SOLVERS, [may_skip]) == []
    _skip("sa")(report)
    assert checks.check_report(report, SOLVERS, [may_skip])


def test_tracing_records_layers_and_restores_the_program(toy_report):
    import satplan.bench
    from satplan.qubo import Qubo

    report, traced_report, tracer, _ = toy_report
    inst = report["instances"][0]
    assert traced_report == report
    assert not hasattr(satplan.bench.solve_exact, "__wrapped__")
    assert not hasattr(Qubo.energy_table, "__wrapped__")
    metrics = tracing.layer_metrics(tracer)
    assert metrics["exact.calls"] == 1 + 2  # prepare plus each exact run
    assert metrics["anneal.sa_calls"] == 2
    assert metrics["bench.cells"] == 3 * 2
    assert metrics["qubo.table_entries"] == 2 * 2 ** (inst["variables"] + inst["slacks"])
    assert 0 < metrics["anneal.sa_s"] < metrics["bench.pipeline_s"]
    assert all(NAME.fullmatch(name) for name in metrics)
