"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; the slowest criteria (layered-ansatz benchmark, annealing trials)
finish in about a minute together.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from satplan import (
    Assignment,
    Instance,
    QaoaParams,
    ReductionSpec,
    Request,
    aggregate,
    apply_ansatz,
    capacity_slack_count,
    check_feasible,
    encode,
    expectation,
    min_slack_penalty,
    parse_instance,
    reduce,
    run_metrics,
    run_schedule,
    sample_sa,
    sample_state,
    serialize_instance,
    solve_exact,
    solve_exhaustive,
    uniform_state,
)
from satplan.bench import ExperimentConfig, run_pipeline
from satplan.metrics import RunMetrics
from test_ising import random_integer_qubo
from helpers import acceptance_source, encode_checked, feasible_decision_mask, random_instance


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {title}")


def _mixed_instances(count: int, max_total_vars: int):
    """Deterministic stream of encoded instances with n+s <= max_total_vars."""
    picked = []
    seed = 0
    while len(picked) < count:
        rng = np.random.default_rng(10_000 + seed)
        seed += 1
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(2, 7)),
            n_pairs=int(rng.integers(0, 4)),
            n_triples=int(rng.integers(0, 3)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"acc{seed}",
        )
        qubo = encode_checked(inst)
        if qubo.num_variables <= max_total_vars:
            picked.append((inst, qubo))
    return picked


def test_criterion_1_cubic_reduction():
    with criterion(1, "ternary reduction: slack minimum equals the cubic term, 8/8 exact"):
        m = 11.0
        for xp in (0, 1):
            for xq in (0, 1):
                for xr in (0, 1):
                    best = min(
                        m * xp * s + m * (xq * xr - 2 * xq * s - 2 * xr * s + 3 * s)
                        for s in (0, 1)
                    )
                    assert best == m * xp * xq * xr


def test_criterion_2_encoding_correctness():
    with criterion(2, "50 random instances: exhaustive QUBO optimum decodes to the exact optimum"):
        instances = _mixed_instances(50, max_total_vars=18)
        kinds = {r.kind for inst, _ in instances for r in inst.requests}
        assert kinds == {"mono", "stereo"}
        assert any(inst.disk_capacity is not None for inst, _ in instances)
        assert any(inst.binary_forbidden for inst, _ in instances)
        assert any(inst.ternary_forbidden for inst, _ in instances)
        for inst, qubo in instances:
            bits, _ = solve_exhaustive(qubo)
            assignment = Assignment.from_bits(inst, bits[: qubo.n])
            assert check_feasible(inst, assignment).feasible
            value = sum(inst.weight_of(ref.request_id) for ref in assignment.taken)
            assert value == solve_exact(inst).best_value


def test_criterion_3_penalty_sufficiency():
    with criterion(3, "M = total weight + 1: every infeasible selection costs more than the optimum"):
        for inst, qubo in _mixed_instances(50, max_total_vars=18):
            n, s = qubo.n, qubo.s
            table = qubo.energy_table().reshape(1 << s, 1 << n)
            min_over_slack = table.min(axis=0)
            optimum = min_over_slack.min()
            infeasible = ~feasible_decision_mask(inst)
            if infeasible.any():
                assert (min_over_slack[infeasible] > optimum).all()


def test_criterion_4_capacity_slack_count():
    with criterion(4, "capacity digits: D = min{D : 2^D - 1 >= C} for C in 1..64"):
        for cap in range(1, 65):
            d = capacity_slack_count(cap)
            assert 2**d - 1 >= cap
            assert 2 ** (d - 1) - 1 < cap
            inst = Instance(
                name=f"c{cap}",
                requests=(
                    Request(
                        id=0,
                        kind="mono",
                        weight=1.0,
                        allowed_cameras=(1,),
                        capacity_by_camera={1: 1},
                    ),
                ),
                disk_capacity=cap,
            )
            assert encode(inst).s == d
            if cap & (cap - 1) == 0:  # power of two: the naive digit count falls short
                assert math.ceil(math.log2(cap)) < d
                assert 2 ** math.ceil(math.log2(cap)) - 1 < cap or cap == 1


def test_criterion_5_qubo_ising_identity():
    with criterion(5, "QUBO <-> Ising: exact energy identity on 20 random 10-variable forms"):
        rng = np.random.default_rng(20_000)
        for _ in range(20):
            qubo = random_integer_qubo(rng, 10)
            assert np.array_equal(qubo.energy_table(), qubo.to_ising().energy_table())


def test_criterion_6_statevector_invariants():
    with criterion(6, "statevector: norm 1e-10, uniform mean 1e-9, sampled mean within 4 SE"):
        rng = np.random.default_rng(30_000)
        for _ in range(3):
            qubo = random_integer_qubo(rng, 8)
            table = qubo.energy_table()
            gammas = tuple(rng.uniform(0, 2 * np.pi, size=4))
            betas = tuple(rng.uniform(0, np.pi, size=4))
            for layers in range(1, 5):
                psi = apply_ansatz(table, QaoaParams(gammas[:layers], betas[:layers]))
                assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
            assert abs(
                expectation(table, uniform_state(8)) - qubo.energy_table().mean()
            ) < 1e-9
            psi = apply_ansatz(table, QaoaParams(gammas[:2], betas[:2]))
            value = expectation(table, psi)
            probs = np.abs(psi) ** 2
            stderr = math.sqrt(max(float(probs @ table**2 - value**2), 0.0) / 2000)
            samples = sample_state(psi, 2000, seed=77, energy_table=table)
            sampled_mean = sum(e.energy * e.count for e in samples.entries) / 2000
            assert abs(sampled_mean - value) <= 4 * stderr


def test_criterion_7_qaoa_desk_scale():
    with criterion(
        7, "layered ansatz on 5 generated instances <= 10 qubits: best AR 1.0 at 10 layers, "
           "mean expected AR(10) >= mean expected AR(1)"
    ):
        src = acceptance_source()
        specs = [(0, False), (1, True), (2, True), (3, False), (4, False)]
        expected_l1, expected_l10 = [], []
        for seed, with_cap in specs:
            inst = reduce(src, ReductionSpec(target_requests=3, with_capacity=with_cap, seed=seed))
            qubo = encode(inst)
            assert qubo.num_variables <= 10
            f_max = solve_exact(inst).best_value
            ranker = lambda ss: run_metrics(inst, f_max, ss).expected_ar
            layers = run_schedule(
                qubo.energy_table(),
                max_layers=10,
                n_inits=5,
                seed=1000 + seed,
                reads=2000,
                ranker=ranker,
            )
            first = run_metrics(inst, f_max, layers[0].samples)
            last = run_metrics(inst, f_max, layers[-1].samples)
            assert last.best_ar == 1.0
            expected_l1.append(first.expected_ar)
            expected_l10.append(last.expected_ar)
        assert np.mean(expected_l10) >= np.mean(expected_l1)


def test_criterion_8_sa_standin():
    with criterion(8, "annealer: best of 2000 reads hits the exhaustive optimum in >= 95% of 20 trials"):
        src = acceptance_source()
        hits = trials = 0
        for seed, with_cap, target in [(0, True, 8), (1, True, 9), (2, False, 9), (5, True, 9)]:
            inst = reduce(
                src, ReductionSpec(target_requests=target, with_capacity=with_cap, seed=seed)
            )
            qubo = encode(inst)
            assert qubo.num_variables <= 30
            _, floor = solve_exhaustive(qubo)
            for trial_seed in range(5):
                result = sample_sa(qubo, reads=2000, seed=trial_seed)
                trials += 1
                hits += result.best().energy == floor
        assert trials == 20
        assert hits / trials >= 0.95


def test_criterion_9_protocol_fidelity(tmp_path):
    with criterion(9, "pipeline: 5 runs x 2000 reads per cell, t-based 95% CI half-widths"):
        src = acceptance_source()
        inst = reduce(src, ReductionSpec(target_requests=3, with_capacity=False, seed=3))
        path = tmp_path / "inst.json"
        path.write_bytes(serialize_instance(inst))
        cfg = ExperimentConfig(
            instances=[str(path)], solvers=["exhaustive", "exact"], reads=2000, runs=5
        )
        report, code = run_pipeline(cfg, tmp_path / "out")
        assert code == 0
        for solver in ("exhaustive", "exact"):
            cell = report["instances"][0]["solvers"][solver]
            assert len(cell["runs"]) == 5
            assert all(r["reads"] == 2000 for r in cell["runs"])
            recomputed = aggregate(
                [
                    RunMetrics(r["expected_ar"], r["best_ar"], r["feasible_fraction"], r["reads"])
                    for r in cell["runs"]
                ]
            )
            assert cell["aggregate"]["ci95_expected"] == recomputed.ci95_expected
            assert cell["aggregate"]["ci95_best"] == recomputed.ci95_best
        # closed-form t half-width: t_{.975, 1} * stdev({0, 1}) / sqrt(2)
        # = t_{.975, 1} / 2. Student t with 1 degree of freedom is the standard
        # Cauchy (quantile tan(pi * (p - 1/2))), so t_{.975, 1} = tan(0.475 pi).
        # Not a constant frozen from a library's t.ppf: its last digits vary
        # between versions.
        two = aggregate(
            [RunMetrics(0.0, 0.0, 0.0, 1), RunMetrics(1.0, 1.0, 1.0, 1)]
        )
        assert two.ci95_expected == pytest.approx(math.tan(0.475 * math.pi) / 2, rel=1e-12)


def test_criterion_10_reductor_determinism_and_capacity_rule():
    with criterion(10, "100 seeded reductions: parseable, resolving constraints, C = ceil(T/2)"):
        src = acceptance_source()
        for seed in range(50):
            for with_cap in (False, True):
                target = 3 + seed % 9
                spec = ReductionSpec(target_requests=target, with_capacity=with_cap, seed=seed)
                inst = reduce(src, spec)
                again = parse_instance(serialize_instance(inst))
                assert again == inst
                assert serialize_instance(reduce(src, spec)) == serialize_instance(inst)
                for group in (inst.binary_forbidden, inst.ternary_forbidden):
                    for refs in group:
                        for ref in refs:
                            assert ref in inst.variable_index
                if with_cap:
                    cheapest_total = sum(
                        min(r.capacity_for(c) for c in r.allowed_cameras)
                        for r in inst.requests
                    )
                    assert inst.disk_capacity == (cheapest_total + 1) // 2
                else:
                    assert inst.disk_capacity is None
