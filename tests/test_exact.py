import dataclasses

import numpy as np
import pytest

import satplan.exact
from satplan import (
    Assignment,
    Instance,
    Request,
    VarRef,
    check_feasible,
    objective,
    solve_exact,
)
from helpers import brute_force_best, random_instance, reference_solve_exact, shuffled_requests


def _mono(rid, weight=1.0, cams=(1,), caps=None):
    return Request(
        id=rid, kind="mono", weight=weight, allowed_cameras=cams, capacity_by_camera=caps or {}
    )


def test_objective_examples():
    inst = Instance(name="o", requests=(_mono(0, 2.0), _mono(1, 3.0)))
    assert objective(inst, Assignment(())) == 0.0
    assert objective(inst, Assignment.from_map({0: 1, 1: 1})) == 5.0


def test_objective_is_camera_independent():
    rng = np.random.default_rng(5)
    for trial in range(20):
        inst = random_instance(rng, n_requests=int(rng.integers(1, 6)), name=f"ci{trial}")
        req = inst.requests[int(rng.integers(0, len(inst.requests)))]
        values = {
            objective(inst, Assignment.from_map({req.id: cam})) for cam in req.allowed_cameras
        }
        assert len(values) == 1


def test_empty_assignment_is_feasible():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, n_requests=4, n_pairs=2, n_triples=1, with_capacity=True, name="e")
    report = check_feasible(inst, Assignment(()))
    assert report.feasible and not report.violations


def test_pair_violation_reported():
    pair = (VarRef(0, 1), VarRef(1, 2))
    inst = Instance(
        name="p",
        requests=(_mono(0), _mono(1, cams=(2,))),
        binary_forbidden=frozenset({pair}),
    )
    report = check_feasible(inst, Assignment.from_map({0: 1, 1: 2}))
    assert not report.feasible
    assert len(report.violations) == 1
    assert report.violations[0].kind == "pair"
    assert report.violations[0].refs == pair


def test_once_violation_from_raw_bits():
    inst = Instance(name="m", requests=(_mono(0, cams=(1, 2)),))
    report = check_feasible(inst, Assignment.from_bits(inst, [1, 1]))
    assert [v.kind for v in report.violations] == ["once"]


def test_capacity_violation_with_slack_amount():
    # found by enumerating a 3-request capacity instance
    inst = Instance(
        name="c",
        requests=(
            _mono(0, caps={1: 2}),
            _mono(1, caps={1: 2}),
            _mono(2, caps={1: 1}),
        ),
        disk_capacity=4,
    )
    over = Assignment.from_map({0: 1, 1: 1, 2: 1})  # load 5 = C + 1
    report = check_feasible(inst, over)
    assert [v.kind for v in report.violations] == ["capacity"]
    assert report.violations[0].slack_amount == 1
    # every enumerated assignment agrees with the report
    for k in range(1 << 3):
        bits = [(k >> i) & 1 for i in range(3)]
        a = Assignment.from_bits(inst, bits)
        load = sum(c * b for c, b in zip((2, 2, 1), bits))
        assert check_feasible(inst, a).feasible == (load <= 4)


def test_capacity_ignored_without_disk_budget():
    inst = Instance(name="nc", requests=(_mono(0, caps={1: 100}),), disk_capacity=None)
    assert check_feasible(inst, Assignment.from_map({0: 1})).feasible


def test_solve_single_request():
    inst = Instance(name="one", requests=(_mono(0, weight=7.0),))
    result = solve_exact(inst)
    assert result.best_value == 7.0
    assert result.proven_optimal


def test_solve_triple_takes_two_of_three():
    triple = (VarRef(0, 1), VarRef(1, 1), VarRef(2, 1))
    inst = Instance(
        name="t3",
        requests=tuple(_mono(i) for i in range(3)),
        ternary_forbidden=frozenset({triple}),
    )
    result = solve_exact(inst)
    assert result.best_value == 2.0
    assert len(result.best_assignment.taken) == 2


def test_solver_matches_brute_force_enumeration():
    rng = np.random.default_rng(41)
    # a separate stream draws the tenths and the shuffles, so the instances
    # drawn from ``rng`` stay the same
    order_rng = np.random.default_rng(42)
    for trial in range(30):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(1, 6)),
            n_pairs=int(rng.integers(0, 4)),
            n_triples=int(rng.integers(0, 3)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"bf{trial}",
        )
        if len(inst.variables) > 12:
            continue
        # and a copy with tenths weights whose ids are out of file order,
        # where a sum's last bits depend on the order the weights are added in
        shuffled = shuffled_requests(order_rng, _weighted(order_rng, inst, _tenths))
        for case in (inst, shuffled):
            result = solve_exact(case)
            oracle_value, _ = brute_force_best(case)
            assert result.proven_optimal
            assert result.best_value == oracle_value
            report = check_feasible(case, result.best_assignment)
            assert report.feasible
            assert objective(case, result.best_assignment) == result.best_value


def test_budget_exhaustion_returns_incumbent():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, n_requests=8, n_pairs=0, n_triples=0, name="budget")
    result = solve_exact(inst, node_budget=5)
    assert not result.proven_optimal
    assert check_feasible(inst, result.best_assignment).feasible
    full = solve_exact(inst)
    assert full.proven_optimal
    assert result.best_value <= full.best_value


def _weighted(rng, inst, weight):
    requests = tuple(dataclasses.replace(req, weight=weight(rng)) for req in inst.requests)
    return dataclasses.replace(inst, requests=requests)


def _tenths(rng):
    return 0.1 * int(rng.integers(1, 30))


# Instance families for the reference comparison; each draws weights its own
# way.  "local" joins only requests at most 3 ids apart, as in SPOT5, so its
# subtrees repeat and the search replays them.
_FAMILIES = {
    "pairs": dict(n_pairs=(0, 10), n_triples=(0, 1), with_capacity=False, weight=None),
    "triples": dict(n_pairs=(0, 3), n_triples=(1, 6), with_capacity=False, weight=None),
    "capacity": dict(n_pairs=(0, 5), n_triples=(0, 4), with_capacity=True, weight=None),
    "ties": dict(n_pairs=(0, 6), n_triples=(0, 3), with_capacity=True,
                 weight=lambda rng: float(rng.integers(1, 3))),
    "tenths": dict(n_pairs=(0, 6), n_triples=(0, 3), with_capacity=True, weight=_tenths),
    "zeros": dict(n_pairs=(0, 6), n_triples=(0, 3), with_capacity=True,
                  weight=lambda rng: float(rng.integers(0, 3))),
    "local": dict(n_pairs=(4, 16), n_triples=(0, 6), with_capacity=True, weight=_tenths,
                  n_requests=(8, 15), reach=3),
}
_BUDGETS = {"1": lambda n: 1, "2": lambda n: 2, "5": lambda n: 5,
            "nodes-1": lambda n: n - 1, "nodes": lambda n: n, "nodes+1": lambda n: n + 1}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_solver_matches_recursive_reference(family, budget):
    spec = _FAMILIES[family]
    rng = np.random.default_rng([sorted(_FAMILIES).index(family), 7])
    for trial in range(25):
        inst = _draw(rng, spec, f"{family}{trial}")
        nodes = reference_solve_exact(inst).nodes_explored
        node_budget = max(1, _BUDGETS[budget](nodes))
        assert solve_exact(inst, node_budget) == reference_solve_exact(inst, node_budget)


def _draw(rng, spec, name):
    inst = random_instance(
        rng,
        n_requests=int(rng.integers(*spec.get("n_requests", (1, 13)))),
        n_pairs=int(rng.integers(*spec["n_pairs"])),
        n_triples=int(rng.integers(*spec["n_triples"])),
        with_capacity=spec["with_capacity"],
        name=name,
        reach=spec.get("reach"),
    )
    return inst if spec["weight"] is None else _weighted(rng, inst, spec["weight"])


def _local_instances(seed, count):
    rng = np.random.default_rng([seed, 3])
    spec = dict(_FAMILIES["local"])
    for trial in range(count):
        spec["with_capacity"] = bool(trial % 2)
        yield _draw(rng, spec, f"local{trial}")


def test_replays_match_reference_at_every_budget():
    # every budget up to 400 and 60 spread up to the full count: many of
    # them fall inside a subtree the memo holds, so the replay is refused
    # and the subtree walked until the budget runs out
    for inst in _local_instances(11, 20):
        full = reference_solve_exact(inst)
        n = full.nodes_explored
        budgets = set(range(1, 401)) | {int(b) for b in np.linspace(1, n + 1, 60)}
        for node_budget in sorted(budgets):
            # a budget of at least n never runs out in the reference
            expected = full if node_budget >= n else reference_solve_exact(inst, node_budget)
            assert solve_exact(inst, node_budget) == expected


def test_memo_limit_changes_no_result(monkeypatch):
    monkeypatch.setattr(satplan.exact, "MEMO_ENTRIES", 4)
    for inst in _local_instances(12, 20):
        n = reference_solve_exact(inst).nodes_explored
        for node_budget in (1, n // 3, n // 2, n - 1, n):
            node_budget = max(1, node_budget)
            assert solve_exact(inst, node_budget) == reference_solve_exact(inst, node_budget)


def test_deep_instance_needs_no_recursion():
    # one search level per request: deeper than the default recursion limit,
    # with enough conflicts that the budget runs out before the proof
    rng = np.random.default_rng(1200)
    inst = random_instance(rng, n_requests=1200, n_pairs=600, n_triples=100, name="deep")
    result = solve_exact(inst, node_budget=200_000)
    assert not result.proven_optimal
    assert result.nodes_explored == 200_001
    assert check_feasible(inst, result.best_assignment).feasible
    assert objective(inst, result.best_assignment) == result.best_value > 0
