import json
import math
import tracemalloc

import numpy as np
import pytest

from satplan import (
    Assignment,
    CapacityBitSlack,
    Instance,
    Request,
    TernaryPairSlack,
    VarRef,
    capacity_slack_count,
    check_feasible,
    encode,
    min_slack_penalty,
    solve_exact,
)
from satplan.anneal import _field_bound
from satplan.qaoa import MAX_QUBITS
from satplan.qubo import MAX_TABLE_VARIABLES, IsingModel, Qubo
from helpers import (
    assert_bitwise_equal,
    brute_force_best,
    encode_checked,
    feasible_decision_mask,
    random_instance,
    reference_energy,
    reference_energy_table,
    reference_ising_table,
)


def _mono(rid, weight=1.0, cams=(1,), caps=None):
    return Request(
        id=rid, kind="mono", weight=weight, allowed_cameras=cams, capacity_by_camera=caps or {}
    )


def _terms(q):
    return {(i, j): v for i, j, v in q.terms()}


def test_uniqueness_penalty_three_cameras():
    inst = Instance(name="u", requests=(_mono(0, weight=2.0, cams=(1, 2, 3)),))
    q = encode(inst)
    m = q.penalty_m
    assert m == 3.0  # total weight + 1
    assert _terms(q) == {
        (0, 0): -2.0,
        (1, 1): -2.0,
        (2, 2): -2.0,
        (0, 1): m,
        (0, 2): m,
        (1, 2): m,
    }
    assert q.s == 0


@pytest.mark.parametrize("m", [-1.0, 0.0, -0.0, float("nan"), float("inf"), float("-inf")])
def test_encode_rejects_penalty_outside_positive_finite(m):
    inst = Instance(name="m", requests=(_mono(0, 2.0),))
    with pytest.raises(ValueError, match="positive and finite"):
        encode(inst, m)
    assert encode(inst, 1e300).penalty_m == 1e300


def test_encode_rejects_a_penalty_that_overflows_the_energies():
    inst = Instance(
        name="cap", requests=(_mono(0, caps={1: 3}), _mono(1, caps={1: 4})), disk_capacity=5
    )
    q = encode(inst, 1e300)  # |offset| + sum |c| is about 1.2e302
    assert math.isfinite(abs(q.offset) + np.abs(q.term_values()).sum())
    with pytest.raises(ValueError, match="past the largest float"):
        encode(inst, 1e308)


def test_pair_penalty_single_interaction_no_slack():
    pair = (VarRef(0, 1), VarRef(1, 1))
    inst = Instance(
        name="p",
        requests=(_mono(0, 2.0), _mono(1, 3.0)),
        binary_forbidden=frozenset({pair}),
    )
    q = encode(inst)
    assert q.s == 0
    assert _terms(q)[(0, 1)] == q.penalty_m
    assert q.num_terms() == 3  # two diagonals + one interaction


def test_ternary_penalty_structure():
    triple = (VarRef(0, 1), VarRef(1, 1), VarRef(2, 1))
    inst = Instance(
        name="t",
        requests=tuple(_mono(i, weight=1.0) for i in range(3)),
        ternary_forbidden=frozenset({triple}),
    )
    q = encode(inst)
    m = q.penalty_m
    assert q.s == 1
    assert isinstance(q.registry.slack_vars[0], TernaryPairSlack)
    assert q.registry.slack_vars[0].q == VarRef(1, 1)
    assert q.registry.slack_vars[0].r == VarRef(2, 1)
    terms = _terms(q)
    assert terms[(0, 3)] == m
    assert terms[(1, 2)] == m
    assert terms[(1, 3)] == -2 * m
    assert terms[(2, 3)] == -2 * m
    assert terms[(3, 3)] == 3 * m


def test_shared_pair_reuses_one_slack():
    t1 = (VarRef(0, 1), VarRef(2, 1), VarRef(3, 1))
    t2 = (VarRef(1, 1), VarRef(2, 1), VarRef(3, 1))
    inst = Instance(
        name="share",
        requests=tuple(_mono(i) for i in range(4)),
        ternary_forbidden=frozenset({t1, t2}),
    )
    q = encode(inst)
    assert q.s == 1

    # distinct substituted pairs get distinct slacks
    t3 = (VarRef(0, 1), VarRef(1, 1), VarRef(2, 1))
    inst2 = Instance(
        name="noshare",
        requests=tuple(_mono(i) for i in range(4)),
        ternary_forbidden=frozenset({t2, t3}),
    )
    assert encode(inst2).s == 2


def test_capacity_slack_digits():
    inst = Instance(
        name="cap",
        requests=(_mono(0, caps={1: 3}), _mono(1, caps={1: 4})),
        disk_capacity=5,
    )
    q = encode(inst)
    digits = [s for s in q.registry.slack_vars if isinstance(s, CapacityBitSlack)]
    assert [s.d for s in digits] == [1, 2, 3]
    # binary expansion coefficients 1, 2, 4 show up against the budget term
    terms = _terms(q)
    m = q.penalty_m
    cap = 5
    for pos, coeff in zip((2, 3, 4), (1.0, 2.0, 4.0)):
        assert terms[(pos, pos)] == m * (coeff**2 - 2 * cap * coeff)
    # the load vector of the squared penalty: decisions, then digits
    assert q.capacity_load.tolist() == [3.0, 4.0, 1.0, 2.0, 4.0]


def test_capacity_slack_count_rule():
    for cap in range(0, 200):
        d = capacity_slack_count(cap)
        assert 2**d - 1 >= cap
        assert d == 0 or 2 ** (d - 1) - 1 < cap


def test_capacity_with_all_zero_loads_warns_and_skips():
    inst = Instance(name="z", requests=(_mono(0, caps={1: 0}),), disk_capacity=3)
    with pytest.warns(UserWarning):
        q = encode(inst)
    assert q.s == 0
    assert q.offset == 0.0
    assert q.capacity_load is None


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-2, -2)])
def test_negative_variable_index_is_rejected(key):
    with pytest.raises(ValueError, match=">= 0"):
        Qubo({key: 1.0, (1, 1): 1.0})


def test_capacity_load_must_cover_every_variable():
    with pytest.raises(ValueError, match="capacity load"):
        Qubo({(0, 1): 2.0}, capacity_load=np.ones(3))


@pytest.mark.parametrize(
    "q, bound",
    [
        # variable 0: |3| + |-2| = 5
        (Qubo({(0, 0): 3.0, (0, 1): -2.0}), 5.0),
        (Qubo({(0, 0): 0.75, (0, 1): -0.5}), np.inf),
        (Qubo({(0, 0): 1e300}), 1e300),
        (Qubo({}, num_variables=2), 0.0),
        # variable 1's finite terms sum past the largest float
        (Qubo({(0, 1): 1e308, (1, 1): 1e308}), np.inf),
        # loads 1 and 3 and M = 3: variable 1's 4 * 3 * 3 * 4 = 144 is above
        # variable 0's 1 + 4 * 3 * 1 * 4 = 49
        (Qubo({(0, 0): 1.0}, penalty_m=3.0, num_variables=2, capacity_load=[1.0, 3.0]), 144.0),
        (Qubo({(0, 0): 1.0}, penalty_m=3.0, num_variables=2, capacity_load=[0.5, 1.5]), np.inf),
        (Qubo({(0, 0): 1.0}, penalty_m=2.5, num_variables=2, capacity_load=[1.0, 3.0]), np.inf),
    ],
)
def test_field_bound_covers_integer_qubos_only(q, bound):
    # the annealer's bound on the QUBO's field sums
    assert _field_bound(q) == bound


@pytest.mark.parametrize(
    "coefficients, kwargs, match",
    [
        ({(0, 0): np.nan, (0, 1): 1.0}, {}, "coefficients"),
        ({(0, 0): np.inf}, {}, "coefficients"),
        ({(0, 0): -np.inf}, {}, "coefficients"),
        # a pair given both ways sums past the largest float
        ({(0, 1): 1e308, (1, 0): 1e308}, {}, "coefficients"),
        ({(0, 0): 1.0}, dict(offset=np.nan), "offset"),
        ({(0, 0): 1.0}, dict(offset=-np.inf), "offset"),
        ({(0, 0): 1.0}, dict(penalty_m=np.nan), "penalty_m"),
        ({(0, 0): 1.0}, dict(penalty_m=np.inf), "penalty_m"),
        ({(0, 0): 1.0}, dict(capacity_load=[np.nan]), "capacity load"),
        ({(0, 0): 1.0}, dict(capacity_load=[np.inf]), "capacity load"),
    ],
)
def test_non_finite_qubo_is_rejected(coefficients, kwargs, match):
    with pytest.raises(ValueError, match=match):
        Qubo(coefficients, **kwargs)


def test_energy_basics():
    q = Qubo({}, offset=1.5)
    q2 = Qubo({(0, 0): -1.0})
    assert q.energy([]) == 1.5
    assert q2.energy([1]) == -1.0
    assert q2.energy([0]) == 0.0
    with pytest.raises(ValueError):
        q2.energy([0, 1])


def test_pair_given_both_ways_is_one_term():
    # the annealer reads interaction_matrix, the scorer energies: both must
    # see the summed pair, and the export must list it once
    q = Qubo({(0, 1): 1.0, (1, 1): -1.0, (1, 0): 2.0})
    assert list(q.terms()) == [(0, 1, 3.0), (1, 1, -1.0)]
    assert q.interaction_matrix()[0, 1] == q.interaction_matrix()[1, 0] == 3.0
    assert q.energy([1, 1]) == 2.0
    assert q.energy_table().tolist() == [0.0, 0.0, -1.0, 2.0]
    assert json.loads(q.to_json())["terms"] == [[0, 1, 3.0], [1, 1, -1.0]]
    cancelled = Qubo({(0, 1): 1.0, (1, 0): -1.0}, num_variables=2)
    assert cancelled.num_terms() == 0
    assert cancelled.energy_table().tolist() == [0.0] * 4


def test_energy_matches_independent_reference():
    rng = np.random.default_rng(47)
    checked = 0
    for trial in range(40):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(1, 5)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 3)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"ref{trial}",
        )
        q = encode_checked(inst)
        nv = q.num_variables
        if nv > 12:
            continue
        checked += 1
        table = q.energy_table()
        for k in range(1 << nv):
            bits = np.array([(k >> i) & 1 for i in range(nv)], dtype=np.uint8)
            assert table[k] == reference_energy(inst, q.penalty_m, bits)
    assert checked >= 10


def _random_coefficients(rng, n, gaussian, negative, density=0.5):
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                v = rng.normal() if gaussian else float(rng.integers(-8, 9))
                coeffs[(i, j)] = -abs(v) if negative else v
    return coeffs


@pytest.mark.parametrize("offset", [0.0, -0.0, -3.0])
@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("gaussian", [False, True])
def test_energy_tables_match_reference_bit_for_bit(gaussian, negative, offset):
    # the in-place tables skip the v * 0 additions of the reference; with
    # offset -0.0 the start-value rule decides the sign of the zero entries
    rng = np.random.default_rng(61)
    for n in range(13):
        q = Qubo(_random_coefficients(rng, n, gaussian, negative), offset=offset, num_variables=n)
        assert_bitwise_equal(q.energy_table(), reference_energy_table(q))
        ising = q.to_ising()
        assert_bitwise_equal(ising.energy_table(), reference_ising_table(ising))
        # fields of both zero signs, which the Ising view never has
        h = np.where(rng.random(n) < 0.3, -0.0, rng.normal(size=n))
        h[rng.random(n) < 0.2] = 0.0
        pairs = _random_coefficients(rng, n, gaussian, negative)
        ising = IsingModel(h, {(i, j): v for (i, j), v in pairs.items() if i != j}, offset)
        assert_bitwise_equal(ising.energy_table(), reference_ising_table(ising))


@pytest.mark.parametrize("view", ["qubo", "ising"])
def test_energy_table_memory_is_the_table(view):
    rng = np.random.default_rng(67)
    q = Qubo(_random_coefficients(rng, 18, False, False, density=0.3), num_variables=18)
    model = q if view == "qubo" else q.to_ising()
    tracemalloc.start()
    try:
        table = model.energy_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes


def test_one_limit_for_every_energy_table():
    # QAOA's statevector limit is the energy tables' own
    assert MAX_QUBITS == MAX_TABLE_VARIABLES
    q = Qubo({}, num_variables=MAX_TABLE_VARIABLES + 1)
    for model in (q, q.to_ising()):
        with pytest.raises(ValueError, match="too large"):
            model.energy_table()


def test_cubic_reduction_eight_cases():
    # min over the slack of the quadratic penalty equals the cubic monomial
    m = 9.0
    for xp in (0, 1):
        for xq in (0, 1):
            for xr in (0, 1):
                best = min(
                    m * xp * s + m * (xq * xr - 2 * xq * s - 2 * xr * s + 3 * s)
                    for s in (0, 1)
                )
                assert best == m * xp * xq * xr


def test_min_slack_penalty_examples():
    triple = (VarRef(0, 1), VarRef(1, 1), VarRef(2, 1))
    inst = Instance(
        name="msp",
        requests=tuple(_mono(i, weight=2.0) for i in range(3)),
        ternary_forbidden=frozenset({triple}),
    )
    q = encode(inst)
    assert min_slack_penalty(q, [1, 1, 0]) == 0.0  # feasible: two of three
    assert min_slack_penalty(q, [1, 1, 1]) == q.penalty_m  # the cubic fires

    cap_inst = Instance(
        name="mspc",
        requests=(_mono(0, caps={1: 2}), _mono(1, caps={1: 3})),
        disk_capacity=3,
    )
    qc = encode(cap_inst)
    assert min_slack_penalty(qc, [0, 1]) == 0.0  # load 3 == C
    assert min_slack_penalty(qc, [1, 1]) >= qc.penalty_m  # load 5 > C


def test_capacity_equivalence_over_all_decision_vectors():
    # single-camera requests with no pair/triple constraints isolate the
    # capacity term, so the whole min-slack penalty is the capacity penalty
    rng = np.random.default_rng(53)
    for trial in range(15):
        k = int(rng.integers(1, 7))
        caps = [int(rng.integers(0, 6)) for _ in range(k)]
        if not any(caps):
            continue
        inst = Instance(
            name=f"cape{trial}",
            requests=tuple(_mono(i, caps={1: caps[i]}) for i in range(k)),
            disk_capacity=int(rng.integers(0, sum(caps) + 1)),
        )
        q = encode(inst)
        n = q.n
        for state in range(1 << n):
            bits = [(state >> i) & 1 for i in range(n)]
            load = sum(inst.capacity_of(ref) * b for ref, b in zip(inst.variables, bits))
            penalty = min_slack_penalty(q, bits)
            if load <= inst.disk_capacity:
                assert penalty == 0.0
            else:
                assert penalty >= q.penalty_m


def test_global_optimum_correspondence():
    rng = np.random.default_rng(59)
    checked = 0
    for trial in range(40):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(2, 6)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 3)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"gopt{trial}",
        )
        q = encode(inst)
        if q.num_variables > 20:
            continue
        checked += 1
        table = q.energy_table()
        winner = int(np.argmin(table))
        bits = np.array([(winner >> i) & 1 for i in range(q.num_variables)], dtype=np.uint8)
        assignment = q.decode(bits)
        assert check_feasible(inst, assignment).feasible
        f_max = solve_exact(inst).best_value
        assert sum(inst.weight_of(ref.request_id) for ref in assignment.taken) == f_max
    assert checked >= 15


def test_penalty_sufficiency_default_m():
    rng = np.random.default_rng(61)
    checked = 0
    for trial in range(30):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(2, 5)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 2)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"suff{trial}",
        )
        q = encode_checked(inst)
        if q.num_variables > 16:
            continue
        checked += 1
        n, s = q.n, q.s
        table = q.energy_table().reshape(1 << s, 1 << n)
        min_over_slack = table.min(axis=0)
        feasible = feasible_decision_mask(inst)
        optimum = min_over_slack.min()
        assert feasible.any()
        if (~feasible).any():
            assert min_over_slack[~feasible].min() > optimum
            # feasible states carry no penalty at their best slack setting
        best_feasible = min_over_slack[feasible].min()
        assert optimum == best_feasible
    assert checked >= 10


def test_slack_count_formula():
    rng = np.random.default_rng(67)
    for trial in range(25):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(1, 7)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 4)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"slack{trial}",
        )
        q = encode(inst)
        index = inst.variable_index
        pairs = {
            tuple(sorted(index[r] for r in t)[1:]) for t in inst.ternary_forbidden
        }
        expected = len(pairs)
        if inst.disk_capacity is not None and any(
            inst.capacity_of(ref) for ref in inst.variables
        ):
            expected += capacity_slack_count(inst.disk_capacity)
        assert q.s == expected


def test_decode_examples():
    inst = Instance(
        name="d",
        requests=(_mono(3, cams=(1, 2)),),
    )
    q = encode(inst)
    assert q.decode([0, 0]).taken == ()
    assert q.decode([0, 1]).camera_map() == {3: 2}


def test_decode_flatten_identity():
    rng = np.random.default_rng(71)
    for trial in range(20):
        inst = random_instance(rng, n_requests=int(rng.integers(1, 6)), name=f"df{trial}")
        q = encode(inst)
        n = q.n
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        a = Assignment.from_bits(inst, bits)
        full = np.concatenate([a.to_bits(inst), np.zeros(q.s, dtype=np.uint8)])
        assert q.decode(full) == a


def test_export_json_shape():
    inst = Instance(
        name="x",
        requests=(_mono(0, weight=2.0, cams=(1, 2)),),
        binary_forbidden=frozenset({(VarRef(0, 1), VarRef(0, 2))}),
    )
    q = encode(inst)
    doc = json.loads(q.to_json())
    assert set(doc) == {"n", "s", "offset", "m", "terms"}
    assert doc["n"] == 2 and doc["s"] == 0
    ids = [(i, j) for i, j, _ in doc["terms"]]
    assert ids == sorted(ids)
    assert all(i <= j for i, j in ids)
    assert q.to_json() == encode(inst).to_json()  # deterministic
