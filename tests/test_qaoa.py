import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import satplan.qaoa as qaoa
from satplan import (
    OptimizerConfig,
    QaoaParams,
    ReductionSpec,
    apply_ansatz,
    encode,
    expectation,
    optimize_layer,
    reduce,
    run_schedule,
    sample_state,
    solve_exhaustive,
    uniform_state,
)
from satplan.qaoa import _apply_mixer
from test_ising import random_integer_qubo
from helpers import (
    acceptance_source,
    assert_bitwise_equal,
    random_instance,
    reference_apply_ansatz,
    reference_per_qubit_mixer,
)


def test_zero_angles_leave_uniform_state():
    rng = np.random.default_rng(1)
    table = random_integer_qubo(rng, 4).energy_table()
    psi = apply_ansatz(table, QaoaParams((0.0,), (0.0,)))
    assert np.array_equal(psi, uniform_state(4))


def test_norm_preserved_after_every_layer():
    rng = np.random.default_rng(3)
    for _ in range(5):
        table = random_integer_qubo(rng, 8).energy_table()
        gammas = tuple(rng.uniform(0, 2 * np.pi, size=4))
        betas = tuple(rng.uniform(0, np.pi, size=4))
        for layers in range(1, 5):
            psi = apply_ansatz(table, QaoaParams(gammas[:layers], betas[:layers]))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_single_qubit_pauli_z_quarter_turn():
    # H = Z, gamma = 0, beta = pi/2: RX(pi) on |+> is |+> up to global phase
    table = np.array([1.0, -1.0])
    psi = apply_ansatz(table, QaoaParams((0.0,), (np.pi / 2,)))
    plus = uniform_state(1)
    phase = psi[0] / plus[0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(psi, phase * plus, atol=1e-12)
    assert abs(expectation(table, psi)) < 1e-12


def test_expectation_of_uniform_state_is_mean_energy():
    rng = np.random.default_rng(7)
    q = random_integer_qubo(rng, 8)
    value = expectation(q.energy_table(), uniform_state(8))
    assert abs(value - q.energy_table().mean()) < 1e-9


def test_expectation_of_basis_state_is_exact():
    rng = np.random.default_rng(11)
    table = random_integer_qubo(rng, 6).energy_table()
    for k in (0, 13, 63):
        psi = np.zeros(64, dtype=np.complex128)
        psi[k] = 1.0
        assert expectation(table, psi) == table[k]


def test_expectation_bounded_below_by_exhaustive_minimum():
    rng = np.random.default_rng(13)
    for _ in range(5):
        q = random_integer_qubo(rng, 6)
        table = q.energy_table()
        _, floor = solve_exhaustive(q)
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * np.pi, size=2)), tuple(rng.uniform(0, np.pi, size=2))
        )
        psi = apply_ansatz(table, params)
        assert expectation(table, psi) >= floor - 1e-9


def test_cost_phase_identity_at_zero_and_full_turns():
    rng = np.random.default_rng(17)
    table = random_integer_qubo(rng, 5).energy_table()
    psi = uniform_state(5)
    assert np.array_equal(psi * np.exp(-1j * 0.0 * table), psi)
    # integer energies: a full turn is the identity up to float rounding
    full_turn = psi * np.exp(-1j * 2 * np.pi * table)
    assert np.allclose(full_turn, psi, atol=1e-10)


def test_mixer_half_turn_flips_basis_states():
    rng = np.random.default_rng(19)
    n = 5
    k = int(rng.integers(0, 1 << n))
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[k] = 1.0
    flipped = _apply_mixer(psi, np.pi / 2, np.empty_like(psi))
    probs = np.abs(flipped) ** 2
    complement = k ^ ((1 << n) - 1)
    assert probs[complement] == pytest.approx(1.0, abs=1e-12)


SPECIAL_ANGLES = (0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1e-3, -1e-3, 1e3, -1e3)


def _mixer_angles(rng: np.random.Generator) -> list[float]:
    return list(SPECIAL_ANGLES) + list(rng.uniform(-np.pi, np.pi, size=4))


def _random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    psi = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return psi / np.linalg.norm(psi)


def _sum_of_x(num_qubits: int) -> np.ndarray:
    """sum_q X_q as a dense matrix, qubit q at bit q of the basis index."""
    index = np.arange(1 << num_qubits)
    h = np.zeros((1 << num_qubits, 1 << num_qubits))
    for qubit in range(num_qubits):
        h[index, index ^ (1 << qubit)] = 1.0
    return h


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_mixer_matches_matrix_exponential(num_qubits):
    from scipy.linalg import expm

    rng = np.random.default_rng(200 + num_qubits)
    h = _sum_of_x(num_qubits)
    for beta in _mixer_angles(rng):
        psi = _random_state(rng, num_qubits)
        want = expm(-1j * beta * h) @ psi
        got = _apply_mixer(psi.copy(), beta, np.empty_like(psi))
        assert np.abs(got - want).max() <= 1e-12
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12


@pytest.mark.parametrize("num_qubits", range(1, 13))
def test_mixer_matches_per_qubit_loop(num_qubits):
    rng = np.random.default_rng(300 + num_qubits)
    for beta in _mixer_angles(rng):
        psi = _random_state(rng, num_qubits)
        want = reference_per_qubit_mixer(psi.copy(), num_qubits, beta)
        got = _apply_mixer(psi.copy(), beta, np.empty_like(psi))
        assert np.abs(got - want).max() <= 1e-12
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
    for beta in (0.0, -0.0):
        uniform = uniform_state(num_qubits)
        assert np.array_equal(_apply_mixer(uniform.copy(), beta, np.empty_like(uniform)), uniform)


def test_mixer_bits_do_not_depend_on_blas_threads():
    """The mixer's matmuls go through OpenBLAS; one and two threads must give
    the same bytes on an 18-qubit state."""
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from satplan.qaoa import _apply_mixer\n"
        "rng = np.random.default_rng(5)\n"
        "psi = rng.normal(size=1 << 18) + 1j * rng.normal(size=1 << 18)\n"
        "scratch = np.empty_like(psi)\n"
        "for beta in (0.3, -1.1, 2.5):\n"
        "    _apply_mixer(psi, beta, scratch)\n"
        "sys.stdout.write(hashlib.sha256(psi.tobytes()).hexdigest())\n"
    )
    src = str(Path(qaoa.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_gamma_is_in_units_of_the_largest_energy_magnitude():
    rng = np.random.default_rng(61)
    params = QaoaParams((0.7, -2.1), (0.4, 1.3))
    assert qaoa._Evaluator(np.zeros(8)).scale == 1.0
    mixers_only = uniform_state(3)
    for beta in params.betas:
        _apply_mixer(mixers_only, beta, np.empty_like(mixers_only))
    assert np.array_equal(apply_ansatz(np.zeros(8), params), mixers_only)
    table = random_integer_qubo(rng, 5).energy_table()
    table[3] = -(np.abs(table).max() + 5.0)  # the largest magnitude is negative
    scale = -table[3]
    assert qaoa._Evaluator(table).scale == scale
    assert qaoa._Evaluator(table / scale).scale == 1.0
    assert_bitwise_equal(apply_ansatz(table, params), apply_ansatz(table / scale, params))
    # a small table is scaled up to magnitude 1 as well
    assert_bitwise_equal(apply_ansatz(table / scale / 64, params), apply_ansatz(table, params))


def test_expectations_and_samples_stay_in_qubo_energies():
    rng = np.random.default_rng(73)
    q = encode(random_instance(rng, n_requests=3, n_pairs=1, n_triples=0, name="units"))
    table = q.energy_table()
    assert np.abs(table).max() > 1.0  # so a scaled energy would differ
    cfg = OptimizerConfig(max_evals=40)
    for result in run_schedule(table, max_layers=2, n_inits=2, cfg=cfg, seed=4, reads=100):
        psi = apply_ansatz(table, result.params)
        assert result.expectation == expectation(table, psi)
        assert result.expectation == float(np.abs(psi) ** 2 @ table)
        for entry in result.samples.entries:
            assert entry.energy == q.energy(entry.bit_array())


def _angle_sets(rng: np.random.Generator, layers: int) -> list[QaoaParams]:
    """Every special angle as a gamma and as a beta, then random angles:
    gamma with magnitude 1e-3..1e3 and either sign, beta in [-pi, pi]."""
    k = len(SPECIAL_ANGLES)
    sets = [
        QaoaParams(
            tuple(SPECIAL_ANGLES[(i + j) % k] for j in range(layers)),
            tuple(SPECIAL_ANGLES[(i + 3 * j + 1) % k] for j in range(layers)),
        )
        for i in range(k)
    ]
    for _ in range(6):
        gammas = rng.choice([-1.0, 1.0], size=layers) * 10.0 ** rng.uniform(-3, 3, size=layers)
        sets.append(QaoaParams(tuple(gammas), tuple(rng.uniform(-np.pi, np.pi, size=layers))))
    return sets


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_ansatz_matches_reference_bit_for_bit(num_qubits, layers):
    rng = np.random.default_rng(100 * num_qubits + layers)
    ising = random_integer_qubo(rng, num_qubits).to_ising()
    table = ising.energy_table()
    for params in _angle_sets(rng, layers):
        new = apply_ansatz(table, params)
        ref = reference_apply_ansatz(ising, params, table)
        assert_bitwise_equal(new, ref)


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_ansatz_matches_reference_on_capacity_instance(layers):
    inst = reduce(acceptance_source(), ReductionSpec(4, True, 1))
    q = encode(inst)
    assert inst.disk_capacity > 0
    assert q.num_variables == 10 > len(inst.variables)  # capacity slack bits
    ising = q.to_ising()
    table = ising.energy_table()
    for params in _angle_sets(np.random.default_rng(layers), layers):
        assert_bitwise_equal(
            apply_ansatz(table, params), reference_apply_ansatz(ising, params, table)
        )


def _resume_sequence(rng: np.random.Generator, layers: int) -> list[QaoaParams]:
    """Angle vectors that exercise every way one evaluation can follow the
    previous one; the flat layout is gammas, then betas."""
    base = rng.uniform(-np.pi, np.pi, size=2 * layers)
    op_order = [j for k in range(layers) for j in (k, layers + k)]  # gamma 1, beta 1, ...
    seq = [base]
    # one coordinate at a time, at every position: last op first, then op 0 first
    for j in op_order[::-1] + op_order:
        x = seq[-1].copy()
        x[j] += 0.25
        seq.append(x)
    seq.append(seq[-1].copy())  # an exact repeat, leaving the checkpoint after the last op
    x = seq[-1].copy()
    x[0] -= 0.5  # op 0 changes after that deep checkpoint
    seq.append(x)
    for j in op_order[::-1]:
        for zero in (0.0, -0.0, 0.0):
            x = seq[-1].copy()
            x[j] = zero
            seq.append(x)
    params = [QaoaParams.from_flat(x) for x in seq]
    last = params[-1]
    fewer = QaoaParams(last.gammas[:-1], last.betas[:-1]) if layers > 1 else last
    params += [fewer, last.extended(0.5, -0.0), last, fewer.extended(0.0, 0.0)]
    return params


def _op_bits(params: QaoaParams) -> np.ndarray:
    return np.array([a for layer in zip(params.gammas, params.betas) for a in layer]).view(np.uint64)


@pytest.mark.parametrize("signed_zero_table", [False, True])
def test_resumed_evaluations_match_reference_bit_for_bit(monkeypatch, signed_zero_table):
    rng = np.random.default_rng(53)
    ising = random_integer_qubo(rng, 5).to_ising()
    table = ising.energy_table()
    if signed_zero_table:
        table = np.where(rng.random(table.size) < 0.5, -0.0, table)
        table[:4] = (0.0, -0.0, 0.0, -0.0)
    mixers = []
    mixer = qaoa._apply_mixer
    monkeypatch.setattr(qaoa, "_apply_mixer", lambda *args: mixers.append(1) or mixer(*args))
    evaluator = qaoa._Evaluator(table)
    prev_bits, kept = np.empty(0, dtype=np.uint64), 0
    for params in _resume_sequence(rng, 3):
        mixers.clear()
        psi = apply_ansatz(table, params, evaluator)
        assert_bitwise_equal(psi, reference_apply_ansatz(ising, params, table))
        # the retained state sits before the previous call's first changed op
        # (angles compared by bit pattern): a call whose own first change is no
        # earlier resumes from it, any other call starts again from op 0.  A
        # 0.0/-0.0 swap leaves these states' bits as they are, so only the
        # replayed ops show an evaluator that compares angles with ==
        bits = _op_bits(params)
        shared = min(len(bits), len(prev_bits))
        changed = np.flatnonzero(bits[:shared] != prev_bits[:shared])
        first = int(changed[0]) if len(changed) else shared
        start = kept if first >= kept else 0
        assert len(mixers) == sum(op % 2 for op in range(start, len(bits)))
        prev_bits, kept = bits, first


def test_evaluator_runs_in_its_own_buffers():
    nq = 16
    table = random_integer_qubo(np.random.default_rng(67), nq).energy_table()
    state_bytes = 16 << nq
    rng = np.random.default_rng(71)
    first = QaoaParams(tuple(rng.uniform(0, 2 * np.pi, 4)), tuple(rng.uniform(0, np.pi, 4)))
    # a fresh start, a resume after the last op, a restart from op 0, fewer layers
    sequence = [
        first,
        QaoaParams(first.gammas, first.betas[:-1] + (0.5,)),
        QaoaParams((0.25,) + first.gammas[1:], first.betas),
        QaoaParams(first.gammas[:2], first.betas[:2]),
    ]
    calls = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluator = qaoa._Evaluator(table)
        held = tracemalloc.get_traced_memory()[0] - before
        for params in sequence:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            psi = apply_ansatz(table, params, evaluator)
            value = qaoa.expectation(table, psi, evaluator.probs)
            current, peak = tracemalloc.get_traced_memory()
            calls.append((peak - start, current - start))
            # |psi|^2 in the evaluator's buffer is the same as in a new array
            assert value == qaoa.expectation(table, psi)
            assert_bitwise_equal(evaluator.probs, np.abs(psi) ** 2)
            assert_bitwise_equal(psi, apply_ansatz(table, params))
    finally:
        tracemalloc.stop()
    # the retained state, the work state, the phase buffer and a one-byte index
    assert evaluator._index.itemsize == 1
    assert held <= 3.1 * state_bytes
    # np.take casts each chunk of the inverse index to intp; the mixer's
    # matmuls write straight into the evaluator's buffers
    gather_index = np.dtype(np.intp).itemsize * qaoa._GATHER_CHUNK
    # an evaluation with its expectation peaks at the evaluator's own buffers
    for peak, kept in calls:
        assert peak < 0.1 * state_bytes + gather_index
        assert held + peak < 3.1 * state_bytes + gather_index
        assert kept < 0.01 * state_bytes


def test_schedule_matches_reference_ansatz(monkeypatch):
    inst = reduce(acceptance_source(), ReductionSpec(4, True, 1))
    q = encode(inst)
    assert inst.disk_capacity > 0
    ising = q.to_ising()
    table = q.energy_table()
    kwargs = dict(max_layers=3, n_inits=2, cfg=OptimizerConfig(max_evals=200), seed=9, reads=200)
    resumed = run_schedule(table, **kwargs)

    def reference(energy_table, params, _evaluator=None):
        return reference_apply_ansatz(ising, params, energy_table)

    monkeypatch.setattr(qaoa, "apply_ansatz", reference)
    assert run_schedule(table, **kwargs) == resumed


def test_schedule_builds_one_evaluator(monkeypatch):
    built = []

    class Counted(qaoa._Evaluator):
        def __init__(self, energy_table):
            built.append(1)
            super().__init__(energy_table)

    monkeypatch.setattr(qaoa, "_Evaluator", Counted)
    table = random_integer_qubo(np.random.default_rng(59), 5).energy_table()
    cfg = OptimizerConfig(max_evals=30)
    results = run_schedule(table, max_layers=3, n_inits=2, cfg=cfg, seed=1, reads=50)
    assert len(results) == 3
    assert len(built) == 1


@pytest.mark.parametrize("max_evals", [1, 5, 40])
def test_optimizer_stays_within_evaluation_budget(monkeypatch, max_evals):
    calls = []
    original = qaoa.apply_ansatz

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qaoa, "apply_ansatz", counted)
    table = random_integer_qubo(np.random.default_rng(43), 5).energy_table()
    init = QaoaParams((0.4, 0.0), (0.3, 0.0))
    optimize_layer(table, init, OptimizerConfig(max_evals=max_evals))
    # one evaluation at init, then at most max_evals by the optimizer
    assert 2 <= len(calls) <= max_evals + 1


def test_layer_expectations_never_increase():
    rng = np.random.default_rng(47)
    tables = [random_integer_qubo(rng, 6).energy_table() for _ in range(2)]
    inst = random_instance(rng, n_requests=3, n_pairs=1, n_triples=0, name="mono")
    tables.append(encode(inst).energy_table())
    for table in tables:
        results = run_schedule(
            table, max_layers=4, n_inits=2, cfg=OptimizerConfig(max_evals=60), seed=3, reads=50
        )
        # each stage starts at the previous optimum plus a zero-angle
        # layer, the same state, and keeps the best value it sees
        for prev, nxt in zip(results, results[1:]):
            assert nxt.expectation <= prev.expectation


def test_optimize_single_qubit_reaches_ground_state():
    # energies 0 and -1; dense grid search locates the basin, the local
    # optimizer must then reach the exact ground state
    table = np.array([0.0, -1.0])
    best_grid = None
    for gamma in np.linspace(0, 2 * np.pi, 24, endpoint=False):
        for beta in np.linspace(0, np.pi, 24, endpoint=False):
            params = QaoaParams((float(gamma),), (float(beta),))
            val = expectation(table, apply_ansatz(table, params))
            if best_grid is None or val < best_grid[0]:
                best_grid = (val, params)
    params, value = optimize_layer(table, best_grid[1])
    assert value <= best_grid[0] + 1e-12
    assert value <= -0.99


def test_optimizer_never_worse_than_init():
    rng = np.random.default_rng(23)
    table = random_integer_qubo(rng, 5).energy_table()
    init = QaoaParams((1.0, 0.5), (0.3, 0.8))
    init_value = expectation(table, apply_ansatz(table, init))
    params, value = optimize_layer(table, init)
    assert value <= init_value
    # restarting at an optimum keeps it (within tolerance)
    params2, value2 = optimize_layer(table, params)
    assert value2 <= value + 1e-6


def test_sampling_determinism_and_counts():
    rng = np.random.default_rng(29)
    table = random_integer_qubo(rng, 5).energy_table()
    psi = apply_ansatz(table, QaoaParams((0.7,), (0.4,)))
    a = sample_state(psi, 500, seed=7, energy_table=table)
    b = sample_state(psi, 500, seed=7, energy_table=table)
    assert a == b
    assert a.total_reads == 500


def test_sampled_mean_tracks_expectation():
    rng = np.random.default_rng(31)
    table = random_integer_qubo(rng, 6).energy_table()
    psi = apply_ansatz(table, QaoaParams((0.9,), (0.5,)))
    mean_energy = expectation(table, psi)
    probs = np.abs(psi) ** 2
    variance = float(probs @ table**2 - mean_energy**2)
    reads = 2000
    samples = sample_state(psi, reads, seed=3, energy_table=table)
    sampled_mean = sum(e.energy * e.count for e in samples.entries) / reads
    stderr = (variance / reads) ** 0.5
    assert abs(sampled_mean - mean_energy) <= 4 * stderr


def test_run_schedule_shape_and_determinism():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, n_requests=3, n_pairs=1, n_triples=0, name="sched")
    table = encode(inst).energy_table()
    a = run_schedule(table, max_layers=3, n_inits=2, seed=5, reads=200)
    b = run_schedule(table, max_layers=3, n_inits=2, seed=5, reads=200)
    assert [r.layer for r in a] == [1, 2, 3]
    assert a == b
    for prev, nxt in zip(a, a[1:]):
        assert nxt.params.layers == prev.params.layers + 1


def test_single_layer_schedule_beats_uniform_mean():
    rng = np.random.default_rng(41)
    q = random_integer_qubo(rng, 4)
    results = run_schedule(q.energy_table(), max_layers=1, n_inits=3, seed=11, reads=100)
    assert len(results) == 1
    assert results[0].expectation <= q.energy_table().mean() + 1e-9


def test_single_layer_schedule_one_variable():
    table = np.array([0.0, -1.0])
    results = run_schedule(table, max_layers=1, n_inits=5, seed=2, reads=100)
    assert len(results) == 1
    assert results[0].expectation <= -0.5  # uniform-superposition mean


def test_size_guard():
    params = QaoaParams((0.1,), (0.1,))
    # 27 qubits, and tables whose length is no power of two or names no qubit;
    # zero-stride views, so the 2^27-entry table is never allocated
    for entries in (1 << 27, 0, 1, 3, 6):
        table = np.broadcast_to(np.zeros(1), (entries,))
        with pytest.raises(ValueError):
            apply_ansatz(table, params)
        with pytest.raises(ValueError):
            run_schedule(table, max_layers=1, n_inits=1, reads=1)


def test_param_validation():
    with pytest.raises(ValueError):
        QaoaParams((), ())
    with pytest.raises(ValueError):
        QaoaParams((0.1,), (0.1, 0.2))
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    bad = [
        dict(tolerance=-1e-6), dict(tolerance=math.nan), dict(tolerance=math.inf),
        dict(tolerance=True), dict(tolerance="1e-6"), dict(max_evals=0),
        dict(max_evals=-3), dict(max_evals=2.5), dict(max_evals=True),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            OptimizerConfig(**kwargs)
    assert OptimizerConfig(tolerance=1, max_evals=1).max_evals == 1


# Powell's method runs in satplan.qaoa as a port of scipy 1.17.1's path.
# These tests hold it to scipy's own: the objective must receive the same
# points, bit for bit and in the same order.  A scipy release that changes
# Powell's path fails them by design.


def _scipy_powell(func, x0, tol, max_evals):
    from scipy.optimize import minimize

    minimize(func, x0, method="Powell", tol=tol, options={"maxfev": max_evals})


def _points(search, func, x0, tol=1e-6, max_evals=1000):
    """The points ``search`` evaluates ``func`` at, as bytes, and the type
    of the RuntimeError it raised, if any."""
    points = []

    def recorded(x):
        points.append(np.asarray(x, dtype=np.float64).tobytes())
        return func(x)

    try:
        search(recorded, np.array(x0, dtype=np.float64), tol, max_evals)
    except RuntimeError as exc:
        return points, type(exc)
    return points, None


@pytest.mark.parametrize(
    "func, x0, overflows, error",
    [
        # bounded and monotone: one bracket is invalid, its lowest point wins
        (lambda x: -math.atan(x[0]) - math.tanh(x[1]), [0.5, 0.2], False, None),
        (lambda x: 3.0, [0.5, 0.2], False, None),
        (lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2, [-1.2, 1.0], False, None),
        # NaN on part of each line
        (lambda x: math.nan if x[0] > 1.5 else (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2,
         [0.0, 0.0], False, None),
        (lambda x: math.nan, [0.0, 0.0], False, None),
        # unbounded below: the brackets' parabola products overflow, and
        # the budget ends the search
        (lambda x: x[0] + 2.0 * x[1], [0.0, 0.0], True, None),
        # concave: the bracket grows by the golden ratio until its iteration
        # limit, a RuntimeError, before the budget runs out
        (lambda x: -abs(x[0]) ** 1.2 - abs(x[1]) ** 1.2, [0.0, 0.0], True, RuntimeError),
    ],
    ids=["monotone", "constant", "rosenbrock", "partly-nan", "all-nan", "linear", "concave"],
)
def test_powell_evaluates_scipys_points(func, x0, overflows, error):
    def objective(x):
        return float(func([float(v) for v in x]))

    budget = 1000 if error is None else 2000
    with np.errstate(over="ignore", invalid="ignore") if overflows else np.errstate():
        ported = _points(qaoa._powell, objective, x0, max_evals=budget)
        reference = _points(_scipy_powell, objective, x0, max_evals=budget)
    assert ported == reference
    assert len(ported[0]) > 3 and ported[1] is error


@pytest.mark.parametrize(
    "spec, max_evals",
    [
        ((3, False, 0), 1000),  # 10 qubits: 91, 513, 853 and 102 evaluations
        ((4, True, 2), 1000),  # 9 qubits: layers 3 and 4 use their budget
        ((3, False, 0), 1),
        ((3, False, 0), 2),
        ((3, False, 0), 5),
        ((3, False, 0), 40),
    ],
)
def test_qaoa_layers_evaluate_scipys_points(monkeypatch, spec, max_evals):
    target, with_capacity, seed = spec
    inst = reduce(acceptance_source(), ReductionSpec(target, with_capacity, seed))
    table = encode(inst).energy_table()
    cfg = OptimizerConfig(max_evals=max_evals)
    runs = []
    for search in (qaoa._powell, _scipy_powell):
        layers = []

        def recorded(func, x0, tol, budget, search=search, layers=layers):
            points, error = _points(search, func, x0, tol, budget)
            assert error is None
            layers.append(points)

        monkeypatch.setattr(qaoa, "_powell", recorded)
        results = run_schedule(table, max_layers=4, n_inits=1, cfg=cfg, seed=seed, reads=50)
        runs.append((layers, [r.to_json_dict() for r in results]))
    assert runs[0] == runs[1]
    assert all(len(points) <= max_evals for points in runs[0][0])
