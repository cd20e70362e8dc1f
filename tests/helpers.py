"""Shared builders and independent oracles for the test suite.

The oracles here recompute results from first principles (full enumeration,
penalty polynomials written out directly) and deliberately do not share
code with the library paths they check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from satplan import (
    AnnealSchedule,
    Assignment,
    ExactResult,
    Instance,
    Qubo,
    IsingModel,
    QaoaParams,
    Request,
    RunMetrics,
    SampleEntry,
    SampleSet,
    VarRef,
    check_feasible,
    encode,
    objective,
    uniform_state,
)
from satplan.anneal import anneal_settings
from satplan.exact import DEFAULT_NODE_BUDGET
from satplan.qaoa import _apply_mixer, _check_size

CAMERA_SUBSETS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def random_instance(
    rng: np.random.Generator,
    n_requests: int,
    stereo_prob: float = 0.25,
    n_pairs: int = 1,
    n_triples: int = 1,
    with_capacity: bool = False,
    max_weight: int = 10,
    name: str = "random",
    reach: int | None = None,
) -> Instance:
    """Random valid instance with integer weights and capacities.

    With ``reach`` set, every pair and triple joins only requests whose ids
    differ by at most ``reach``, as SPOT5's conflicts are local; otherwise
    constraints are drawn over all variables."""
    requests = []
    for rid in range(n_requests):
        weight = float(rng.integers(1, max_weight + 1))
        if rng.random() < stereo_prob:
            req = Request(id=rid, kind="stereo", weight=weight, allowed_cameras=(4,))
        else:
            cams = CAMERA_SUBSETS[rng.integers(0, len(CAMERA_SUBSETS))]
            req = Request(id=rid, kind="mono", weight=weight, allowed_cameras=cams)
        requests.append(req)

    variables = [
        VarRef(req.id, cam) for req in requests for cam in req.allowed_cameras
    ]

    def draw_constraints(arity: int, count: int):
        out = set()
        if len(variables) < arity:
            return out
        attempts = 0
        while len(out) < count and attempts < 50 * count:
            attempts += 1
            if reach is None:
                picks = rng.choice(len(variables), size=arity, replace=False)
            else:
                first = int(rng.integers(0, len(variables)))
                rid = variables[first].request_id
                near = [i for i, v in enumerate(variables)
                        if i != first and abs(v.request_id - rid) <= reach]
                if len(near) < arity - 1:
                    continue
                picks = [first] + [near[i] for i in rng.choice(len(near), arity - 1, replace=False)]
            refs = tuple(sorted(variables[i] for i in picks))
            out.add(refs)
        return out

    pairs = draw_constraints(2, n_pairs)
    triples = draw_constraints(3, n_triples)

    disk = None
    if with_capacity:
        total = 0
        for req in requests:
            caps = {}
            for cam in req.allowed_cameras:
                if rng.random() < 0.7:
                    caps[cam] = int(rng.integers(0, 5))
            req_caps = Request(
                id=req.id,
                kind=req.kind,
                weight=req.weight,
                allowed_cameras=req.allowed_cameras,
                capacity_by_camera=caps,
            )
            requests[req.id] = req_caps
            total += max(caps.values(), default=0)
        disk = int(rng.integers(0, total + 1)) if total else 0

    return Instance(
        name=name,
        requests=tuple(requests),
        binary_forbidden=frozenset(pairs),
        ternary_forbidden=frozenset(triples),
        disk_capacity=disk,
    )


def encode_checked(inst: Instance, m: float | None = None) -> Qubo:
    """``encode(inst, m)``, asserting the warning it gives when the instance
    has a disk capacity that no variable uses (the capacity penalty is left
    out); any other warning fails the test, as the suite's filters make
    every ``UserWarning`` an error."""
    if inst.disk_capacity is not None and not any(inst.capacity_of(v) for v in inst.variables):
        with pytest.warns(UserWarning, match="no request uses disk"):
            return encode(inst, m)
    return encode(inst, m)


def acceptance_source() -> Instance:
    """Hand-authored 12-request instance used as the reduction source in
    the acceptance suite: mixed mono/stereo, pair and triple constraints,
    and a nonzero capacity entry on every request."""
    kinds = ["mono", "stereo", "mono", "mono", "stereo", "mono",
             "mono", "mono", "stereo", "mono", "mono", "mono"]
    cam_sets = [(1, 2), (4,), (1,), (2, 3), (4,), (1, 2, 3),
                (3,), (1, 3), (4,), (2,), (1, 2), (2, 3)]
    requests = tuple(
        Request(
            id=i,
            kind=kind,
            weight=float((i % 4) + 1),
            allowed_cameras=cams,
            capacity_by_camera={cams[0]: (i % 3) + 1},
        )
        for i, (kind, cams) in enumerate(zip(kinds, cam_sets))
    )
    V = VarRef
    triples = {
        (V(0, 1), V(2, 1), V(3, 2)),
        (V(1, 4), V(4, 4), V(5, 1)),
        (V(6, 3), V(7, 1), V(9, 2)),
        (V(2, 1), V(5, 2), V(10, 1)),
        (V(3, 3), V(8, 4), V(11, 2)),
    }
    pairs = {
        (V(0, 2), V(1, 4)),
        (V(2, 1), V(3, 2)),
        (V(5, 3), V(6, 3)),
        (V(7, 3), V(9, 2)),
        (V(10, 2), V(11, 3)),
    }
    return Instance(
        name="bench-src",
        requests=requests,
        binary_forbidden=frozenset(pairs),
        ternary_forbidden=frozenset(triples),
    )


def brute_force_best(inst: Instance) -> tuple[float, Assignment]:
    """Reference optimum by enumerating every decision bit vector."""
    n = len(inst.variables)
    best_value = 0.0
    best = Assignment(())
    for k in range(1 << n):
        bits = [(k >> i) & 1 for i in range(n)]
        a = Assignment.from_bits(inst, bits)
        if not check_feasible(inst, a).feasible:
            continue
        value = objective(inst, a)
        if value > best_value:
            best_value = value
            best = a
    return best_value, best


def reference_ar(inst: Instance, f_max: float, decision_bits) -> tuple[bool, float]:
    """(feasible, AR) of one decision vector, decoded into an ``Assignment``
    and scored by ``check_feasible`` and ``objective``."""
    assignment = Assignment.from_bits(inst, decision_bits)
    if not check_feasible(inst, assignment).feasible:
        return False, 0.0
    return True, objective(inst, assignment) / f_max


def reference_run_metrics(inst: Instance, f_max: float, samples: SampleSet) -> RunMetrics:
    """The per-entry scoring loop that the batched ``run_metrics`` replaced.
    ``run_metrics`` must return exactly the same metrics."""
    weighted_ar = 0.0
    feasible_reads = 0
    best = 0.0
    for entry in samples.entries:
        feasible, ar = reference_ar(inst, f_max, entry.bit_array()[: len(inst.variables)])
        weighted_ar += entry.count * ar
        if feasible:
            feasible_reads += entry.count
        if ar > best:
            best = ar
    total = samples.total_reads
    return RunMetrics(
        expected_ar=weighted_ar / total,
        best_ar=best,
        feasible_fraction=feasible_reads / total,
        reads=total,
    )


def reference_energy(inst: Instance, m: float, bits: np.ndarray) -> float:
    """Recompute the encoded energy of a full (decision + slack) bit vector
    straight from the penalty definitions, independent of the encoder."""
    index = inst.variable_index
    n = len(inst.variables)
    x = [int(b) for b in bits]

    energy = -sum(
        inst.weight_of(ref.request_id) * x[i] for i, ref in enumerate(inst.variables)
    )

    for req in inst.requests:
        ids = [index[VarRef(req.id, cam)] for cam in req.allowed_cameras]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                energy += m * x[ids[a]] * x[ids[b]]

    for p, q in inst.binary_forbidden:
        energy += m * x[index[p]] * x[index[q]]

    # ternary slack layout: one slack per distinct substituted pair, in
    # first-appearance order over canonically sorted triples
    slack_pos: dict[tuple[int, int], int] = {}
    for triple in sorted(inst.ternary_forbidden):
        ip, iq, ir = sorted(index[r] for r in triple)
        key = (iq, ir)
        if key not in slack_pos:
            slack_pos[key] = n + len(slack_pos)
        s = x[slack_pos[key]]
        energy += m * (x[ip] * s + x[iq] * x[ir] - 2 * x[iq] * s - 2 * x[ir] * s + 3 * s)

    if inst.disk_capacity is not None:
        loads = [
            (i, inst.capacity_of(ref))
            for i, ref in enumerate(inst.variables)
            if inst.capacity_of(ref) != 0
        ]
        if loads:
            cap = inst.disk_capacity
            digits = 0
            while 2**digits - 1 < cap:
                digits += 1
            base = n + len(slack_pos)
            total = sum(c * x[i] for i, c in loads)
            total += sum(2**d * x[base + d] for d in range(digits))
            energy += m * (total - cap) ** 2

    return float(energy)


def assert_bitwise_equal(new: np.ndarray, ref: np.ndarray) -> None:
    # compare the bits, not the floats: -0.0 == 0.0 as floats
    assert new.dtype == ref.dtype
    assert np.array_equal(new.view(np.uint8), ref.view(np.uint8))


def reference_energy_table(q: Qubo) -> np.ndarray:
    """The 2^N table as ``Qubo.energy_table`` built it before it worked in
    place: a ``uint32`` index array and ``e += v * bit`` over every entry
    for each term.  The in-place table must equal it bit for bit."""
    nv = q.num_variables
    idx = np.arange(1 << nv, dtype=np.uint32)
    e = np.full(1 << nv, q.offset)
    for i, j, v in q.terms():
        bi = (idx >> np.uint32(i)) & np.uint32(1)
        if i == j:
            e += v * bi
        else:
            e += v * (bi * ((idx >> np.uint32(j)) & np.uint32(1)))
    return e


def reference_ising_table(ising: IsingModel) -> np.ndarray:
    """The 2^N table of ``IsingModel.energy_table`` before it worked in
    place, as ``e += h_i * z_i`` and ``e += v * (z_i * z_j)`` over every
    entry.  The in-place table must equal it bit for bit."""
    nv = ising.num_variables
    idx = np.arange(1 << nv, dtype=np.uint32)
    e = np.full(1 << nv, ising.offset)
    for i in range(nv):
        zi = 1.0 - 2.0 * ((idx >> np.uint32(i)) & np.uint32(1))
        e += ising.h[i] * zi
    for i, j, v in ising.j_terms():
        zi = 1.0 - 2.0 * ((idx >> np.uint32(i)) & np.uint32(1))
        zj = 1.0 - 2.0 * ((idx >> np.uint32(j)) & np.uint32(1))
        e += v * (zi * zj)
    return e


def feasible_decision_mask(inst: Instance) -> np.ndarray:
    """Boolean mask over all 2^n decision vectors, vectorised."""
    index = inst.variable_index
    n = len(inst.variables)
    idx = np.arange(1 << n, dtype=np.uint32)

    def bit(i: int) -> np.ndarray:
        return (idx >> np.uint32(i)) & np.uint32(1)

    ok = np.ones(1 << n, dtype=bool)
    for req in inst.requests:
        ids = [index[VarRef(req.id, cam)] for cam in req.allowed_cameras]
        taken = sum(bit(i).astype(np.int64) for i in ids)
        ok &= taken <= 1
    for p, q in inst.binary_forbidden:
        ok &= ~((bit(index[p]) & bit(index[q])).astype(bool))
    for t in inst.ternary_forbidden:
        i, j, k = (index[r] for r in t)
        ok &= ~((bit(i) & bit(j) & bit(k)).astype(bool))
    if inst.disk_capacity is not None:
        load = np.zeros(1 << n, dtype=np.int64)
        for i, ref in enumerate(inst.variables):
            c = inst.capacity_of(ref)
            if c:
                load += c * bit(i).astype(np.int64)
        ok &= load <= inst.disk_capacity
    return ok


def reference_from_states(
    states: np.ndarray, energies: np.ndarray, sampler_tag: str, seed: int
) -> SampleSet:
    """The dictionary loop that ``SampleSet.from_states`` replaced: one key
    string per row, each key keeping the energy of its last row, entries
    sorted by (energy, bits).  ``from_states`` must return the same set."""
    tally: dict[str, tuple[float, int]] = {}
    for row, energy in zip(states, energies):
        key = "".join("1" if b else "0" for b in row)
        prev = tally.get(key)
        tally[key] = (float(energy), 1 if prev is None else prev[1] + 1)
    entries = tuple(
        SampleEntry(bits=key, energy=e, count=c)
        for key, (e, c) in sorted(tally.items(), key=lambda kv: (kv[1][0], kv[0]))
    )
    return SampleSet(
        entries=entries, total_reads=int(states.shape[0]), sampler_tag=sampler_tag, seed=seed
    )


def reference_sample_sa(
    q: Qubo,
    reads: int,
    sched: AnnealSchedule | None = None,
    seed: int = 0,
) -> SampleSet:
    """The annealer's plain per-variable Metropolis loop: one
    ``rng.random(reads)`` and one threshold test per (sweep, variable) step,
    on a (reads, variables) layout with the dense couplings, in the
    precision ``anneal_settings`` picks.  A read flips when ``delta <
    -ln(u) / beta``, which is ``u < exp(-beta * delta)`` in distribution.
    ``sample_sa`` must return exactly the same sample set, and the fields
    are checked exact wherever the annealer relies on that: in float32,
    and where it factors out the capacity load."""
    if reads < 1:
        raise ValueError("reads must be >= 1")
    sched = sched or AnnealSchedule()
    rng = np.random.default_rng(seed)
    nv = q.num_variables

    if nv == 0:
        states = np.zeros((reads, 0), dtype=np.uint8)
        return SampleSet.from_states(states, q.energies(states), "sa", seed)

    beta_start, beta_end, precision, factored = anneal_settings(q)
    dtype = np.dtype(precision)
    diag = q.linear_terms().astype(dtype)
    w = q.interaction_matrix().astype(dtype)
    betas = np.geomspace(beta_start, beta_end, sched.sweeps).tolist()

    best_states: np.ndarray | None = None
    best_energies: np.ndarray | None = None
    for _ in range(sched.restarts_per_read):
        states = rng.integers(0, 2, size=(reads, nv), dtype=np.uint8)
        x = states.astype(dtype)
        fields = diag[None, :] + x @ w  # flip cost of var i is (1 - 2 x_i) * field_i
        for beta in betas:
            for i in range(nv):
                delta = (1.0 - 2.0 * x[:, i]) * fields[:, i]
                u = rng.random(reads, dtype=dtype)
                # log(0) = -inf: t = +inf accepts; a t past the largest
                # float accepts every finite delta
                with np.errstate(divide="ignore", over="ignore"):
                    t = np.log(u) * (-1.0 / beta)
                accept = delta < t
                if accept.any():
                    step = np.where(accept, 1.0 - 2.0 * x[:, i], 0.0)
                    x[:, i] += step
                    fields += step[:, None] * w[i][None, :]
        if precision == "float32" or factored:
            # where the annealer relies on exact fields, the updated fields
            # equal the sums recomputed in float64 from the final states
            exact = q.linear_terms() + x.astype(np.float64) @ q.interaction_matrix()
            assert np.array_equal(fields.astype(np.float64), exact)
        states = x.astype(np.uint8)
        energies = q.energies(states)
        if best_states is None:
            best_states, best_energies = states, energies
        else:
            improved = energies < best_energies
            best_states[improved] = states[improved]
            best_energies[improved] = energies[improved]

    return SampleSet.from_states(best_states, best_energies, "sa", seed)


@dataclass
class _SearchState:
    nodes: int = 0
    best_value: float = 0.0
    best_taken: tuple[VarRef, ...] = ()
    exhausted: bool = False
    budget: int = DEFAULT_NODE_BUDGET
    # scratch, indexed by flattened variable id
    taken_mask: list[bool] = field(default_factory=list)
    taken_refs: list[VarRef] = field(default_factory=list)


def reference_solve_exact(
    inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """The recursive branch-and-bound that ``solve_exact`` replaced: one
    Python call per node, scratch lists instead of bitmasks.
    ``solve_exact`` must return exactly the same result, node count
    included.

    Exact maximum-value feasible selection via branch-and-bound.

    Returns the optimum with ``proven_optimal=True`` unless the node budget
    ran out, in which case the best incumbent found so far is returned.
    Ties between equal-value optima go to the first one found in
    depth-first order.
    """
    order = inst.variables
    index = inst.variable_index
    n_req = len(inst.requests)

    # per-request variable ids, ordered cameras ascending
    req_vars: list[list[int]] = []
    weights: list[float] = []
    pos = 0
    for req in inst.requests:
        ids = list(range(pos, pos + len(req.allowed_cameras)))
        req_vars.append(ids)
        weights.append(req.weight)
        pos += len(req.allowed_cameras)

    suffix = [0.0] * (n_req + 1)
    for k in range(n_req - 1, -1, -1):
        suffix[k] = suffix[k + 1] + weights[k]

    pair_partners: list[list[int]] = [[] for _ in order]
    for p, q in inst.binary_forbidden:
        pair_partners[index[p]].append(index[q])
        pair_partners[index[q]].append(index[p])
    triple_partners: list[list[tuple[int, int]]] = [[] for _ in order]
    for t in inst.ternary_forbidden:
        i, j, k = (index[r] for r in t)
        triple_partners[i].append((j, k))
        triple_partners[j].append((i, k))
        triple_partners[k].append((i, j))

    caps = [inst.capacity_of(ref) for ref in order]
    budget_c = inst.disk_capacity  # None: capacities ignored

    st = _SearchState(budget=node_budget)
    st.taken_mask = [False] * len(order)

    def descend(k: int, value: float, load: int) -> None:
        st.nodes += 1
        if st.nodes > st.budget:
            st.exhausted = True
            return
        if k == n_req:
            if value > st.best_value:
                st.best_value = value
                st.best_taken = tuple(st.taken_refs)
            return
        if value + suffix[k] <= st.best_value:
            return  # no completion can beat the incumbent
        for v in req_vars[k]:
            if any(st.taken_mask[u] for u in pair_partners[v]):
                continue
            if any(st.taken_mask[u] and st.taken_mask[w] for u, w in triple_partners[v]):
                continue
            if budget_c is not None and load + caps[v] > budget_c:
                continue
            st.taken_mask[v] = True
            st.taken_refs.append(order[v])
            descend(k + 1, value + weights[k], load + (caps[v] if budget_c is not None else 0))
            st.taken_refs.pop()
            st.taken_mask[v] = False
            if st.exhausted:
                return
        if not st.exhausted:
            descend(k + 1, value, load)

    descend(0, 0.0, 0)
    return ExactResult(
        best_value=st.best_value,
        best_assignment=Assignment(st.best_taken),
        nodes_explored=st.nodes,
        proven_optimal=not st.exhausted,
    )


def reference_per_qubit_mixer(psi: np.ndarray, num_qubits: int, beta: float) -> np.ndarray:
    """RX(2*beta) on every qubit, one qubit at a time: the per-qubit loop
    that the grouped mixer replaced, bit-identical to it.  Updates ``psi``
    in place and returns it."""
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    for qubit in range(num_qubits):
        stride = 1 << qubit
        view = psi.reshape(-1, 2, stride)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 + s * a1
        view[:, 1, :] = s * a0 + c * a1
    return psi


def reference_apply_ansatz(
    ising: IsingModel, params: QaoaParams, energy_table: np.ndarray | None = None
) -> np.ndarray:
    """The ansatz as a fresh layer loop: one exp(-1j * gamma * table / scale)
    per entry, scale = max|table| (1 for an all-zero table), then the
    library's grouped mixer on a fresh scratch array.  ``apply_ansatz`` must
    return exactly the same state, bit for bit, so this pins its phase
    lookup, its in-place buffers and its resume rule; the mixer's own maths
    is checked against ``expm`` and ``reference_per_qubit_mixer``.
    """
    nq = ising.num_variables
    _check_size(nq)
    if energy_table is None:
        energy_table = ising.energy_table()
    elif len(energy_table) != (1 << nq):
        raise ValueError("energy table size does not match the model")
    scale = float(np.abs(energy_table).max()) or 1.0
    psi = uniform_state(nq)
    for gamma, beta in zip(params.gammas, params.betas):
        psi *= np.exp(-1j * gamma * (energy_table / scale))
        psi = _apply_mixer(psi, beta, np.empty_like(psi))
    return psi
