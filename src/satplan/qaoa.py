"""Exact statevector simulation of the alternating cost/mixer ansatz.

The ansatz starts from the uniform superposition (ground state of the
transverse-field mixer sum_i X_i) and alternates, per layer, a diagonal
cost phase exp(-i * gamma * E_x) with a single-qubit mixer rotation
RX(2 * beta) on every qubit.  The cost Hamiltonian's diagonal is the
QUBO's own energy table, ``Qubo.energy_table()``: the energy of every basis
state, indexed little-endian, so the cost phase is a plain elementwise
multiply and sampled energies equal ``Qubo.energy`` of their bits exactly.
Every function takes that table; the qubit count is its length's log2.

An ``_Evaluator`` holds what the evaluations of one table share.  The
table has far fewer distinct energies than entries (180 of 1024 on the
10-qubit benchmark instance), so each cost phase is exp(-i * gamma * u)
over the distinct energies u, keyed by bit pattern so that 0.0 and -0.0
stay apart, gathered through the ``np.unique`` inverse index into a phase
buffer.  Equal inputs give equal outputs, so the state is bit-identical to
one exponential per entry.  The ops run in the order phase 1, mixer 1,
phase 2, ...; the evaluator keeps one copy of the state taken just before
the first op whose angle (compared by bit pattern) differed from the
previous call's, and the next call resumes from it when its own first
difference is no earlier, else it restarts from the uniform state and
moves the copy back.  Powell's line searches move one direction at a time,
so consecutive evaluations share long prefixes.

Every op runs in place on buffers the evaluator owns: the retained state,
a work state that each call refills from it and returns (valid until the
evaluator's next call), the phase buffer (which also holds the mixer's
partner products between phase ops, and an expectation's |psi|^2 between
calls) and the inverse index, one to four bytes per entry: about 3.1 state
vectors in all, and no state-sized allocation per evaluation and
expectation.  The mixer's per-qubit views of both states are built once.
Per qubit the mixer forms s * psi[i ^ (1 << q)], then c * psi[i], then
their sum, one rounding each whatever buffers hold them, so running in
place keeps every bit of the state.  ``run_schedule`` builds one
evaluator and uses it for every optimization and every sampled state.

Parameter optimisation is local and derivative-free (Powell's
direction-set method) with the best evaluation tracked explicitly, so the
reported value never exceeds the value at the initial point.
``run_schedule`` implements layer-wise parameter fixing: the optimised 2*L
parameters of the L-layer ansatz seed the (L+1)-layer search together with
gamma = beta = 0 for the new layer.  That start is a stationary point of
the expectation (the new cost phase commutes with the cost, and the new
mixer angle has the gradient of the previous one, zero at its optimum), so
a gradient method stalls there; Powell's line searches bracket outward and
leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anneal import SampleSet
from .qubo import MAX_TABLE_VARIABLES

MAX_QUBITS = MAX_TABLE_VARIABLES  # one energy-table entry per basis state
_GATHER_CHUNK = 1 << 13  # entries per cost-phase gather: 64 KiB of intp index

StateVector = np.ndarray
# per qubit, (the state read at i ^ (1 << q), the partner buffer in the same shape)
_MixerViews = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise ValueError("need equally many gammas and betas, at least one layer")

    @property
    def layers(self) -> int:
        return len(self.gammas)

    def extended(self, gamma: float = 0.0, beta: float = 0.0) -> "QaoaParams":
        return QaoaParams(self.gammas + (gamma,), self.betas + (beta,))

    @classmethod
    def from_flat(cls, x: Sequence[float]) -> "QaoaParams":
        half = len(x) // 2
        return cls(tuple(x[:half]), tuple(x[half:]))

    def to_flat(self) -> np.ndarray:
        return np.array(self.gammas + self.betas, dtype=np.float64)


@dataclass(frozen=True)
class OptimizerConfig:
    tolerance: float = 1e-6
    max_evals: int = 1000

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class LayerResult:
    layer: int
    params: QaoaParams
    expectation: float
    samples: SampleSet

    def to_json_dict(self) -> dict:
        doc = self.samples.to_json_dict()
        doc.update(
            layer=self.layer,
            gammas=list(self.params.gammas),
            betas=list(self.params.betas),
            expectation=self.expectation,
        )
        return doc


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceed the statevector limit of {MAX_QUBITS}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")


def _num_qubits(energy_table: np.ndarray) -> int:
    """Qubit count of a 2^n-entry energy table, checked against the limits."""
    size = len(energy_table)
    nq = size.bit_length() - 1
    if size < 1 or size != 1 << nq:
        raise ValueError(f"energy table has {size} entries, not a power of two")
    _check_size(nq)
    return nq


def _uniform_amplitude(num_qubits: int) -> float:
    return 1.0 / np.sqrt(1 << num_qubits)


def uniform_state(num_qubits: int) -> StateVector:
    _check_size(num_qubits)
    return np.full(1 << num_qubits, _uniform_amplitude(num_qubits), dtype=np.complex128)


def _mixer_views(psi: StateVector, s_partner: StateVector) -> _MixerViews:
    """Per qubit q, the view of ``psi`` whose entry i is psi[i ^ (1 << q)],
    and ``s_partner`` shaped like it.  Both arrays must be C-contiguous, so
    that the reshapes are views that see every later write."""
    if not (psi.flags.c_contiguous and s_partner.flags.c_contiguous):
        raise ValueError("the mixer needs C-contiguous buffers")
    views = []
    for qubit in range(len(psi).bit_length() - 1):
        shape = (-1, 2, 1 << qubit)
        # the reversed middle axis maps index i to i ^ (1 << qubit)
        views.append((psi.reshape(shape)[:, ::-1, :], s_partner.reshape(shape)))
    return views


def _apply_mixer(
    psi: StateVector, beta: float, s_partner: StateVector, views: _MixerViews
) -> StateVector:
    """RX(2*beta) on every qubit q: new[i] = c * psi[i] + s * psi[i ^ (1 << q)].

    ``psi`` is updated in place and returned.  ``s_partner``, a scratch
    array of the state's size and dtype, holds the partner products;
    ``views`` is ``_mixer_views(psi, s_partner)``, built once by the caller.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    for partner_of_psi, partner in views:
        np.multiply(s, partner_of_psi, out=partner)
        np.multiply(c, psi, out=psi)
        np.add(psi, s_partner, out=psi)
    return psi


class _Evaluator:
    """Ansatz states of one energy table, each resumed from the retained
    state of the longest prefix of ops it shares with the previous call."""

    def __init__(self, energy_table: np.ndarray) -> None:
        self.num_qubits = _num_qubits(energy_table)
        table = np.ascontiguousarray(energy_table, dtype=np.float64)
        levels, inverse = np.unique(table.view(np.int64), return_inverse=True)
        self._levels = levels.view(np.float64)
        self._index = inverse.astype(np.min_scalar_type(len(levels) - 1))
        self._phase = np.empty(len(table), dtype=np.complex128)
        self._bits = np.empty(0, dtype=np.uint64)  # angles of the previous call
        self._saved = uniform_state(self.num_qubits)
        self._saved_at = 0  # ops already applied to _saved
        self._work = np.empty_like(self._saved)
        # np.take casts the index it is given to intp, so the gather goes
        # through slices that bound that copy
        self._gather = [
            (self._index[lo : lo + _GATHER_CHUNK], self._phase[lo : lo + _GATHER_CHUNK])
            for lo in range(0, len(table), _GATHER_CHUNK)
        ]
        # the phase buffer is free between phase ops: it holds the partner
        # products, and between calls the first half of its bytes holds the
        # expectation's |psi|^2
        self._saved_views = _mixer_views(self._saved, self._phase)
        self._work_views = _mixer_views(self._work, self._phase)
        self.probs = self._phase.view(np.float64)[: len(table)]

    def state(self, params: QaoaParams) -> StateVector:
        """The ansatz state of ``params``: the evaluator's work state, valid
        until its next call."""
        angles = [a for layer in zip(params.gammas, params.betas) for a in layer]
        bits = np.array(angles).view(np.uint64)
        shared = min(len(bits), len(self._bits))
        differ = np.flatnonzero(bits[:shared] != self._bits[:shared])
        first = int(differ[0]) if len(differ) else shared
        if first < self._saved_at:
            self._saved.fill(_uniform_amplitude(self.num_qubits))
            self._saved_at = 0
        self._run(self._saved, self._saved_views, angles, self._saved_at, first)
        self._saved_at = first
        self._bits = bits
        np.copyto(self._work, self._saved)
        return self._run(self._work, self._work_views, angles, first, len(angles))

    def _run(
        self,
        psi: StateVector,
        views: _MixerViews,
        angles: list[float],
        start: int,
        stop: int,
    ) -> StateVector:
        """Apply ops ``start`` to ``stop`` - 1 to ``psi`` in place; ``views``
        are its mixer views."""
        for op in range(start, stop):
            if op % 2 == 0:
                phase = np.exp(-1j * angles[op] * self._levels)
                # the inverse index is always in range; "clip" skips the
                # checked path, which buffers the whole output
                for index, out in self._gather:
                    np.take(phase, index, out=out, mode="clip")
                psi *= self._phase
            else:
                _apply_mixer(psi, angles[op], self._phase, views)
        return psi


def apply_ansatz(
    energy_table: np.ndarray, params: QaoaParams, _evaluator: _Evaluator | None = None
) -> StateVector:
    """Prepare the layered ansatz state for the given cost diagonal and angles.

    ``_evaluator``, an ``_Evaluator`` of the same table, lets repeated calls
    share their set-up and resume from the previous call's state; the state
    returned is then its work state, overwritten by its next call.  Without
    one, the returned array belongs to the caller alone.
    """
    if _evaluator is None:
        _evaluator = _Evaluator(energy_table)
    return _evaluator.state(params)


def expectation(
    energy_table: np.ndarray, psi: StateVector, _out: np.ndarray | None = None
) -> float:
    """<psi| H |psi> including the constant offset, comparable to QUBO energies.

    ``_out``, a float64 array of the state's size that does not overlap
    ``psi``, such as an ``_Evaluator``'s ``probs``, receives |psi|^2 in
    place of a new array.
    """
    if psi.shape != energy_table.shape:
        raise ValueError("state vector and energy table sizes differ")
    probs = np.abs(psi, out=_out)
    np.square(probs, out=probs)
    return float(probs @ energy_table)


def sample_state(
    psi: StateVector, reads: int, seed: int, energy_table: np.ndarray
) -> SampleSet:
    """Draw bitstrings from |psi|^2 by inverse-CDF sampling."""
    if reads < 1:
        raise ValueError("reads must be >= 1")
    nq = int(np.log2(len(psi)))
    probs = np.abs(psi) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(psi), size=reads, p=probs)
    states = np.empty((reads, nq), dtype=np.uint8)
    for i in range(nq):
        states[:, i] = (picks >> i) & 1
    return SampleSet.from_states(states, energy_table[picks], "qaoa", seed)


def optimize_layer(
    energy_table: np.ndarray,
    init: QaoaParams,
    cfg: OptimizerConfig | None = None,
    _evaluator: _Evaluator | None = None,
) -> tuple[QaoaParams, float]:
    """Local derivative-free minimisation of the ansatz expectation with
    Powell's method, at most ``cfg.max_evals`` evaluations after the one at
    ``init``.

    Returns the best parameters seen over all evaluations, so the result is
    never worse than the initial point.  ``_evaluator`` is as in
    :func:`apply_ansatz`.
    """
    # imported on first use: scipy.optimize adds about 0.2 s to every command's start-up
    from scipy.optimize import minimize

    cfg = cfg or OptimizerConfig()
    evaluator = _evaluator if _evaluator is not None else _Evaluator(energy_table)
    best_x = init.to_flat()
    best_val = expectation(
        energy_table, apply_ansatz(energy_table, init, evaluator), evaluator.probs
    )

    def objective(x: np.ndarray) -> float:
        nonlocal best_x, best_val
        params = QaoaParams.from_flat(x)
        val = expectation(
            energy_table, apply_ansatz(energy_table, params, evaluator), evaluator.probs
        )
        if val < best_val:
            best_val = val
            best_x = np.array(x)
        return val

    minimize(
        objective,
        init.to_flat(),
        method="Powell",
        tol=cfg.tolerance,
        options={"maxfev": cfg.max_evals},
    )
    return QaoaParams.from_flat(best_x), float(best_val)


def run_schedule(
    energy_table: np.ndarray,
    max_layers: int,
    n_inits: int = 5,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
    reads: int = 2000,
    ranker: Callable[[SampleSet], float] | None = None,
) -> list[LayerResult]:
    """Layer-fixing schedule from 1 to ``max_layers`` layers.

    The single-layer stage draws ``n_inits`` random (gamma, beta) pairs from
    [0, 2pi) x [0, pi), optimises each, samples each optimised state, and
    keeps the candidate whose samples score highest under ``ranker``
    (higher is better; the benchmark passes an approximation-ratio ranker).
    Without a ranker, candidates are ranked by lower optimised expectation.
    Each subsequent stage re-optimises all parameters starting from the
    previous optimum extended with a zero-angle layer, then samples the
    optimised state.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    if n_inits < 1:
        raise ValueError("n_inits must be >= 1")
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    # one evaluator for every optimization and sampled state: the table is
    # sorted into energy levels once, and the resume rule keeps each state
    # bit-identical to a fresh evaluator's
    evaluator = _Evaluator(energy_table)

    candidates = [
        QaoaParams((rng.uniform(0.0, 2.0 * np.pi),), (rng.uniform(0.0, np.pi),))
        for _ in range(n_inits)
    ]
    sample_seeds = [int(rng.integers(0, 2**63)) for _ in range(n_inits + max_layers - 1)]

    best_candidate: tuple[float, QaoaParams, float, SampleSet] | None = None
    for k, cand in enumerate(candidates):
        params, value = optimize_layer(energy_table, cand, cfg, evaluator)
        psi = apply_ansatz(energy_table, params, evaluator)
        samples = sample_state(psi, reads, sample_seeds[k], energy_table)
        score = ranker(samples) if ranker is not None else -value
        if best_candidate is None or score > best_candidate[0]:
            best_candidate = (score, params, value, samples)

    _, params, value, samples = best_candidate
    results = [LayerResult(layer=1, params=params, expectation=value, samples=samples)]
    for layer in range(2, max_layers + 1):
        init = results[-1].params.extended(0.0, 0.0)
        params, value = optimize_layer(energy_table, init, cfg, evaluator)
        psi = apply_ansatz(energy_table, params, evaluator)
        samples = sample_state(psi, reads, sample_seeds[n_inits + layer - 2], energy_table)
        results.append(LayerResult(layer=layer, params=params, expectation=value, samples=samples))
    return results
