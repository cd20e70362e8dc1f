"""Exact statevector simulation of the alternating cost/mixer ansatz.

The ansatz starts from the uniform superposition (ground state of the
transverse-field mixer sum_i X_i) and alternates, per layer, a diagonal
cost phase exp(-i * gamma * E_x) with a single-qubit mixer rotation
RX(2 * beta) on every qubit.  The cost Hamiltonian's diagonal is the
QUBO's own energy table, ``Qubo.energy_table()``: the energy of every basis
state, indexed little-endian, so the cost phase is a plain elementwise
multiply and sampled energies equal ``Qubo.energy`` of their bits exactly.
Every function takes that table; the qubit count is its length's log2.

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
from scipy.optimize import minimize

from .anneal import SampleSet

MAX_QUBITS = 26

StateVector = np.ndarray


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


def uniform_state(num_qubits: int) -> StateVector:
    _check_size(num_qubits)
    dim = 1 << num_qubits
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def _apply_mixer(psi: StateVector, num_qubits: int, beta: float) -> StateVector:
    """RX(2*beta) on every qubit q: new[i] = c * psi[i] + s * psi[i ^ (1 << q)].

    ``psi`` is overwritten; the result is ``psi`` or a new array.  The two
    state buffers swap roles after every qubit, so no per-qubit array is
    allocated.
    """
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    out = np.empty_like(psi)
    s_partner = np.empty_like(psi)
    for qubit in range(num_qubits):
        shape = (-1, 2, 1 << qubit)
        # the reversed middle axis maps index i to i ^ (1 << qubit)
        np.multiply(s, psi.reshape(shape)[:, ::-1, :], out=s_partner.reshape(shape))
        np.multiply(c, psi, out=out)
        np.add(out, s_partner, out=out)
        psi, out = out, psi
    return psi


def apply_ansatz(energy_table: np.ndarray, params: QaoaParams) -> StateVector:
    """Prepare the layered ansatz state for the given cost diagonal and angles."""
    nq = _num_qubits(energy_table)
    psi = uniform_state(nq)
    for gamma, beta in zip(params.gammas, params.betas):
        psi *= np.exp(-1j * gamma * energy_table)
        psi = _apply_mixer(psi, nq, beta)
    return psi


def expectation(energy_table: np.ndarray, psi: StateVector) -> float:
    """<psi| H |psi> including the constant offset, comparable to QUBO energies."""
    if psi.shape != energy_table.shape:
        raise ValueError("state vector and energy table sizes differ")
    probs = np.abs(psi) ** 2
    return float(probs @ energy_table)


def sample_state(
    psi: StateVector, reads: int, seed: int, energy_table: np.ndarray, tag: str = "qaoa"
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
    return SampleSet.from_states(states, energy_table[picks], tag, seed)


def optimize_layer(
    energy_table: np.ndarray, init: QaoaParams, cfg: OptimizerConfig | None = None
) -> tuple[QaoaParams, float]:
    """Local derivative-free minimisation of the ansatz expectation with
    Powell's method, at most ``cfg.max_evals`` evaluations after the one at
    ``init``.

    Returns the best parameters seen over all evaluations, so the result is
    never worse than the initial point.
    """
    cfg = cfg or OptimizerConfig()
    best_x = init.to_flat()
    best_val = expectation(energy_table, apply_ansatz(energy_table, init))

    def objective(x: np.ndarray) -> float:
        nonlocal best_x, best_val
        val = expectation(energy_table, apply_ansatz(energy_table, QaoaParams.from_flat(x)))
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

    candidates = [
        QaoaParams((rng.uniform(0.0, 2.0 * np.pi),), (rng.uniform(0.0, np.pi),))
        for _ in range(n_inits)
    ]
    sample_seeds = [int(rng.integers(0, 2**63)) for _ in range(n_inits + max_layers - 1)]

    best_candidate: tuple[float, QaoaParams, float, SampleSet] | None = None
    for k, cand in enumerate(candidates):
        params, value = optimize_layer(energy_table, cand, cfg)
        psi = apply_ansatz(energy_table, params)
        samples = sample_state(psi, reads, sample_seeds[k], energy_table)
        score = ranker(samples) if ranker is not None else -value
        if best_candidate is None or score > best_candidate[0]:
            best_candidate = (score, params, value, samples)

    _, params, value, samples = best_candidate
    results = [LayerResult(layer=1, params=params, expectation=value, samples=samples)]
    for layer in range(2, max_layers + 1):
        init = results[-1].params.extended(0.0, 0.0)
        params, value = optimize_layer(energy_table, init, cfg)
        psi = apply_ansatz(energy_table, params)
        samples = sample_state(psi, reads, sample_seeds[n_inits + layer - 2], energy_table)
        results.append(LayerResult(layer=layer, params=params, expectation=value, samples=samples))
    return results
