"""Penalty-based QUBO encoding of mission-planning instances, plus the Ising view.

The energy convention throughout is upper-triangular combined coefficients:

    E(x) = sum_{i <= j} c[i, j] * x_i * x_j + offset,      x in {0, 1}^N

which corresponds to the symmetric matrix with Q_ii = c[i, i] and
Q_ij = Q_ji = c[i, j] / 2.  Basis states are indexed little-endian: variable
``i`` is bit ``(k >> i) & 1`` of state ``k``.  ``Qubo`` evaluates rows of
bit vectors (``energies``; ``energy`` is a row of one) and the full 2^N
table (``energy_table``); ``IsingModel`` evaluates the table alone.  Every
evaluator adds terms in one fixed row-major order, so identical inputs give
bit-identical floats.  A table adds each term in place, through a strided
view of the entries whose bits it needs, so building one takes no memory
beyond the table; the ``Qubo`` table starts from ``offset + 0.0`` when any
coefficient is positive, which keeps the sign of a zero energy equal to
that of ``energies``.

Encoding of an instance with penalty weight M (default: total weight + 1):

  * objective:   -w_i on the diagonal of every (request, camera) variable;
  * uniqueness:  M * x_a x_b for every camera pair of a request;
  * forbidden pairs:  M * x_p x_q, no slack;
  * forbidden triples:  the cubic M x_p x_q x_r reduced to quadratic with a
    single slack per substituted pair, M x_p s + M (x_q x_r - 2 x_q s
    - 2 x_r s + 3 s); triples sharing the substituted pair share the slack;
  * capacity:  M (sum c_p x_p + sum 2^{d-1} s_d - C)^2 with the fewest
    binary slack digits whose range reaches C, i.e. min D with 2^D - 1 >= C.
    ``encode`` records the load vector a of decisions and digits as the
    QUBO's ``capacity_load``; it changes no energy.

Decision variables occupy indices 0..n-1 in instance order; slacks follow,
ternary-pair slacks first (in order of first appearance), then capacity
digits.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

from .instance import Assignment, Instance, VarRef

MAX_TABLE_VARIABLES = 26  # a 2^N energy table: 512 MiB of float64 at 26


@dataclass(frozen=True)
class TernaryPairSlack:
    """Slack standing in for the product x_q * x_r of a reduced triple."""

    q: VarRef
    r: VarRef


@dataclass(frozen=True)
class CapacityBitSlack:
    """Binary digit d (1-based) of the capacity slack, coefficient 2^(d-1)."""

    d: int


SlackRef = Union[TernaryPairSlack, CapacityBitSlack]


@dataclass(frozen=True)
class VarRegistry:
    decision_vars: tuple[VarRef, ...]
    slack_vars: tuple[SlackRef, ...]

    @property
    def n(self) -> int:
        return len(self.decision_vars)

    @property
    def s(self) -> int:
        return len(self.slack_vars)

    @property
    def num_variables(self) -> int:
        return self.n + self.s


def capacity_slack_count(capacity: int) -> int:
    """Fewest binary digits D with 2^D - 1 >= capacity."""
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    d = 0
    while (1 << d) - 1 < capacity:
        d += 1
    return d


def _frozen_terms(coefficients: Mapping[tuple[int, int], float]):
    """Row-major (rows, cols, values) with i <= j: a pair given as both
    (i, j) and (j, i) is one term, summed in insertion order; a zero sum is
    dropped."""
    merged: dict[tuple[int, int], float] = {}
    for (i, j), v in coefficients.items():
        if i < 0 or j < 0:
            raise ValueError(f"variable indices must be >= 0, got ({i}, {j})")
        key = (i, j) if i <= j else (j, i)
        merged[key] = merged.get(key, 0.0) + float(v)
    items = [(i, j, v) for (i, j), v in sorted(merged.items()) if v != 0.0]
    rows = np.array([t[0] for t in items], dtype=np.int64)
    cols = np.array([t[1] for t in items], dtype=np.int64)
    vals = np.array([t[2] for t in items], dtype=np.float64)
    return rows, cols, vals


def _bit_axes(table: np.ndarray, i: int) -> np.ndarray:
    """View of a little-endian 2^N table whose axis 1 is bit i."""
    return table.reshape(-1, 2, 1 << i)


def _pair_axes(table: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of a little-endian 2^N table whose axes 1 and 3 are bits j and i,
    for i < j."""
    return table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


class Qubo:
    """Immutable quadratic form over decision + slack bits.

    ``encode`` records the load vector of a capacity penalty as
    ``capacity_load``; it changes no energy.  ``flip_bounds[i]`` is
    ``|c_ii| + sum_j |c_ij|``, the largest flip cost of variable i.
    """

    def __init__(
        self,
        coefficients: Mapping[tuple[int, int], float],
        *,
        offset: float = 0.0,
        penalty_m: float = 1.0,
        registry: VarRegistry | None = None,
        objective_diag: np.ndarray | None = None,
        num_variables: int | None = None,
        capacity_load: np.ndarray | None = None,
    ):
        if not 0 < penalty_m < math.inf:
            raise ValueError(f"penalty_m must be positive and finite, got {penalty_m!r}")
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset!r}")
        self._rows, self._cols, self._vals = _frozen_terms(coefficients)
        if not np.all(np.isfinite(self._vals)):
            raise ValueError("coefficients must be finite")
        if registry is not None:
            nv = registry.num_variables
        elif num_variables is not None:
            nv = num_variables
        else:
            nv = int(self._cols.max()) + 1 if len(self._cols) else 0
        if len(self._cols) and int(self._cols.max()) >= nv:
            raise ValueError("coefficient index out of range")
        self.registry = registry
        self.offset = float(offset)
        self.penalty_m = float(penalty_m)
        self._nv = nv
        if objective_diag is None:
            objective_diag = np.zeros(nv)
        self._objective_diag = np.asarray(objective_diag, dtype=np.float64)
        self.capacity_load: np.ndarray | None = None
        if capacity_load is not None:
            load = self.capacity_load = np.asarray(capacity_load, dtype=np.float64)
            if load.shape != (nv,):
                raise ValueError(f"expected a capacity load of length {nv}, got shape {load.shape}")
            if not np.all(np.isfinite(load)):
                raise ValueError("capacity load entries must be finite")
        off = self._rows != self._cols
        size = np.abs(self._vals)
        # finite coefficients can still sum past the largest float; an
        # infinite bound gives beta_start 0, which is rejected
        with np.errstate(over="ignore"):
            self.flip_bounds = np.bincount(self._rows, size, nv) + np.bincount(
                self._cols[off], size[off], nv
            )

    # -- shape ---------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._nv

    @property
    def n(self) -> int:
        return self.registry.n if self.registry is not None else self._nv

    @property
    def s(self) -> int:
        return self.registry.s if self.registry is not None else 0

    def terms(self) -> Iterator[tuple[int, int, float]]:
        """Stored terms, row-major, i <= j, diagonal = linear coefficients."""
        for i, j, v in zip(self._rows, self._cols, self._vals):
            yield int(i), int(j), float(v)

    def num_terms(self) -> int:
        return len(self._vals)

    def linear_terms(self) -> np.ndarray:
        diag = np.zeros(self._nv)
        mask = self._rows == self._cols
        diag[self._rows[mask]] = self._vals[mask]
        return diag

    def term_values(self) -> np.ndarray:
        """The stored coefficients, in the order of :meth:`terms`."""
        return self._vals

    def interaction_matrix(self) -> np.ndarray:
        """Dense pairwise coefficients, combined convention, zero diagonal."""
        w = np.zeros((self._nv, self._nv))
        mask = self._rows != self._cols
        r, c, v = self._rows[mask], self._cols[mask], self._vals[mask]
        w[r, c] = v
        w[c, r] = v
        return w

    # -- energies ------------------------------------------------------

    def energy(self, bits) -> float:
        """x^T Q x + offset for one bit vector."""
        return float(self.energies(np.asarray(bits, dtype=np.uint8)[None, :])[0])

    def energies(self, bits) -> np.ndarray:
        """Energies of a (rows, num_variables) batch of bit vectors."""
        b = np.asarray(bits)
        if b.ndim != 2 or b.shape[1] != self._nv:
            raise ValueError(f"expected bit rows of length {self._nv}, got shape {b.shape}")
        b = b.astype(np.float64, copy=False)
        e = np.full(b.shape[0], self.offset)
        for i, j, v in zip(self._rows, self._cols, self._vals):
            if i == j:
                e += v * b[:, i]
            else:
                e += v * b[:, i] * b[:, j]
        return e

    def energy_table(self) -> np.ndarray:
        """Energies of all 2^N basis states, indexed little-endian.

        Each term is added in place, through a strided view, to the entries
        whose bits it needs, so the table is the only 2^N allocation.  The
        sums are those of :meth:`energies`, term by term, minus its ``v * 0``
        additions.  Those change only the sign of a zero: ``+0.0`` turns a
        ``-0.0`` into ``+0.0``, so the table starts from ``offset + 0.0``
        when any coefficient is positive.
        """
        nv = self._nv
        if nv > MAX_TABLE_VARIABLES:
            raise ValueError(f"energy table over {nv} variables is too large")
        start = self.offset + 0.0 if np.any(self._vals > 0.0) else self.offset
        e = np.full(1 << nv, start)
        for i, j, v in zip(self._rows, self._cols, self._vals):
            if i == j:
                _bit_axes(e, i)[:, 1, :] += v
            else:
                _pair_axes(e, i, j)[:, 1, :, 1, :] += v
        return e

    # -- conversions ---------------------------------------------------

    def decode(self, bits) -> Assignment:
        """Drop slack bits and map the first n components back to (request, camera) picks."""
        if self.registry is None:
            raise ValueError("this QUBO has no variable registry to decode against")
        b = np.asarray(bits)
        if b.shape != (self._nv,):
            raise ValueError(f"expected {self._nv} bits, got shape {b.shape}")
        taken = tuple(
            ref for ref, bit in zip(self.registry.decision_vars, b[: self.n]) if bit
        )
        return Assignment(taken)

    def to_ising(self) -> "IsingModel":
        """Equivalent +/-1-spin model via z_i = 1 - 2 x_i; energies match exactly."""
        h = np.zeros(self._nv)
        couplings: dict[tuple[int, int], float] = {}
        offset = self.offset
        for i, j, v in zip(self._rows, self._cols, self._vals):
            i, j = int(i), int(j)
            if i == j:
                h[i] -= v / 2.0
                offset += v / 2.0
            else:
                couplings[(i, j)] = couplings.get((i, j), 0.0) + v / 4.0
                h[i] -= v / 4.0
                h[j] -= v / 4.0
                offset += v / 4.0
        return IsingModel(h=h, couplings=couplings, offset=offset)

    # -- export --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "offset": self.offset,
            "m": self.penalty_m,
            "terms": [[i, j, v] for i, j, v in self.terms()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


class IsingModel:
    """Spin model with on-site fields h, pair couplings J (counted once per
    pair, i < j), and a constant offset.

    Bit x_i is spin z_i = 1 - 2 x_i, so :meth:`energy_table` and
    :meth:`Qubo.energy_table` of the same model agree state by state.
    """

    def __init__(self, h, couplings: Mapping[tuple[int, int], float], offset: float = 0.0):
        self.h = np.asarray(h, dtype=np.float64)
        if self.h.ndim != 1:
            raise ValueError("h must be a vector")
        self._jr, self._jc, self._jv = _frozen_terms(couplings)
        if np.any(self._jr == self._jc):
            raise ValueError("couplings must have zero diagonal")
        if len(self._jc) and int(self._jc.max()) >= len(self.h):
            raise ValueError("coupling index out of range")
        self.offset = float(offset)

    @property
    def num_variables(self) -> int:
        return len(self.h)

    def j_terms(self) -> Iterator[tuple[int, int, float]]:
        for i, j, v in zip(self._jr, self._jc, self._jv):
            yield int(i), int(j), float(v)

    def energy_table(self) -> np.ndarray:
        """Energies of all 2^N basis states (bit-indexed, little-endian).

        Built in place like :meth:`Qubo.energy_table`: a field adds ``h_i``
        where bit i is 0 and ``h_i * -1.0`` where it is 1, a coupling adds
        ``v`` where its two bits agree and ``v * -1.0`` where they differ.
        Every entry adds exactly the products ``h_i * z_i``, fields first
        in index order, then ``v * z_i * z_j``, couplings row-major.
        """
        nv = len(self.h)
        if nv > MAX_TABLE_VARIABLES:
            raise ValueError(f"energy table over {nv} variables is too large")
        e = np.full(1 << nv, self.offset)
        for i, hi in enumerate(self.h):
            z = _bit_axes(e, i)
            z[:, 0, :] += hi
            z[:, 1, :] += hi * -1.0
        for i, j, v in zip(self._jr, self._jc, self._jv):
            zz = _pair_axes(e, i, j)
            zz[:, 0, :, 0, :] += v
            zz[:, 1, :, 1, :] += v
            zz[:, 0, :, 1, :] += v * -1.0
            zz[:, 1, :, 0, :] += v * -1.0
        return e


def encode(inst: Instance, m: float | None = None) -> Qubo:
    """Build the penalty QUBO of an instance.

    ``m`` overrides the penalty magnitude; the default, total weight + 1,
    guarantees every infeasible selection costs more than any feasible one.
    """
    index = inst.variable_index
    order = inst.variables
    n = len(order)
    big_m = inst.total_weight + 1.0 if m is None else float(m)
    if not 0 < big_m < math.inf:
        raise ValueError(f"penalty magnitude must be positive and finite, got {big_m!r}")

    coeffs: dict[tuple[int, int], float] = {}

    def add(i: int, j: int, v: float) -> None:
        key = (i, j) if i <= j else (j, i)
        coeffs[key] = coeffs.get(key, 0.0) + v

    offset = 0.0

    # objective, negated for minimisation
    for v, ref in enumerate(order):
        w = inst.weight_of(ref.request_id)
        if w:
            add(v, v, -w)

    # each request at most once: pairwise products over its cameras
    for req in inst.requests:
        ids = [index[VarRef(req.id, cam)] for cam in req.allowed_cameras]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                add(ids[a], ids[b], big_m)

    # forbidden pairs
    for p, q in sorted(inst.binary_forbidden):
        add(index[p], index[q], big_m)

    # forbidden triples: reduce M x_p x_q x_r, substituting the two
    # largest-index variables and reusing one slack per substituted pair
    slack_refs: list[SlackRef] = []
    pair_slack: dict[tuple[int, int], int] = {}
    for triple in sorted(inst.ternary_forbidden):
        ip, iq, ir = sorted(index[ref] for ref in triple)
        key = (iq, ir)
        if key not in pair_slack:
            pair_slack[key] = n + len(slack_refs)
            slack_refs.append(TernaryPairSlack(q=order[iq], r=order[ir]))
        s = pair_slack[key]
        add(ip, s, big_m)
        add(iq, ir, big_m)
        add(iq, s, -2.0 * big_m)
        add(ir, s, -2.0 * big_m)
        add(s, s, 3.0 * big_m)

    # disk capacity: squared equality with binary slack digits
    capacity_load = None
    if inst.disk_capacity is not None:
        loaded = [
            (v, float(inst.capacity_of(ref)))
            for v, ref in enumerate(order)
            if inst.capacity_of(ref) != 0
        ]
        if not loaded:
            warnings.warn(
                f"instance {inst.name!r} has a disk capacity but no request uses disk; "
                "capacity penalty omitted",
                stacklevel=2,
            )
        else:
            cap = inst.disk_capacity
            for d in range(1, capacity_slack_count(cap) + 1):
                loaded.append((n + len(slack_refs), float(2 ** (d - 1))))
                slack_refs.append(CapacityBitSlack(d=d))
            for u, au in loaded:
                add(u, u, big_m * (au * au - 2.0 * cap * au))
            for a in range(len(loaded)):
                ua, ca = loaded[a]
                for b in range(a + 1, len(loaded)):
                    ub, cb = loaded[b]
                    add(ua, ub, big_m * 2.0 * ca * cb)
            offset += big_m * float(cap) * float(cap)
            # the digits are the last slacks, so the load covers every variable
            capacity_load = np.zeros(n + len(slack_refs))
            for u, au in loaded:
                capacity_load[u] = au

    # every energy is a sum of some of these numbers, so it stays finite
    if not math.isfinite(abs(offset) + sum(abs(v) for v in coeffs.values())):
        raise ValueError(f"penalty magnitude {big_m!r} takes energies past the largest float")

    registry = VarRegistry(decision_vars=order, slack_vars=tuple(slack_refs))
    objective_diag = np.zeros(registry.num_variables)
    for v, ref in enumerate(order):
        objective_diag[v] = -inst.weight_of(ref.request_id)
    return Qubo(
        coeffs,
        offset=offset,
        penalty_m=big_m,
        registry=registry,
        objective_diag=objective_diag,
        capacity_load=capacity_load,
    )


def min_slack_penalty(q: Qubo, decision_bits) -> float:
    """Minimum total penalty over all slack completions of the decision bits.

    Test oracle: subtracts the objective contribution, so a feasible
    selection scores exactly 0 and any violation scores at least the
    penalty magnitude.  Refuses more than 24 slack bits.
    """
    n, s = q.n, q.s
    dec = np.asarray(decision_bits, dtype=np.uint8)
    if dec.shape != (n,):
        raise ValueError(f"expected {n} decision bits, got shape {dec.shape}")
    if s > 24:
        raise ValueError("slack enumeration refuses more than 24 slack bits")
    rows = 1 << s
    bits = np.empty((rows, n + s), dtype=np.uint8)
    bits[:, :n] = dec
    slack_idx = np.arange(rows, dtype=np.uint32)
    for k in range(s):
        bits[:, n + k] = (slack_idx >> np.uint32(k)) & np.uint32(1)
    energies = q.energies(bits)
    objective_part = float(q._objective_diag[:n] @ dec)
    return float(energies.min() - objective_part)
