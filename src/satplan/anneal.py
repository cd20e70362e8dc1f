"""Classical QPU stand-in: simulated annealing over QUBOs, plus brute force.

Each read is an independent single-spin-flip Metropolis chain with a
geometric inverse-temperature ramp.  Chains for all reads run in lockstep
as numpy arrays; flip energies come from cached local fields, and final
energies are recomputed from scratch so that stored values are exactly
reproducible with :meth:`satplan.qubo.Qubo.energy`.

Temperature range.  Unless the schedule fixes it, the ramp is set from the
QUBO's own energy scale, like dwave-neal's default range.  The flip cost of
variable ``i`` is at most ``|h_i| + sum_j |W_ij|`` in magnitude; at
``beta_start = ln 2 / max_i(|h_i| + sum_j |W_ij|)`` the largest possible
uphill flip is accepted with probability 1/2, so penalty-sized flips are
still open in the first sweep.  At ``beta_end = ln 1e4 / min |c|``, over
the nonzero coefficients ``c``, a flip costing the smallest coefficient is
accepted with probability 1e-4.  A QUBO with no nonzero coefficient takes
its scale as 1.

Kernel layout.  ``sgn = 1 - 2x`` (+1 or -1) and the local fields are kept
as contiguous ``(variables, reads)`` arrays, so one variable's values over
all reads form one row.  The flip cost of variable ``i`` is
``delta = sgn[i] * fields[i]`` and a flip is accepted when
``u < exp(min(-beta * delta, 0))``, i.e. when ``delta <= 0`` or
``u < exp(-beta * delta)``.  Each sweep draws its ``(variables, reads)``
block of uniforms in one call, which is the same stream, in the same
order, as one ``rng.random(reads)`` per variable.

Screen.  From that block the sweep computes one threshold per draw,
``(-ln(u) * (1 + 1e-9) + 1e-12) / beta`` (``+inf`` for ``u = 0``).  Only
reads with ``delta`` below their threshold go on to the exact test above;
late in the ramp almost none do, so most (sweep, variable) steps end after
one multiply and one compare.  An accepted uphill flip has
``beta * delta < -ln(u)`` up to a few ulp of rounding in ``exp`` and
``log``; the relative and absolute margins are many orders of magnitude
wider than that for every ``beta > 0``, so the screen never drops an
accept.  A downhill or zero-cost flip always passes, because every
threshold is positive.  Accepted flips update the fields only on the rows
of nonzero couplings: a zero coupling would add ``+-0.0``, which can only
change the sign of a zero field, and a zero field gives ``delta = +-0``,
accepted either way.  The accept/reject decisions, and with them the
samples, are therefore exactly those of the plain per-read test.

Field update.  Early in a ramp that starts hot, many flips are accepted,
and the update of the fields they touch is the dearest step.  It indexes
the flattened fields with one integer array, ``neighbour * reads + read``,
rather than with a (neighbour, read) pair of arrays; it adds the same
values in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qubo import Qubo

MAX_EXHAUSTIVE_VARIABLES = 24  # 2**24 energies: 128 MiB as float64, also the peak of building them


HOT_ACCEPT = 0.5  # acceptance of the largest possible flip cost at beta_start
COLD_ACCEPT = 1e-4  # acceptance of the smallest nonzero coefficient at beta_end


def _check_betas(beta_start: float, beta_end: float) -> None:
    if not (math.isfinite(beta_end) and beta_end > beta_start > 0):
        raise ValueError(
            f"need finite beta_end > beta_start > 0, got {beta_start!r} -> {beta_end!r}"
        )


@dataclass(frozen=True)
class AnnealSchedule:
    """A geometric ramp of ``sweeps`` inverse temperatures per restart.

    With ``beta_start`` and ``beta_end`` left at None, :func:`beta_range`
    derives both from the QUBO being annealed (see the module docstring);
    give both to fix the ramp for every QUBO.
    """

    sweeps: int = 100
    beta_start: float | None = None
    beta_end: float | None = None
    restarts_per_read: int = 1

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if (self.beta_start is None) != (self.beta_end is None):
            raise ValueError("give both beta_start and beta_end, or neither")
        if self.beta_start is not None:
            _check_betas(self.beta_start, self.beta_end)
        if self.restarts_per_read < 1:
            raise ValueError("restarts_per_read must be >= 1")


def beta_range(sched: AnnealSchedule, diag: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(beta_start, beta_end) of ``sched`` on the QUBO with linear terms
    ``diag`` and interaction matrix ``w``: the schedule's own betas when it
    fixes them, else the range derived from the QUBO's energy scale."""
    if sched.beta_start is not None:
        return sched.beta_start, sched.beta_end
    magnitudes = np.abs(w)
    with np.errstate(over="ignore"):  # an infinite bound is rejected below
        flip_bounds = np.abs(diag) + magnitudes.sum(axis=1)
    coefficients = np.concatenate([np.abs(diag), magnitudes.ravel()])
    coefficients = coefficients[coefficients != 0]
    if coefficients.size:
        max_flip, min_coefficient = float(flip_bounds.max()), float(coefficients.min())
    else:  # no energy scale at all: take it as 1
        max_flip = min_coefficient = 1.0
    # a subnormal or infinite scale gives an infinite or zero beta
    beta_start = math.log(1 / HOT_ACCEPT) / max_flip
    beta_end = math.log(1 / COLD_ACCEPT) / min_coefficient
    _check_betas(beta_start, beta_end)
    return beta_start, beta_end


@dataclass(frozen=True)
class SampleEntry:
    bits: str  # '0'/'1' characters, variable 0 first
    energy: float
    count: int

    def bit_array(self) -> np.ndarray:
        return np.frombuffer(self.bits.encode("ascii"), dtype=np.uint8) - ord("0")


@dataclass(frozen=True)
class SampleSet:
    """Multiset of sampled bit vectors, lowest energy first."""

    entries: tuple[SampleEntry, ...]
    total_reads: int
    sampler_tag: str
    seed: int

    def __post_init__(self) -> None:
        if sum(e.count for e in self.entries) != self.total_reads:
            raise ValueError("entry counts must sum to total_reads")

    @classmethod
    def from_states(
        cls, states: np.ndarray, energies: np.ndarray, sampler_tag: str, seed: int
    ) -> "SampleSet":
        """Aggregate a (reads, num_variables) batch into unique entries.

        A bit vector read more than once keeps the energy of its last read.
        Entries are ordered by energy, then by bits.
        """
        reads, nv = states.shape
        if nv:
            chars = np.where(states != 0, np.uint8(ord("1")), np.uint8(ord("0")))
            keys = chars.view(f"S{nv}").ravel()
        else:
            keys = np.zeros(reads, dtype="S1")  # every key is b""
        # over the reversed rows, the first occurrence is the last read
        unique, first, counts = np.unique(keys[::-1], return_index=True, return_counts=True)
        unique_energies = np.asarray(energies, dtype=np.float64)[::-1][first]
        # unique keys come sorted, so a stable sort on energy breaks ties by bits
        order = np.argsort(unique_energies, kind="stable")
        # one entry at a time: no column-wide list or str copy on top of the
        # sampler's arrays, which are still alive here
        entries = tuple(
            SampleEntry(bits=key.decode("ascii"), energy=float(e), count=int(c))
            for key, e, c in zip(unique[order], unique_energies[order], counts[order])
        )
        return cls(
            entries=entries,
            total_reads=reads,
            sampler_tag=sampler_tag,
            seed=seed,
        )

    def best(self) -> SampleEntry:
        if not self.entries:
            raise ValueError("empty sample set")
        return self.entries[0]

    def to_json_dict(self) -> dict:
        return {
            "sampler": self.sampler_tag,
            "seed": self.seed,
            "reads": self.total_reads,
            "entries": [
                {"bits": e.bits, "energy": e.energy, "count": e.count} for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def _screen_thresholds(us: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """Per-draw bounds on the flip cost: ``u < exp(-beta * delta)`` implies
    ``delta < out``.  Margins of 1e-9 relative and 1e-12/beta absolute cover
    the rounding of ``exp`` and ``log``; ``u = 0`` gives ``+inf``."""
    with np.errstate(divide="ignore"):
        np.log(us, out=out)
    out *= -(1.0 + 1e-9) / beta
    out += 1e-12 / beta
    return out


def sample_sa(
    q: Qubo,
    reads: int,
    sched: AnnealSchedule | None = None,
    seed: int = 0,
) -> SampleSet:
    """Draw ``reads`` annealed samples from the QUBO; deterministic per seed."""
    if reads < 1:
        raise ValueError("reads must be >= 1")
    sched = sched or AnnealSchedule()
    rng = np.random.default_rng(seed)
    nv = q.num_variables

    if nv == 0:
        states = np.zeros((reads, 0), dtype=np.uint8)
        return SampleSet.from_states(states, q.energies(states), "sa", seed)

    diag = q.linear_terms()
    w = q.interaction_matrix()
    betas = np.geomspace(*beta_range(sched, diag, w), sched.sweeps)
    # column-shaped, so offsets[i] + cols indexes the (neighbour, read) block
    # of the flattened (variables, reads) fields
    neighbours = [np.flatnonzero(row)[:, None] for row in w]
    offsets = [nbrs * reads for nbrs in neighbours]
    couplings = [w[i, nbrs] for i, nbrs in enumerate(neighbours)]

    us = np.empty((nv, reads))
    thresholds = np.empty((nv, reads))
    delta = np.empty(reads)
    candidate = np.empty(reads, dtype=bool)
    best_states: np.ndarray | None = None
    best_energies: np.ndarray | None = None
    for _ in range(sched.restarts_per_read):
        states = rng.integers(0, 2, size=(reads, nv), dtype=np.uint8)
        fields = states.astype(np.float64) @ w
        fields += diag
        fields = np.ascontiguousarray(fields.T)
        flat = fields.reshape(-1)  # a view: fields is contiguous
        sgn = np.ascontiguousarray(states.T, dtype=np.float64)
        sgn *= -2.0
        sgn += 1.0
        for beta in betas:
            rng.random(out=us)
            _screen_thresholds(us, beta, out=thresholds)
            for i in range(nv):
                np.multiply(sgn[i], fields[i], out=delta)
                np.less(delta, thresholds[i], out=candidate)
                cols = candidate.nonzero()[0]
                if cols.size == 0:
                    continue
                cols = cols[us[i, cols] < np.exp(np.minimum(-beta * delta[cols], 0.0))]
                if cols.size == 0:
                    continue
                step = sgn[i, cols]  # x_i changes by sgn_i = 1 - 2 x_i
                sgn[i, cols] = -step
                flat[offsets[i] + cols] += couplings[i] * step
        states = np.ascontiguousarray((sgn < 0.0).T, dtype=np.uint8)  # x = 1 where sgn = -1
        energies = q.energies(states)
        if best_states is None:
            best_states, best_energies = states, energies
        else:
            improved = energies < best_energies
            best_states[improved] = states[improved]
            best_energies[improved] = energies[improved]

    return SampleSet.from_states(best_states, best_energies, "sa", seed)


def solve_exhaustive(q: Qubo) -> tuple[np.ndarray, float]:
    """Global minimiser by full enumeration; ties go to the lexicographically
    smallest bit vector (variable 0 first)."""
    nv = q.num_variables
    if nv > MAX_EXHAUSTIVE_VARIABLES:
        raise ValueError(
            f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_VARIABLES} variables, got {nv}"
        )
    table = q.energy_table()
    best = table.min()
    candidates = np.flatnonzero(table == best)
    bits_of = lambda k: tuple((int(k) >> i) & 1 for i in range(nv))
    winner = min(candidates, key=bits_of)
    return np.array(bits_of(winner), dtype=np.uint8), float(best)
