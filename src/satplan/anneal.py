"""Classical QPU stand-in: simulated annealing over QUBOs, plus brute force.

Each read is an independent single-spin-flip Metropolis chain with a
geometric inverse-temperature ramp.  Chains for all reads run in lockstep
as numpy arrays; flip energies come from cached local fields, and final
energies are recomputed from scratch so that stored values are exactly
reproducible with :meth:`satplan.qubo.Qubo.energy`.

Settings.  :func:`anneal_settings` owns every choice the kernel makes
about a QUBO: its beta range, its precision, and whether it factors out
the capacity load.  The schedule sets only the number of sweeps and of
restarts.

Temperature range.  The ramp is always set from the QUBO's own energy
scale, like dwave-neal's default range.  The flip cost of variable ``i``
is at most ``|h_i| + sum_j |W_ij|`` in magnitude (``Qubo.flip_bounds``);
at ``beta_start = ln 2 / max_i(|h_i| + sum_j |W_ij|)`` the largest
possible uphill flip is accepted with probability 1/2, so penalty-sized
flips are still open in the first sweep.  At ``beta_end = ln 1e4 / min
|c|``, over the nonzero coefficients ``c``, a flip costing the smallest
coefficient is accepted with probability 1e-4.  A QUBO with no nonzero
coefficient takes its scale as 1.

Exactness certificate.  When every coefficient, and with a capacity load
every load and M, is an integer, the field bound ``max_i(|h_i| + sum_j
|W_ij| + 4 M |a_i| sum_j |a_j|)`` (the load term only with a load) bounds
every partial sum of the dense fields ``h_i + sum_j W_ij x_j``, of the
factored fields ``h_i + sum_j S_ij x_j + 2 M a_i L`` (below), and every
product in them: all are integers no larger than it.  Otherwise the bound
is infinite.  Below 2^52 every such sum is exact in float64, and the
kernel factors out the capacity load; below 2^23 every such sum is exact
in float32, and the kernel runs in float32.  Each limit is half the range
of exact integers, which leaves room for the rounding of the bound's own
sum.  A fractional coefficient, or M = 7.3, 7.5 or 1e300, anneals the
dense couplings in float64.  A float32-certified QUBO has integer
coefficients, so ``min |c| >= 1`` and ``beta_end <= ln 1e4``, and every
flip bound is below 2^23, so ``beta_start >= ln 2 / 2^23``.

Kernel layout.  ``sgn = 1 - 2x`` (+1 or -1) and the local fields are kept
as contiguous ``(variables, reads)`` arrays, so one variable's values over
all reads form one row.  Each sweep draws its ``(variables, reads)`` block
of uniforms in one call, which is the same stream, in the same order, as
one ``rng.random(reads)`` per variable, in either dtype.  Each restart
builds a plan once: per variable, views of its field, sign and threshold
rows, its load scale, and the rows its flips update (below), so a step
indexes no array.

Precision and test.  Where the fields are exact, fields, loads, flip
vectors and their products are the same integers in float32 as in
float64; only the uniforms are coarser.  Each sweep turns its block of
uniforms u, in place, into thresholds ``t = -ln(u) / beta``, and each
(sweep, variable) step flips the reads with ``delta = sgn[i] * fields[i]
< t``.  That is ``u < exp(-beta * delta)``, the Metropolis test, in
distribution: in float32 u is a multiple of 2^-24, so acceptance
probabilities are resolved to 2^-24 (2^-53 in float64).  ``delta <= 0``
always flips, since ``t > 0``.  ``u = 0`` (probability 2^-24 per draw in
float32) gives ``ln(0) = -inf`` and ``t = +inf``, an accept, with the
division warning silenced; so does a float64 beta small enough (below
about 1e-307, from coefficients near 1e307) to take a threshold past the
largest float, which every finite delta is below anyway.  Within the
certified beta range, ``-ln(u)`` from 6e-8 to 16.7 gives float32
thresholds from about 6e-9 to 2e8: positive, finite, normal numbers.
Energies are recomputed in float64 from the final states.

Field update.  Early in a ramp that starts hot, many flips are accepted,
and the update of the fields they touch is the dearest step.  After a
step with an accepted flip, ``dx = sgn[i] * accept`` is +-1 on flipped
reads and +-0 elsewhere, and ``sgn[i]`` takes ``dx`` off twice, which is
exact.  Variable i's nonzero couplings are grouped by value: for each
distinct value w, the step computes ``w * dx`` once into a scratch row and
adds it in place to every field row j with ``W_ij = w``.  Each row gets
one product, as in a plain loop, and a flipped read gets the same
``w_ij * +-1`` in the same order.  An unflipped read gets
``w_ij * +-0 = +-0``, which leaves a nonzero field as it is and can only
change the sign of a zero field; a zero field gives ``delta = +-0``,
accepted either way, so no decision changes.  A zero coupling would add
only +-0 too, so its row is left out.  On the six seed-0 ``sa-capacity``
benchmark QUBOs (below) the six ``sample_sa`` calls took a median 0.68 s
(quartiles 0.64-0.87 s) against 0.90 s (0.83-1.27 s) for one gather of
the coupled rows, a ``(rows, reads)`` product and a scatter per accepted
step, with the same samples (10 alternating pairs of processes, median of
3 calls each, faster in 10 of 10; shared 2-core Intel Xeon, numpy 2.4.6).

Capacity load.  The squared capacity penalty M (a . x + slack - C)^2
couples every pair of loaded variables with ``2M a_i a_j``, so on its own
it makes every variable's update dense.  ``encode`` records the load
vector a (``Qubo.capacity_load``); where the certificate holds in
float64, the couplings split as ``W = S + 2M a a^T`` and each read keeps
its load ``L = a . x``.  The kernel anneals the remainder S, whose
diagonal holds ``-2M a_i^2``, so that the field of a loaded variable is
``fields[i] + 2M a_i L`` and that of any other variable is ``fields[i]``.
An accepted flip updates the rows of S's nonzero entries, which include
row i itself when i is loaded, and L as one more row whose coupling is
``a_i``.  Without a factored load the kernel anneals W, as S = W.  Every
sum in either layout is exact, so both compute equal fields, take the
same decisions and give the same samples.  On the six seed-0
``sa-capacity`` benchmark QUBOs (23 variables each) the mean degree fell
from 10.3-18.6 to 1.7-2.1, and the six ``sample_sa`` calls took a median
0.64 s against 1.10 s with the dense couplings (10 alternating pairs of
processes, median of 3 calls each; shared 2-core Intel Xeon, numpy
2.4.6), with the same samples.

Set-up without BLAS.  Each restart sums its initial fields and loads
from zero as accepted flips update them: for i in index order, the
products ``S_ij x_i`` go to field rows j and ``a_i x_i`` to the load,
grouped by value; the diagonal is added last.  A matmul of the states gave
the same samples, but it woke OpenBLAS's second thread, which then spun: on
the six seed-0 ``sa-capacity`` benchmark QUBOs it burnt 0.10-0.13 s of
CPU per ``sample_sa`` call, and none with these sums, and a fresh
``satplan run`` of that config went from 1.9 to 1.2-1.3 s of CPU per
second of wall time (the rest is numpy's import) at the same wall time.
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


@dataclass(frozen=True)
class AnnealSchedule:
    """``sweeps`` inverse temperatures per restart, on the geometric ramp
    :func:`anneal_settings` derives from the QUBO annealed."""

    sweeps: int = 100
    restarts_per_read: int = 1

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.restarts_per_read < 1:
            raise ValueError("restarts_per_read must be >= 1")


def _field_bound(q: Qubo) -> float:
    """The field bound of the module docstring's certificate: finite only
    when every coefficient, and with a capacity load every load and M, is
    an integer."""
    load = q.capacity_load
    numbers = q.term_values()
    if load is not None:
        numbers = np.concatenate([numbers, load, [q.penalty_m]])
    if not np.all(numbers == np.round(numbers)):  # every number is finite (Qubo)
        return math.inf
    bounds = q.flip_bounds
    if load is not None:
        with np.errstate(over="ignore"):  # an infinite bound certifies nothing
            bounds = bounds + 4.0 * q.penalty_m * np.abs(load) * np.abs(load).sum()
    return float(bounds.max(initial=0.0))


def anneal_settings(q: Qubo) -> tuple[float, float, str, bool]:
    """(beta_start, beta_end, precision, factored) of annealing ``q``: the
    ramp derived from its energy scale, ``"float32"`` or ``"float64"``,
    and whether the kernel factors out its capacity load."""
    sizes = np.abs(q.term_values())
    max_flip, min_size = 1.0, 1.0  # a QUBO without coefficients takes unit scale
    if sizes.size:
        max_flip, min_size = float(q.flip_bounds.max()), float(sizes.min())
    # a subnormal or infinite scale gives an infinite or zero beta
    beta_start = math.log(1 / HOT_ACCEPT) / max_flip
    beta_end = math.log(1 / COLD_ACCEPT) / min_size
    if not (math.isfinite(beta_end) and beta_end > beta_start > 0):
        raise ValueError(
            f"need finite beta_end > beta_start > 0, got {beta_start!r} -> {beta_end!r}"
        )
    bound = _field_bound(q)
    factored = q.capacity_load is not None and bound < 2.0**52
    return beta_start, beta_end, "float32" if bound < 2.0**23 else "float64", factored


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


def _coupling_groups(row: np.ndarray) -> list[tuple[float, list[int]]]:
    """The nonzero entries of ``row`` as (value, column indices) pairs, one
    pair per distinct value, in order of first column."""
    groups: dict[float, list[int]] = {}
    nonzero = np.flatnonzero(row)
    for j, value in zip(nonzero.tolist(), row[nonzero].tolist()):
        groups.setdefault(value, []).append(j)
    return list(groups.items())


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
    beta_start, beta_end, precision, factored = anneal_settings(q)
    dtype = np.dtype(precision)
    betas = np.geomspace(beta_start, beta_end, sched.sweeps).tolist()
    diag = q.linear_terms().astype(dtype)
    # the couplings less the capacity clique, with -2M a_i^2 on the diagonal;
    # without a factored load, the couplings themselves (2M may overflow)
    if factored:
        load = q.capacity_load
        scale = 2.0 * q.penalty_m * load
    else:
        load = scale = np.zeros(nv)
    remainder = (q.interaction_matrix() - np.outer(scale, load)).astype(dtype)
    load = load.astype(dtype)
    # the rows an accepted flip of i updates: field row j by S_ij * dx, and
    # the load, taken as row nv, by a_i * dx
    groups = [_coupling_groups(row) for row in np.column_stack([remainder, load])]
    scales = scale.tolist()

    thresholds = np.empty((nv, reads), dtype)
    delta = np.empty(reads, dtype)
    accept = np.empty(reads, dtype=bool)
    dx = np.empty(reads, dtype)
    product = np.empty(reads, dtype)
    best_states: np.ndarray | None = None
    best_energies: np.ndarray | None = None
    for _ in range(sched.restarts_per_read):
        states = rng.integers(0, 2, size=(reads, nv), dtype=np.uint8)
        fields = np.zeros((nv, reads), dtype)
        total_load = np.zeros(reads, dtype)  # L, one per read
        sgn = np.ascontiguousarray(states.T, dtype=dtype)  # x until set-up ends
        # per variable: its rows of fields, sgn and thresholds, its load
        # scale, and the rows its flips update, under each coupling value
        targets = [*fields, total_load]
        plan = [
            (fields[i], sgn[i], thresholds[i], scales[i],
             [(w_ij, [targets[j] for j in cols]) for w_ij, cols in groups[i]])
            for i in range(nv)
        ]
        # the initial fields and loads, summed over the variables in index
        # order as the flips will update them (see the module docstring)
        for _, x_i, _, _, coupled in plan:
            for w_ij, rows in coupled:
                np.multiply(x_i, w_ij, out=product)
                for row in rows:
                    row += product
        fields += diag[:, None]
        sgn *= -2.0
        sgn += 1.0
        for beta in betas:
            rng.random(out=thresholds, dtype=dtype)
            # t = -ln(u) / beta; u = 0 gives t = +inf, an accept.  In
            # float64 a beta below about 1e-307 can take t past the largest
            # float, which accepts every finite delta, as the exact t would
            with np.errstate(divide="ignore", over="ignore"):
                np.log(thresholds, out=thresholds)
                thresholds *= -1.0 / beta
            for field_i, sgn_i, t_i, c_i, coupled in plan:
                if c_i:  # delta = sgn_i * (fields_i + 2M a_i L)
                    np.multiply(total_load, c_i, out=delta)
                    delta += field_i
                    delta *= sgn_i
                else:
                    np.multiply(sgn_i, field_i, out=delta)
                np.less(delta, t_i, out=accept)
                if not np.count_nonzero(accept):
                    continue
                # x_i changes by sgn_i = 1 - 2 x_i on flipped reads, by +-0 elsewhere
                np.multiply(sgn_i, accept, out=dx)
                sgn_i -= dx
                sgn_i -= dx
                for w_ij, rows in coupled:
                    np.multiply(dx, w_ij, out=product)
                    for row in rows:
                        row += product
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
