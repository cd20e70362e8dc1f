"""Classical QPU stand-in: simulated annealing over QUBOs, plus brute force.

Each read is an independent single-spin-flip Metropolis chain with a
geometric inverse-temperature ramp.  Chains for all reads run in lockstep
as numpy arrays; flip energies come from cached local fields, and final
energies are recomputed from scratch so that stored values are exactly
reproducible with :meth:`satplan.qubo.Qubo.energy`.

Settings.  :func:`anneal_settings` owns every choice the kernel makes
about a QUBO: its beta range, its precision, and whether it factors out
the capacity load.  The schedule sets only the number of sweeps; each read
is one chain.

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
all reads form one row.  Each sweep's ``(variables, reads)`` block of
uniforms is drawn in one call, which is the same stream, in the same
order, as one ``rng.random(reads)`` per variable, in either dtype; a
producer thread draws it one sweep ahead, in sweep order (below).  Each
call builds a plan once per threshold block: per variable, views of its
field, sign and threshold rows, its load scale, and the rows its flips
update (below), so a step indexes no array.

Threshold thread.  Turning a sweep's uniforms into thresholds depends on
nothing the sweep changes, and its three numpy calls (draw, log, scale)
release the GIL.  So each ``sample_sa`` call starts a producer thread that
fills one of two threshold blocks while the main thread runs the sweep that
reads the other; two ``queue.SimpleQueue`` hand block indices back and
forth, one for blocks to fill and one for blocks filled.  Only the producer
draws from the generator after the initial states, one block per sweep in
sweep order, so every sample is the same as from one thread.  An exception
in the producer goes through the queue and is raised by the main thread;
the main loop's ``finally`` stops the producer and joins it, so no thread
outlives the call.  The cost is one more block (184 KB at 23 variables and
2000 reads in float32).  On the six seed-0 ``sa-capacity`` benchmark QUBOs
the six calls took 0.175-0.179 s against 0.226-0.241 s when the sweep drew
its own thresholds (two processes each, three rounds of the six calls), and
the two seed-0 ``reference-sparse`` calls 0.057-0.064 s against
0.092-0.099 s (shared 2-core Intel Xeon, numpy 2.4.6).  Pinned to one CPU
the six ``sa-capacity`` calls took 0.230-0.233 s against 0.227-0.232 s.
A ``threading.Semaphore`` handoff, and blocks of several sweeps, paid less
(see ROADMAP.md).

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
division warning silenced in the producer thread; so does a float64
beta small enough (below about 1e-307, from coefficients near 1e307) to
take a threshold past the largest float, which every finite delta is
below anyway.  Within the
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

Set-up without BLAS.  Each call sums its initial fields and loads
from zero as accepted flips update them: for i in index order, the
products ``S_ij x_i`` go to field rows j and ``a_i x_i`` to the load,
grouped by value; the diagonal is added last.  A matmul of the states gave
the same samples, but it woke OpenBLAS's second thread, which then spun: on
the six seed-0 ``sa-capacity`` benchmark QUBOs it burnt 0.10-0.13 s of
CPU per ``sample_sa`` call, and none with these sums, and a fresh
``satplan run`` of that config went from 1.9 to 1.2-1.3 s of CPU per
second of wall time (the rest is numpy's import) at the same wall time.

Exhaustive search.  :func:`solve_exhaustive` is the ground truth the
heuristics are scored against.  It enumerates the 2^N states in blocks of
2^16 (512 KiB of float64) that share their high bits, each one
``Qubo.energy_table(high, low_bits)`` and bit for bit that block's slice of
the full table, so its memory is one block at any N.  A block's minima are
filtered one bit at a time in numpy, keeping those with bit i clear where
any has it, for i = 0, 1, ...; block winners compare by (energy, bits).
The lexicographically smallest minimiser, variable 0 first, wins ties, as
with a Python ``min`` over every tied state of the whole table.  Against
that whole table, on random QUBOs (shared 2-core Intel Xeon, numpy 2.4.6):
20 variables and 45 terms take 16 ms either way, with a traced peak of
1.1 MiB against 9 MiB; 24 variables take 0.30 s against 0.48 s with 45
terms and 2.4 s against 3.6 s with all 300, with a peak of 1.1 MiB against
144 MiB; and 20 variables with every state tied take 0.02 s against 5.4 s.
"""

from __future__ import annotations

import json
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .qubo import Qubo

# a bound on time, not memory: one block of 2**_EXHAUSTIVE_BLOCK_BITS energies
# at a time, 2**24 take 0.3-2.4 s to enumerate (45 to 300 terms)
MAX_EXHAUSTIVE_VARIABLES = 24
_EXHAUSTIVE_BLOCK_BITS = 16  # 2**16 float64 energies: 512 KiB, a cache-sized block


HOT_ACCEPT = 0.5  # acceptance of the largest possible flip cost at beta_start
COLD_ACCEPT = 1e-4  # acceptance of the smallest nonzero coefficient at beta_end


@dataclass(frozen=True)
class AnnealSchedule:
    """``sweeps`` inverse temperatures per read, on the geometric ramp
    :func:`anneal_settings` derives from the QUBO annealed.  Each read is
    one chain."""

    sweeps: int = 100
    # not a field: one chain per read, a constant that flip-count tracing reads
    restarts_per_read = 1

    def __post_init__(self) -> None:
        sweeps = self.sweeps
        if not isinstance(sweeps, int) or isinstance(sweeps, bool) or sweeps < 1:
            raise ValueError(f"sweeps must be an integer >= 1, got {sweeps!r}")


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


@dataclass(frozen=True)
class SampleSet:
    """Multiset of sampled bit vectors, lowest energy first.  It owns their
    '0'/'1' format: :meth:`from_states` writes it, :meth:`bit_matrix` reads it."""

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

    def bit_matrix(self, n: int) -> np.ndarray:
        """Boolean (entries, n) matrix of each entry's first ``n`` bits."""
        rows = [entry.bits[:n] for entry in self.entries]
        if any(len(row) != n for row in rows):
            raise ValueError(f"expected {n} decision bits in every sample")
        text = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
        return (text != ord("0")).reshape(len(rows), n)

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


def _fill_thresholds(rng, blocks, betas, free, full) -> None:
    """Producer thread of :func:`sample_sa`: for each beta in turn, take a
    free block index from ``free``, fill that block with the sweep's
    thresholds ``t = -ln(u) / beta`` and put the index on ``full``.  It
    stops at a ``None`` index, and hands any exception to ``full``."""
    try:
        # t = -ln(u) / beta; u = 0 gives t = +inf, an accept.  In float64
        # a beta below about 1e-307 can take t past the largest float,
        # which accepts every finite delta, as the exact t would.  The
        # error state is per thread, so it is set here
        with np.errstate(divide="ignore", over="ignore"):
            for beta in betas:
                k = free.get()
                if k is None:
                    return
                t = blocks[k]
                rng.random(out=t, dtype=t.dtype)
                np.log(t, out=t)
                t *= -1.0 / beta
                full.put(k)
    except BaseException as exc:  # re-raised by sample_sa
        full.put(exc)


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

    delta = np.empty(reads, dtype)
    accept = np.empty(reads, dtype=bool)
    dx = np.empty(reads, dtype)
    product = np.empty(reads, dtype)
    states = rng.integers(0, 2, size=(reads, nv), dtype=np.uint8)
    fields = np.zeros((nv, reads), dtype)
    total_load = np.zeros(reads, dtype)  # L, one per read
    sgn = np.ascontiguousarray(states.T, dtype=dtype)  # x until set-up ends
    # two blocks of thresholds: the producer fills one while a sweep reads
    # the other (see the module docstring)
    blocks = (np.empty((nv, reads), dtype), np.empty((nv, reads), dtype))
    # per block, per variable: its rows of fields, sgn and thresholds, its
    # load scale (None without a load), and the rows its flips update,
    # under each coupling value
    scalar = dtype.type
    targets = [*fields, total_load]
    coupled = [
        [(scalar(w_ij), [targets[j] for j in cols]) for w_ij, cols in groups[i]]
        for i in range(nv)
    ]
    plans = [
        [
            (fields[i], sgn[i], thresholds[i], scalar(c_i) if c_i else None, coupled[i])
            for i, c_i in enumerate(scales)
        ]
        for thresholds in blocks
    ]
    # the initial fields and loads, summed over the variables in index
    # order as the flips will update them (see the module docstring)
    for _, x_i, _, _, coupled_i in plans[0]:
        for w_ij, rows in coupled_i:
            np.multiply(x_i, w_ij, out=product)
            for row in rows:
                row += product
    fields += diag[:, None]
    sgn *= -2.0
    sgn += 1.0
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for k in range(len(blocks)):
        free.put(k)
    producer = threading.Thread(
        target=_fill_thresholds,
        args=(rng, blocks, betas, free, full),
        name="sa-thresholds",
        daemon=True,
    )
    producer.start()
    multiply, less, count_nonzero = np.multiply, np.less, np.count_nonzero
    try:
        for _ in betas:
            k = full.get()
            if isinstance(k, BaseException):
                raise k
            for field_i, sgn_i, t_i, c_i, coupled_i in plans[k]:
                if c_i is not None:  # delta = sgn_i * (fields_i + 2M a_i L)
                    multiply(total_load, c_i, delta)
                    delta += field_i
                    delta *= sgn_i
                else:
                    multiply(sgn_i, field_i, delta)
                less(delta, t_i, accept)
                if not count_nonzero(accept):
                    continue
                # x_i changes by sgn_i = 1 - 2 x_i on flipped reads, by +-0 elsewhere
                multiply(sgn_i, accept, dx)
                sgn_i -= dx
                sgn_i -= dx
                for w_ij, rows in coupled_i:
                    multiply(dx, w_ij, product)
                    for row in rows:
                        row += product
            free.put(k)
    finally:
        free.put(None)  # stops a producer still waiting for a block
        producer.join()
    states = np.ascontiguousarray((sgn < 0.0).T, dtype=np.uint8)  # x = 1 where sgn = -1
    return SampleSet.from_states(states, q.energies(states), "sa", seed)


def _lexicographic_first(candidates: np.ndarray, bits: int) -> int:
    """The candidate state whose ``bits`` low bits, variable 0 first, are
    lexicographically smallest: keep the candidates with bit i clear, if
    any, for i = 0, 1, ..."""
    for i in range(bits):
        if len(candidates) == 1:
            break
        clear = (candidates & (1 << i)) == 0
        if clear.any():
            candidates = candidates[clear]
    return int(candidates[0])


def solve_exhaustive(q: Qubo) -> tuple[np.ndarray, float]:
    """Global minimiser by full enumeration; ties go to the lexicographically
    smallest bit vector (variable 0 first).

    The states are enumerated in blocks of ``Qubo.energy_table(high,
    low_bits)``, which share their high bits, so memory stays at one block
    whatever N.  Each block's tie-break runs in numpy, and the block
    winners are compared by (energy, bits).
    """
    nv = q.num_variables
    if nv > MAX_EXHAUSTIVE_VARIABLES:
        raise ValueError(
            f"exhaustive enumeration limited to {MAX_EXHAUSTIVE_VARIABLES} variables, got {nv}"
        )
    low_bits = min(nv, _EXHAUSTIVE_BLOCK_BITS)
    best: tuple[float, tuple[int, ...]] | None = None
    for high in range(1 << (nv - low_bits)):
        block = q.energy_table(high, low_bits)
        energy = float(block.min())
        if best is not None and energy > best[0]:
            continue
        candidates = np.flatnonzero(block == energy)
        del block  # the tie-break's temporaries take its place
        k = high << low_bits | _lexicographic_first(candidates, low_bits)
        winner = (energy, tuple((k >> i) & 1 for i in range(nv)))
        if best is None or winner < best:
            best = winner
    energy, bits = best
    return np.array(bits, dtype=np.uint8), energy
