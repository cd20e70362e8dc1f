"""Approximation-ratio metric and the per-run / cross-run statistics.

A sampled bit vector is scored by truncating it to its decision bits, the
first ``len(inst.variables)`` components (slack bits never repair
feasibility), decoding, and checking feasibility:
feasible states score value / optimum, infeasible ones score 0.  One
scorer does this for a whole sample set at once, with array tests over a
(vectors, variables) bit matrix, which ``SampleSet.bit_matrix`` reads from
a sample set.
Aggregates over repeated runs use Student-t 95% confidence half-widths,
which is the honest choice at five runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev

import numpy as np

from .anneal import SampleSet
from .instance import Instance


@dataclass(frozen=True)
class RunMetrics:
    expected_ar: float
    best_ar: float
    feasible_fraction: float
    reads: int


@dataclass(frozen=True)
class AggregateMetrics:
    mean_expected_ar: float
    mean_best_ar: float
    ci95_expected: float
    ci95_best: float
    runs: int


def _score(inst: Instance, f_max: float, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(feasible, AR) of each row of a boolean (vectors, variables) matrix of
    decision bits; infeasible rows score 0.

    The checks are those of ``check_feasible``, one array test per family.
    A row's value adds its weights one by one in variable order (requests in
    file order), as ``solve_exact`` and ``objective`` do, so a proven
    optimum scores exactly 1.
    """
    variables = inst.variables
    if bits.shape[1] != len(variables):
        raise ValueError(f"expected {len(variables)} decision bits, got {bits.shape[1]}")
    index = inst.variable_index
    feasible = np.ones(len(bits), dtype=bool)
    if variables:  # at most one camera per request: requests own runs of columns
        starts = np.cumsum([0] + [len(req.allowed_cameras) for req in inst.requests[:-1]])
        feasible &= (np.add.reduceat(bits, starts, axis=1, dtype=np.int64) <= 1).all(axis=1)
    for group in (inst.binary_forbidden, inst.ternary_forbidden):
        if group:
            cols = np.array([[index[ref] for ref in refs] for refs in group]).T
            feasible &= ~np.logical_and.reduce(bits[:, cols], axis=1).any(axis=1)
    if inst.disk_capacity is not None:
        # Instance bounds the loads' sum by int64, so no row's load wraps
        caps = np.array([inst.capacity_of(ref) for ref in variables], dtype=np.int64)
        feasible &= bits @ caps <= inst.disk_capacity

    weights = np.array([inst.weight_of(ref.request_id) for ref in variables])
    value = np.cumsum(bits * weights, axis=1)[:, -1]
    return feasible, np.where(feasible, value / f_max, 0.0)


def run_metrics(inst: Instance, f_max: float, samples: SampleSet) -> RunMetrics:
    """Count-weighted expected AR, best sampled AR, and feasible fraction."""
    if not samples.entries:
        raise ValueError("empty sample set")
    if f_max <= 0:
        raise ValueError("approximation ratio is undefined for f_max <= 0")
    feasible, ars = _score(inst, f_max, samples.bit_matrix(len(inst.variables)))
    counts = np.array([entry.count for entry in samples.entries])
    weighted_ar = 0.0
    for count, ar in zip(counts.tolist(), ars.tolist()):  # in entry order, one by one
        weighted_ar += count * ar
    total = samples.total_reads
    return RunMetrics(
        expected_ar=weighted_ar / total,
        best_ar=max(0.0, float(ars.max())),
        feasible_fraction=int(counts[feasible].sum()) / total,
        reads=total,
    )


def aggregate(runs: list[RunMetrics]) -> AggregateMetrics:
    """Sample means with t-distribution 95% confidence half-widths."""
    if len(runs) < 2:
        raise ValueError("need at least 2 runs for a confidence interval")
    # imported on first use: scipy.special adds about 0.3 s to every command's
    # start-up; stdtrit is the Student-t quantile without importing scipy.stats
    from scipy.special import stdtrit

    k = len(runs)
    crit = float(stdtrit(k - 1, 0.975))
    expected = [r.expected_ar for r in runs]
    best = [r.best_ar for r in runs]
    return AggregateMetrics(
        mean_expected_ar=mean(expected),
        mean_best_ar=mean(best),
        ci95_expected=crit * stdev(expected) / k**0.5,
        ci95_best=crit * stdev(best) / k**0.5,
        runs=k,
    )
