"""Approximation-ratio metric and the per-run / cross-run statistics.

A sampled bit vector is scored by truncating it to the first n components
(slack bits never repair feasibility), decoding, and checking feasibility:
feasible states score value / optimum, infeasible ones score 0.
Aggregates over repeated runs use Student-t 95% confidence half-widths,
which is the honest choice at five runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev

from .anneal import SampleSet
from .exact import check_feasible, objective
from .instance import Assignment, Instance


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


def _check_optimum(f_max: float) -> None:
    if f_max <= 0:
        raise ValueError("approximation ratio is undefined for f_max <= 0")


def _score(inst: Instance, f_max: float, decision_bits) -> tuple[bool, float]:
    """(feasible, AR) of one vector of decision bits; infeasible ones score 0."""
    assignment = Assignment.from_bits(inst, decision_bits)
    if not check_feasible(inst, assignment).feasible:
        return False, 0.0
    return True, objective(inst, assignment) / f_max


def approximation_ratio(inst: Instance, f_max: float, bits, n: int) -> float:
    """Score of one sampled bit vector against the proven optimum."""
    _check_optimum(f_max)
    if len(bits) < n:
        raise ValueError(f"need at least {n} bits, got {len(bits)}")
    return _score(inst, f_max, bits[:n])[1]


def run_metrics(inst: Instance, f_max: float, samples: SampleSet, n: int) -> RunMetrics:
    """Count-weighted expected AR, best sampled AR, and feasible fraction."""
    if not samples.entries:
        raise ValueError("empty sample set")
    _check_optimum(f_max)
    weighted_ar = 0.0
    feasible_reads = 0
    best = 0.0
    for entry in samples.entries:
        feasible, ar = _score(inst, f_max, entry.bit_array()[:n])
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
