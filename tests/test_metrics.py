import dataclasses
import math

import numpy as np
import pytest

from satplan import (
    Instance,
    Request,
    RunMetrics,
    SampleSet,
    VarRef,
    aggregate,
    approximation_ratio,
    encode,
    run_metrics,
    sample_sa,
    solve_exact,
)
from satplan.anneal import SampleEntry
from helpers import random_instance, reference_ar, reference_run_metrics


def _metrics(expected, best=None):
    return RunMetrics(
        expected_ar=expected,
        best_ar=best if best is not None else expected,
        feasible_fraction=1.0,
        reads=2000,
    )


@pytest.fixture
def pair_instance():
    pair = (VarRef(0, 1), VarRef(1, 1))
    return Instance(
        name="pi",
        requests=(
            Request(id=0, kind="mono", weight=2.0, allowed_cameras=(1,)),
            Request(id=1, kind="mono", weight=3.0, allowed_cameras=(1,)),
        ),
        binary_forbidden=frozenset({pair}),
    )


def test_ar_examples(pair_instance):
    f_max = solve_exact(pair_instance).best_value
    assert f_max == 3.0
    assert approximation_ratio(pair_instance, f_max, [0, 1]) == 1.0
    assert approximation_ratio(pair_instance, f_max, [1, 1]) == 0.0  # forbidden pair
    assert approximation_ratio(pair_instance, f_max, [0, 0]) == 0.0  # empty but feasible
    assert approximation_ratio(pair_instance, f_max, [1, 0]) == 2.0 / 3.0


def test_ar_ignores_slack_bits(pair_instance):
    f_max = 3.0
    for slack in ([0], [1]):
        assert approximation_ratio(pair_instance, f_max, [0, 1] + slack) == 1.0


def test_ar_undefined_for_degenerate_optimum(pair_instance):
    with pytest.raises(ValueError):
        approximation_ratio(pair_instance, 0.0, [0, 1])


def _sample_set(entries):
    total = sum(c for _, _, c in entries)
    return SampleSet(
        entries=tuple(SampleEntry(bits=b, energy=e, count=c) for b, e, c in entries),
        total_reads=total,
        sampler_tag="test",
        seed=0,
    )


def test_run_metrics_all_optimal(pair_instance):
    samples = _sample_set([("01", -3.0, 2000)])
    m = run_metrics(pair_instance, 3.0, samples)
    assert m.expected_ar == m.best_ar == 1.0
    assert m.feasible_fraction == 1.0
    assert m.reads == 2000


def test_run_metrics_half_optimal_half_infeasible(pair_instance):
    samples = _sample_set([("01", -3.0, 1000), ("11", 1.0, 1000)])
    m = run_metrics(pair_instance, 3.0, samples)
    assert m.expected_ar == 0.5
    assert m.best_ar == 1.0
    assert m.feasible_fraction == 0.5


def test_run_metrics_single_infeasible_read(pair_instance):
    samples = _sample_set([("11", 1.0, 1)])
    m = run_metrics(pair_instance, 3.0, samples)
    assert m.expected_ar == m.best_ar == m.feasible_fraction == 0.0


def test_run_metrics_rejects_empty(pair_instance):
    with pytest.raises(ValueError):
        run_metrics(pair_instance, 3.0, _sample_set([]))


def test_best_ar_dominates_expected_ar():
    rng = np.random.default_rng(43)
    for trial in range(5):
        inst = random_instance(
            rng, n_requests=4, n_pairs=2, n_triples=1, name=f"dom{trial}"
        )
        q = encode(inst)
        f_max = solve_exact(inst).best_value
        samples = sample_sa(q, reads=300, seed=trial)
        m = run_metrics(inst, f_max, samples)
        assert 0.0 <= m.expected_ar <= m.best_ar <= 1.0


def test_run_metrics_is_the_count_weighted_approximation_ratio():
    rng = np.random.default_rng(47)
    scored = 0.0
    for trial in range(6):
        inst = random_instance(
            rng, n_requests=5, n_pairs=2, n_triples=2,
            with_capacity=bool(trial % 2), name=f"score{trial}",
        )
        q = encode(inst)
        f_max = solve_exact(inst).best_value
        if f_max <= 0:
            continue
        rows = (rng.random((40, q.num_variables)) < 0.25).astype(np.uint8)
        counts = rng.integers(1, 20, size=len(rows))
        keys = sorted({"".join(map(str, row)) for row in rows})
        samples = _sample_set([(key, 0.0, int(c)) for key, c in zip(keys, counts)])
        m = run_metrics(inst, f_max, samples)
        ratios = [approximation_ratio(inst, f_max, e.bit_array()) for e in samples.entries]
        weighted = 0.0
        for entry, ar in zip(samples.entries, ratios):
            weighted += entry.count * ar
        assert m.expected_ar == weighted / samples.total_reads
        assert m.best_ar == max(ratios)
        assert m.reads == samples.total_reads
        scored += m.expected_ar
    assert scored > 0.0  # some feasible non-empty selections were drawn


_WEIGHTS = {
    "integers": None,
    "tenths": lambda rng: 0.1 * int(rng.integers(1, 30)),
    "zeros": lambda rng: float(rng.integers(0, 3)),
}


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
def test_batched_scorer_matches_per_entry_oracle(weights):
    rng = np.random.default_rng([sorted(_WEIGHTS).index(weights), 53])
    scored = 0
    for trial in range(12):
        inst = random_instance(
            rng, n_requests=int(rng.integers(1, 9)), n_pairs=int(rng.integers(0, 5)),
            n_triples=int(rng.integers(0, 4)), with_capacity=bool(trial % 2), name=f"b{trial}",
        )
        if _WEIGHTS[weights] is not None:
            draw = _WEIGHTS[weights]
            inst = dataclasses.replace(
                inst, requests=tuple(dataclasses.replace(r, weight=draw(rng)) for r in inst.requests)
            )
        f_max = solve_exact(inst).best_value
        if f_max <= 0:
            continue
        q = encode(inst)
        rows = (rng.random((60, q.num_variables)) < 0.35).astype(np.uint8)
        keys = sorted({"".join(map(str, row)) for row in rows})
        counts = rng.integers(1, 20, size=len(keys))
        samples = _sample_set([(key, 0.0, int(c)) for key, c in zip(keys, counts)])
        assert run_metrics(inst, f_max, samples) == reference_run_metrics(inst, f_max, samples)
        for entry in samples.entries:
            bits = entry.bit_array()
            expected = reference_ar(inst, f_max, bits[: q.n])[1]
            assert approximation_ratio(inst, f_max, bits) == expected
        scored += 1
    assert scored >= 6


def test_scorer_rejects_wrong_bit_counts(pair_instance):
    with pytest.raises(ValueError):
        approximation_ratio(pair_instance, 3.0, [0])
    with pytest.raises(ValueError):
        run_metrics(pair_instance, 3.0, _sample_set([("0", 0.0, 1)]))
    with pytest.raises(ValueError):
        run_metrics(pair_instance, 3.0, _sample_set([("01", 0.0, 1), ("1", 0.0, 1)]))


def test_aggregate_identical_runs_has_zero_width():
    agg = aggregate([_metrics(0.8)] * 5)
    assert agg.mean_expected_ar == 0.8
    assert agg.ci95_expected == 0.0
    assert agg.runs == 5


def test_aggregate_two_runs_closed_form():
    # Half-width = t_{0.975, df=1} * stdev({0,1}) / sqrt(2) = t_{0.975, 1} / 2.
    # Student t with 1 degree of freedom is the standard Cauchy, whose
    # quantile is tan(pi * (p - 1/2)), so t_{0.975, 1} = tan(0.475 * pi)
    # exactly, and the half-width is 6.3531023680873523... Compare against
    # this closed form, never against a constant read off a library's t.ppf:
    # those differ between library versions in the last digits.
    agg = aggregate([_metrics(0.0), _metrics(1.0)])
    assert agg.mean_expected_ar == 0.5
    assert agg.ci95_expected == pytest.approx(math.tan(0.475 * math.pi) / 2, rel=1e-12)
    # Three runs: Student t with 2 degrees of freedom has the quantile
    # (2p - 1) / sqrt(2p(1 - p)), and stdev({0, 1/2, 1}) = 1/2.
    p = 0.975
    agg = aggregate([_metrics(0.0), _metrics(0.5), _metrics(1.0)])
    t2 = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    assert agg.ci95_expected == pytest.approx(t2 * 0.5 / math.sqrt(3), rel=1e-12)


def test_aggregate_is_permutation_invariant():
    runs = [_metrics(v, b) for v, b in [(0.2, 0.5), (0.4, 0.9), (0.9, 1.0)]]
    a = aggregate(runs)
    b = aggregate(list(reversed(runs)))
    assert a == b


def test_aggregate_needs_two_runs():
    with pytest.raises(ValueError):
        aggregate([_metrics(1.0)])
