import math

import numpy as np
import pytest

from satplan import AnnealSchedule, SampleSet, encode, sample_sa, solve_exhaustive
from satplan.anneal import _screen_thresholds, beta_range
from satplan.qubo import Qubo
from helpers import random_instance, reference_from_states, reference_sample_sa


def test_single_downhill_variable():
    q = Qubo({(0, 0): -1.0})
    result = sample_sa(q, reads=50, sched=AnnealSchedule(sweeps=10), seed=1)
    assert len(result.entries) == 1
    assert result.entries[0].bits == "1"
    assert result.entries[0].energy == -1.0
    assert result.entries[0].count == 50


def test_zero_qubo_energies_equal_offset():
    q = Qubo({}, offset=2.5, num_variables=4)
    result = sample_sa(q, reads=20, sched=AnnealSchedule(sweeps=5), seed=3)
    assert all(e.energy == 2.5 for e in result.entries)
    assert result.total_reads == 20


def test_determinism():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n_requests=4, n_pairs=2, n_triples=1, name="sa-det")
    q = encode(inst)
    sched = AnnealSchedule(sweeps=50)
    a = sample_sa(q, reads=100, sched=sched, seed=42)
    b = sample_sa(q, reads=100, sched=sched, seed=42)
    assert a == b
    c = sample_sa(q, reads=100, sched=sched, seed=43)
    assert a != c


def test_energy_bookkeeping_is_exact():
    rng = np.random.default_rng(7)
    inst = random_instance(
        rng, n_requests=5, n_pairs=2, n_triples=2, with_capacity=True, name="sa-book"
    )
    q = encode(inst)
    result = sample_sa(q, reads=200, sched=AnnealSchedule(sweeps=30), seed=11)
    for entry in result.entries:
        assert entry.energy == q.energy(entry.bit_array())


def test_counts_sum_to_reads():
    q = Qubo({}, num_variables=2)
    result = sample_sa(q, reads=64, sched=AnnealSchedule(sweeps=2), seed=0)
    assert sum(e.count for e in result.entries) == result.total_reads == 64


def test_oracle_dominance():
    rng = np.random.default_rng(13)
    for trial in range(5):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(3, 6)),
            n_pairs=2,
            n_triples=1,
            with_capacity=bool(rng.integers(0, 2)),
            name=f"dom{trial}",
        )
        q = encode(inst)
        if q.num_variables > 20:
            continue
        _, floor = solve_exhaustive(q)
        result = sample_sa(q, reads=100, sched=AnnealSchedule(sweeps=100), seed=trial)
        assert result.best().energy >= floor


def test_exhaustive_basics():
    q = Qubo({(0, 0): 1.0}, offset=0.25)
    bits, energy = solve_exhaustive(q)
    assert bits.tolist() == [0]
    assert energy == 0.25


def test_exhaustive_tie_breaks_lexicographically():
    # two degenerate minima: x=(1,0) and x=(0,1) both score -1
    q = Qubo({(0, 0): -1.0, (1, 1): -1.0, (0, 1): 1.0})
    bits, energy = solve_exhaustive(q)
    assert energy == -1.0
    assert bits.tolist() == [0, 1]  # (0,1) precedes (1,0)


def test_exhaustive_size_guard():
    q = Qubo({}, num_variables=25)
    with pytest.raises(ValueError):
        solve_exhaustive(q)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=0)
    with pytest.raises(ValueError):
        AnnealSchedule(beta_start=2.0, beta_end=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(restarts_per_read=0)
    with pytest.raises(ValueError):
        AnnealSchedule(beta_end=1.0, beta_start=math.inf)
    with pytest.raises(ValueError):
        AnnealSchedule(beta_start=1.0, beta_end=math.inf)


@pytest.mark.parametrize("given", [{"beta_start": 0.5}, {"beta_end": 5.0}])
def test_schedule_needs_both_betas_or_neither(given):
    with pytest.raises(ValueError):
        AnnealSchedule(**given)


def _scale(q: Qubo) -> tuple[float, float]:
    """(largest possible flip cost, smallest nonzero |coefficient|), from the
    stored terms: flipping x_i changes the energy by at most the sum of
    |c| over the terms that contain i."""
    bound = np.zeros(q.num_variables)
    sizes = []
    for i, j, v in q.terms():
        bound[i] += abs(v)
        if j != i:
            bound[j] += abs(v)
        if v != 0:
            sizes.append(abs(v))
    return float(bound.max()), min(sizes)


def _range(q: Qubo, sched: AnnealSchedule | None = None) -> tuple[float, float]:
    return beta_range(sched or AnnealSchedule(), q.linear_terms(), q.interaction_matrix())


@pytest.mark.parametrize(
    "build",
    [
        lambda: _encoded(6, True, 7),
        lambda: _encoded(3, False, 8),
        lambda: _FREE,
        lambda: Qubo({(0, 0): 0.5}),
        lambda: Qubo({(0, 0): -3.25, (0, 2): 1e-3, (1, 2): -700.0, (1, 1): 2.0}),
    ],
)
def test_derived_range_accepts_half_at_hot_end_and_1e4_at_cold_end(build):
    q = build()
    beta_start, beta_end = _range(q)
    max_flip, min_coefficient = _scale(q)
    assert math.exp(-beta_start * max_flip) == pytest.approx(0.5, abs=1e-12)
    assert math.exp(-beta_end * min_coefficient) == pytest.approx(1e-4, abs=1e-12)
    assert beta_end > beta_start > 0


def test_qubo_without_coefficients_takes_unit_scale():
    for q in (Qubo({}, offset=2.5, num_variables=4), Qubo({(0, 0): 0.0, (0, 1): 0.0})):
        beta_start, beta_end = _range(q)
        assert (beta_start, beta_end) == (math.log(2.0), math.log(1e4))
        result = sample_sa(q, reads=10, seed=0)
        assert all(e.energy == q.offset for e in result.entries)


@pytest.mark.parametrize(
    "q",
    [
        Qubo({(0, 0): 1e-320}),  # subnormal: both betas overflow
        Qubo({(0, 0): 1e308, (1, 1): 1e308, (0, 1): 1e308}),  # flip bound overflows: beta_start 0
    ],
)
def test_non_finite_derived_beta_raises(q):
    with pytest.raises(ValueError):
        _range(q)
    with pytest.raises(ValueError):
        sample_sa(q, reads=4, seed=0)


def test_explicit_betas_are_kept():
    sched = AnnealSchedule(beta_start=0.1, beta_end=10.0)
    assert _range(_encoded(6, True, 7), sched) == (0.1, 10.0)


def test_restarts_keep_best_per_read():
    rng = np.random.default_rng(17)
    inst = random_instance(rng, n_requests=4, n_pairs=1, n_triples=1, name="restart")
    q = encode(inst)
    one = sample_sa(q, reads=50, sched=AnnealSchedule(sweeps=20, restarts_per_read=1), seed=9)
    three = sample_sa(q, reads=50, sched=AnnealSchedule(sweeps=20, restarts_per_read=3), seed=9)
    assert three.best().energy <= one.best().energy


def test_sample_set_requires_consistent_counts():
    from satplan.anneal import SampleEntry

    with pytest.raises(ValueError):
        SampleSet(
            entries=(SampleEntry(bits="0", energy=0.0, count=2),),
            total_reads=3,
            sampler_tag="sa",
            seed=0,
        )


def _tally_cases():
    rng = np.random.default_rng(61)
    mixed = rng.integers(0, 2, size=(300, 4), dtype=np.uint8)
    # few levels, so ties between keys are common; 0.0 and -0.0 show which read's energy is kept
    mixed_energies = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.5], size=300)
    return {
        "no variables": (np.zeros((5, 0), dtype=np.uint8), np.array([1.0, -0.0, 0.0, 2.0, 0.0])),
        "no reads": (np.zeros((0, 3), dtype=np.uint8), np.zeros(0)),
        "one read": (np.array([[1, 0, 1]], dtype=np.uint8), np.array([-3.0])),
        "all duplicates": (np.ones((6, 3), dtype=np.uint8), np.array([4.0, 3.0, 2.0, 1.0, 0.0, -0.0])),
        "mixed energies": (mixed, mixed_energies),
        "bool states": (mixed.astype(bool), mixed_energies),
        "wide rows": (rng.integers(0, 2, size=(50, 70), dtype=np.uint8), rng.normal(size=50)),
    }


@pytest.mark.parametrize("case", list(_tally_cases()))
def test_from_states_matches_reference_tally(case):
    states, energies = _tally_cases()[case]
    new = SampleSet.from_states(states, energies, "sa", 3)
    ref = reference_from_states(states, energies, "sa", 3)
    assert new == ref
    # == takes -0.0 for 0.0; the JSON keeps the sign, and the types must match too
    assert new.to_json() == ref.to_json()
    assert all(type(e.energy) is float and type(e.count) is int for e in new.entries)


def test_finds_optimum_on_small_encoded_instance():
    rng = np.random.default_rng(19)
    inst = random_instance(
        rng, n_requests=5, n_pairs=2, n_triples=2, with_capacity=True, name="sa-opt"
    )
    q = encode(inst)
    _, floor = solve_exhaustive(q)
    result = sample_sa(q, reads=500, seed=23)
    assert result.best().energy == floor


def _encoded(seed: int, with_capacity: bool, n_requests: int) -> Qubo:
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_requests=n_requests, n_pairs=3, n_triples=2,
        with_capacity=with_capacity, name=f"ref{seed}",
    )
    return encode(inst)


# Variable 2 has no terms at all, and variable 1's field is exactly zero
# whenever x0 = 0, so both see flip costs of +-0.
_FREE = Qubo({(0, 0): -1.0, (0, 1): 1.0}, num_variables=3)

REFERENCE_CASES = {
    "capacity-clique": (lambda: _encoded(6, True, 7), 300, AnnealSchedule(sweeps=80)),
    "sparse": (lambda: _encoded(3, False, 8), 300, AnnealSchedule(sweeps=80)),
    "free-variable": (lambda: _FREE, 200, AnnealSchedule(sweeps=40)),
    "restarts": (
        lambda: _encoded(11, True, 4), 150, AnnealSchedule(sweeps=40, restarts_per_read=3),
    ),
    "one-read": (lambda: _encoded(5, True, 5), 1, AnnealSchedule(sweeps=200)),
    "one-variable": (
        lambda: Qubo({(0, 0): 0.5}), 100, AnnealSchedule(sweeps=60),
    ),
    "extreme-betas": (
        lambda: _encoded(13, True, 5), 300,
        AnnealSchedule(sweeps=30, beta_start=1e-6, beta_end=1e3),
    ),
    "default-schedule": (lambda: _encoded(6, True, 7), 100, AnnealSchedule()),
    "fixed-unit-ramp": (
        lambda: _encoded(6, True, 7), 100,
        AnnealSchedule(sweeps=100, beta_start=0.1, beta_end=10.0),
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 29])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sample_sa_matches_reference_loop(case, seed):
    build, reads, sched = REFERENCE_CASES[case]
    q = build()
    assert sample_sa(q, reads, sched, seed) == reference_sample_sa(q, reads, sched, seed)


def test_capacity_case_is_densely_coupled():
    # the "capacity-clique" case above must really exercise dense couplings
    w = _encoded(6, True, 7).interaction_matrix()
    nv = w.shape[0]
    assert nv >= 15
    assert np.count_nonzero(w) >= 0.6 * nv * (nv - 1)


def test_screen_keeps_every_exact_accept():
    rng = np.random.default_rng(2024)
    fixed = np.array([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    us = np.concatenate([fixed, rng.random(300), rng.random(50) ** 40, 1.0 - rng.random(50) * 1e-12])
    accepted_near_boundary = rejected_near_boundary = 0
    for beta in np.geomspace(1e-6, 1e3, 37):
        thr = _screen_thresholds(us, beta, out=np.empty_like(us))
        assert np.all(thr > 0.0)
        assert thr[0] == np.inf
        with np.errstate(divide="ignore"):
            centre = -np.log(us) / beta
        finite = np.isfinite(centre)
        lo = hi = centre[finite]
        deltas = [centre[finite]]
        for _ in range(40):
            lo = np.nextafter(lo, -np.inf)
            hi = np.nextafter(hi, np.inf)
            deltas += [lo, hi]
        delta = np.stack(deltas)
        u, t = us[finite], thr[finite]
        accept = u < np.exp(np.minimum(-beta * delta, 0.0))
        assert np.all(delta[accept] < np.broadcast_to(t, delta.shape)[accept])
        accepted_near_boundary += np.count_nonzero(accept)
        rejected_near_boundary += np.count_nonzero(~accept)
        # u = 0 passes every finite cost to the exact test
        assert np.all(np.array([1e-300, 1.0, 1e300]) < thr[0])
        # downhill and zero-cost flips always pass
        assert np.all(np.array([-0.0, 0.0, -1.0, -1e300])[:, None] < thr[None, :])
    # the window straddles the boundary, so both outcomes occur in it
    assert accepted_near_boundary > 0 and rejected_near_boundary > 0
