import math
import threading
import tracemalloc

import numpy as np
import pytest

from satplan import (
    AnnealSchedule,
    Instance,
    Request,
    SampleSet,
    VarRef,
    encode,
    sample_sa,
    solve_exhaustive,
)
from satplan import anneal
from satplan.anneal import anneal_settings
from satplan.qubo import Qubo
from helpers import (
    assert_bitwise_equal,
    random_instance,
    reference_from_states,
    reference_sample_sa,
    reference_solve_exhaustive,
)


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
    for entry, bits in zip(result.entries, result.bit_matrix(q.num_variables)):
        assert entry.energy == q.energy(bits)


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


def _tie_rich_qubo(rng, n, unit=1.0):
    # every variable alone scores -unit and a coupling of 0 or unit joins a
    # pair, so many sets of variables tie at the minimum; in tenths, the
    # float sums of tied sets differ in their last bits
    coeffs = {(i, i): -unit for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                coeffs[(i, j)] = unit * float(rng.integers(0, 2))
    return Qubo(coeffs, offset=float(rng.choice([0.0, -0.0, 0.5])), num_variables=n)


def _scaled_qubo(rng, n, coefficient):
    # about 40% of the pairs and diagonal, so few minima tie
    coeffs = {
        (i, j): coefficient(rng) for i in range(n) for j in range(i, n) if rng.random() < 0.4
    }
    return Qubo(coeffs, offset=float(rng.choice([0.0, -0.0])), num_variables=n)


def _reference_inputs(rng):
    for n in [0, 1, 2, 5, 8, 12]:
        for _ in range(3):
            yield _tie_rich_qubo(rng, n)
            yield _tie_rich_qubo(rng, n, unit=0.1)
    for n in [5, 12]:
        yield _scaled_qubo(rng, n, lambda r: float(r.integers(-20, 21)) / 10)
        for k in range(-3, 4):
            yield _scaled_qubo(rng, n, lambda r: float(r.normal()) * 10.0**k)
    # variables 0 and 11 lie in different blocks, their energies one ulp apart
    near = math.nextafter(-1.0, 0.0)
    for first, last in [(-1.0, near), (near, -1.0)]:
        yield Qubo({(0, 0): first, (11, 11): last}, offset=0.3, num_variables=12)
    # sums past the largest float, and |offset| + sum |v| past half of it,
    # check every state
    huge = {(i, i): -1e308 for i in range(4)}
    yield Qubo({**huge, (0, 5): 1e308, (6, 6): 1.0}, num_variables=12)
    yield Qubo({(0, 0): 5e307, (11, 11): -5e307, (5, 5): 1.0}, num_variables=12)
    # every state rounds to the offset, so every state ties and is checked
    tiny = {(i, j): float(rng.choice([-1e-12, 1e-12])) for i in range(12) for j in range(i, 12)}
    yield Qubo(tiny, offset=1e6, num_variables=12)
    # tenths whose two least energies, -9.1 and the float above it, swap
    # places in the estimates at every block size tested: the least estimate
    # is not the minimiser's, which only the bound's margin keeps checked
    near = np.random.default_rng(526)
    tenths = {
        (i, j): float(near.integers(-20, 21)) / 10
        for i in range(12)
        for j in range(i, 12)
        if near.random() < 0.4
    }
    yield Qubo(tenths, offset=0.3, num_variables=12)


@pytest.mark.parametrize("block_bits", [1, 3, 9])
def test_exhaustive_matches_the_full_table_reference(block_bits, monkeypatch):
    # small blocks put most ties across block boundaries, and small chunks
    # most ties across the chunks of a block
    monkeypatch.setattr(anneal, "_EXHAUSTIVE_BLOCK_BITS", block_bits)
    monkeypatch.setattr(anneal, "_EXHAUSTIVE_CHUNK_ROWS", 5)
    rng = np.random.default_rng(83)
    with np.errstate(over="ignore"):  # the 1e308 inputs sum past the largest float
        for q in _reference_inputs(rng):
            bits, energy = solve_exhaustive(q)
            ref_bits, ref_energy = reference_solve_exhaustive(q)
            assert bits.dtype == np.uint8
            assert bits.tolist() == ref_bits.tolist()
            assert energy == ref_energy


@pytest.mark.parametrize(
    "n, coeffs, winner",
    [
        # a free high bit: e_3 in block 0 ties e_3 + e_16 in block 1
        (17, {(3, 3): -1.0}, {3}),
        # e_15 in block 0 ties e_16 in block 1, whose bit 15 is clear
        (17, {(15, 15): -1.0, (16, 16): -1.0, (15, 16): 1.0}, {16}),
        # equal low bits: e_16 in block 1 ties e_17 in block 2
        (18, {(16, 16): -1.0, (17, 17): -1.0, (16, 17): 1.0}, {17}),
    ],
)
def test_exhaustive_ties_across_blocks(n, coeffs, winner):
    bits, energy = solve_exhaustive(Qubo(coeffs, num_variables=n))
    assert energy == -1.0
    assert set(np.flatnonzero(bits).tolist()) == winner


def test_exhaustive_all_tie_picks_all_zero_bits():
    bits, energy = solve_exhaustive(Qubo({}, offset=2.0, num_variables=20))
    assert bits.tolist() == [0] * 20
    assert energy == 2.0


def test_exhaustive_memory_is_one_block():
    rng = np.random.default_rng(89)
    q = _tie_rich_qubo(rng, 20)
    tracemalloc.start()
    try:
        solve_exhaustive(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block of low-bit terms and one block of estimates (1 MiB), and
    # the few states checked; the 2^20 table alone is 8 MiB
    assert peak < 2 * 2**20


def _checked_states(monkeypatch, q):
    """(the states ``solve_exhaustive(q)`` passes to ``Qubo.energies``, one
    list per call, its result)."""
    calls = []
    energies = Qubo.energies

    def counted(self, bits):
        calls.append((np.asarray(bits) << np.arange(bits.shape[1])).sum(axis=1).tolist())
        return energies(self, bits)

    with monkeypatch.context() as patch:
        patch.setattr(Qubo, "energies", counted)
        return calls, solve_exhaustive(q)


def test_exhaustive_checks_the_states_the_bound_admits(monkeypatch):
    # integer energies plus the offset: every minimiser of the table is
    # checked, and few other states are
    q = _tie_rich_qubo(np.random.default_rng(97), 20)
    calls, (bits, energy) = _checked_states(monkeypatch, q)
    checked = sum(calls, [])
    ref_bits, ref_energy = reference_solve_exhaustive(q)
    assert bits.tolist() == ref_bits.tolist() and energy == ref_energy
    minimisers = np.flatnonzero(q.energy_table() == ref_energy)
    assert len(minimisers) == 54
    assert set(minimisers.tolist()) <= set(checked)
    assert len(checked) < 1000
    # with every state tied, every state is checked
    calls, (bits, energy) = _checked_states(monkeypatch, Qubo({}, offset=2.0, num_variables=20))
    assert sorted(sum(calls, [])) == list(range(2**20))
    assert bits.tolist() == [0] * 20 and energy == 2.0


# the kept states of every block are checked together, in full chunks
# but the last: 2^14 rows take the seed-97 states in one call
@pytest.mark.parametrize("chunk_rows", [5, 64, 2**14])
def test_exhaustive_checks_kept_states_in_full_chunks(chunk_rows, monkeypatch):
    monkeypatch.setattr(anneal, "_EXHAUSTIVE_CHUNK_ROWS", chunk_rows)
    q = _tie_rich_qubo(np.random.default_rng(97), 20)
    calls, (bits, energy) = _checked_states(monkeypatch, q)
    ref_bits, ref_energy = reference_solve_exhaustive(q)
    assert bits.tolist() == ref_bits.tolist() and energy == ref_energy
    checked = sum(calls, [])
    assert len(calls) == math.ceil(len(checked) / chunk_rows)
    assert all(len(call) == chunk_rows for call in calls[:-1])


def test_exhaustive_size_guard():
    q = Qubo({}, num_variables=25)
    with pytest.raises(ValueError):
        solve_exhaustive(q)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=0)
    # a sweep count that is not an int failed later inside np.geomspace,
    # and True annealed one sweep
    for sweeps in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="sweeps must be an integer"):
            AnnealSchedule(sweeps=sweeps)
    # each read is one chain: restarts are not a setting
    with pytest.raises(TypeError):
        AnnealSchedule(restarts_per_read=2)


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


def _range(q: Qubo) -> tuple[float, float]:
    return anneal_settings(q)[:2]


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


def test_sample_set_requires_consistent_counts():
    from satplan.anneal import SampleEntry

    with pytest.raises(ValueError):
        SampleSet(
            entries=(SampleEntry(bits="0", energy=0.0, count=2),),
            total_reads=3,
            sampler_tag="sa",
            seed=0,
        )


def test_bit_matrix_reads_the_first_bits_of_every_entry():
    states = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    samples = SampleSet.from_states(states, np.array([2.0, 1.0, 2.0]), "sa", 0)
    assert [e.bits for e in samples.entries] == ["011", "101"]
    assert samples.bit_matrix(3).tolist() == [[False, True, True], [True, False, True]]
    assert samples.bit_matrix(2).tolist() == [[False, True], [True, False]]
    assert samples.bit_matrix(0).shape == (2, 0)
    with pytest.raises(ValueError, match="expected 4 decision bits in every sample"):
        samples.bit_matrix(4)


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


def test_from_state_is_from_states_of_its_copies():
    for bits, energy in [
        (np.zeros(0, dtype=np.uint8), 1.0),
        (np.array([1, 0, 1], dtype=np.uint8), -0.0),
        (np.array([True, False, False, True]), 2.5),
    ]:
        for reads in (1, 7):
            copies = np.broadcast_to(bits, (reads, len(bits)))
            ref = SampleSet.from_states(copies, np.full(reads, energy), "exact", 5)
            new = SampleSet.from_state(bits, energy, reads, "exact", 5)
            assert new == ref and new.to_json() == ref.to_json()


def test_finds_optimum_on_small_encoded_instance():
    rng = np.random.default_rng(19)
    inst = random_instance(
        rng, n_requests=5, n_pairs=2, n_triples=2, with_capacity=True, name="sa-opt"
    )
    q = encode(inst)
    _, floor = solve_exhaustive(q)
    result = sample_sa(q, reads=500, seed=23)
    assert result.best().energy == floor


def _encoded(
    seed: int, with_capacity: bool, n_requests: int, n_pairs: int = 3, n_triples: int = 2,
    m: float | None = None,
) -> Qubo:
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_requests=n_requests, n_pairs=n_pairs, n_triples=n_triples,
        with_capacity=with_capacity, name=f"ref{seed}",
    )
    return encode(inst, m)


def _scaled(q: Qubo, s: float) -> Qubo:
    """``q`` with every coefficient, the offset and M times ``s``, and the
    same load: its derived betas are those of ``q`` over ``s``."""
    return Qubo(
        {(i, j): v * s for i, j, v in q.terms()}, offset=q.offset * s,
        penalty_m=q.penalty_m * s, num_variables=q.num_variables, slack_vars=q.slack_vars,
        capacity_load=q.capacity_load,
    )


def _mono(rid: int, weight: float, cams: tuple[int, ...], caps: dict[int, int]) -> Request:
    return Request(
        id=rid, kind="mono", weight=weight, allowed_cameras=cams, capacity_by_camera=caps
    )


# Variable 0 is loaded but in no uniqueness, pair or triple term, so its
# row of the capacity remainder holds only its own diagonal, as do the
# three capacity digits; variables 1-3 carry both kinds of coupling.
_isolated_load = lambda: encode(Instance(
    name="isolated-load",
    requests=(
        _mono(0, 3.0, (1,), {1: 2}),
        _mono(1, 2.0, (1, 2), {1: 1, 2: 3}),
        _mono(2, 4.0, (2,), {2: 2}),
    ),
    binary_forbidden=frozenset({(VarRef(1, 1), VarRef(2, 2))}),
    disk_capacity=4,
))


# 44 variables without capacity: most rows of couplings are scattered over
# the variables, and a few variables have none.
_wide_sparse = lambda: _encoded(21, False, 24, n_pairs=10, n_triples=4)


# Variable 2 has no terms at all, and variable 1's field is exactly zero
# whenever x0 = 0, so both see flip costs of +-0.
_FREE = Qubo({(0, 0): -1.0, (0, 1): 1.0}, num_variables=3)

# _FREE at 3e307: the derived betas run from about 1.2e-308 to 3.1e-307,
# which take -ln(u) / beta past the largest float64 for u below about 0.13
# early in the ramp; such a threshold accepts, as every flip here should.
_HUGE = Qubo({(0, 0): -3e307, (0, 1): 3e307}, num_variables=3)

# |coefficients| from 1e-300 to 3e10: late in the derived ramp (beta_end
# about 9e300) the thresholds -ln(u) / beta fall to subnormal numbers.
# Three degenerate states at -3e10 on variables 0 and 1 keep several entries.
_EXTREME = Qubo({
    (0, 0): -3e10, (1, 1): -3e10, (0, 1): 3e10, (1, 2): 1e-3, (2, 2): 5.0,
    (0, 2): -7e3, (2, 3): 1e5, (3, 3): -2.5e-7, (3, 4): -1e-300, (4, 4): 1e-300,
    (4, 5): 2e-300, (5, 5): -1e-300,
})

# 30 variables whose couplings and linear terms take a few non-integer
# values, so a variable updates several field rows under one value and
# others under values of their own: a product added to a wrong row, or to
# a row twice, changes the samples.
def _grouped_couplings() -> Qubo:
    rng = np.random.default_rng(43)
    nv = 30
    coefficients = {(i, i): float(rng.choice([-0.5, -0.2, 0.25, 1 / 3])) for i in range(nv)}
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < 0.2:
                coefficients[(i, j)] = float(rng.choice([0.1, 0.3, 1 / 3, -0.7]))
    return Qubo(coefficients)


REFERENCE_CASES = {
    "capacity-clique": (lambda: _encoded(6, True, 7), 300, AnnealSchedule(sweeps=80)),
    "sparse": (lambda: _encoded(3, False, 8), 300, AnnealSchedule(sweeps=80)),
    "free-variable": (lambda: _FREE, 200, AnnealSchedule(sweeps=40)),
    "one-read": (lambda: _encoded(5, True, 5), 1, AnnealSchedule(sweeps=200)),
    "one-variable": (
        lambda: Qubo({(0, 0): 0.5}), 100, AnnealSchedule(sweeps=60),
    ),
    # no variables: every read is the empty state at the offset, whose
    # sign the sample set keeps
    "zero-variables": (
        lambda: Qubo({}, offset=-0.0), 7, AnnealSchedule(sweeps=5),
    ),
    # M = 1e6: betas from about 8e-9 to 9.2, with the load factored out
    # in float64
    "extreme-betas": (lambda: _encoded(13, True, 5, m=1e6), 300, AnnealSchedule(sweeps=30)),
    "default-schedule": (lambda: _encoded(6, True, 7), 100, AnnealSchedule()),
    "extreme-scale": (lambda: _EXTREME, 200, AnnealSchedule(sweeps=60)),
    "wide-sparse": (_wide_sparse, 600, AnnealSchedule(sweeps=50)),
    # coefficients near 1e12 give betas from about 2e-13 to 2e-11;
    # variable 0, which has no couplings, updates an empty block of field
    # rows on each accepted flip
    "uncoupled-hot": (
        lambda: Qubo({(0, 0): 2e12, (1, 1): -1e12, (1, 2): 3e12, (2, 2): 5e11}), 100,
        AnnealSchedule(sweeps=21),
    ),
    # a non-integer M, and an M whose sums pass 2^52: neither factors out
    # its capacity load, so both anneal the dense couplings in float64
    "capacity-fractional-m": (lambda: _encoded(6, True, 7, m=7.3), 300, AnnealSchedule(sweeps=80)),
    "capacity-huge-m": (lambda: _encoded(6, True, 7, m=1e300), 300, AnnealSchedule(sweeps=80)),
    "tiny-betas": (lambda: _HUGE, 100, AnnealSchedule(sweeps=9)),
    # an M whose double overflows, with no load to factor out
    "unloaded-huge-m": (
        lambda: Qubo({(0, 0): -2.0, (0, 1): 1.0}, penalty_m=1e308), 100, AnnealSchedule(sweeps=20),
    ),
    "isolated-load": (_isolated_load, 300, AnnealSchedule(sweeps=60)),
    "grouped-couplings": (_grouped_couplings, 300, AnnealSchedule(sweeps=60)),
}


# an overflow or a log(0) in either loop must be handled there, not
# surface as a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 29])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sample_sa_matches_reference_loop(case, seed):
    build, reads, sched = REFERENCE_CASES[case]
    q = build()
    got, ref = sample_sa(q, reads, sched, seed), reference_sample_sa(q, reads, sched, seed)
    assert got == ref
    assert got.to_json() == ref.to_json()  # == takes -0.0 for 0.0



class _Injected(Exception):
    pass


def _raise_on_call(fn, n, exc=_Injected):
    """``fn``, except that its ``n``-th call raises ``exc(n)``."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        if wrapper.calls == n:
            raise exc(n)
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


_LIFECYCLE_CASE = (lambda: _encoded(6, True, 7), 50, AnnealSchedule(sweeps=10))


def test_sample_sa_leaves_no_thread_behind():
    build, reads, sched = _LIFECYCLE_CASE
    before = threading.enumerate()
    sample_sa(build(), reads, sched, seed=1)
    assert threading.enumerate() == before


class _FailingDraws:
    """A generator whose ``n``-th ``random`` call raises ``_Injected``."""

    def __init__(self, rng, n):
        self._rng = rng
        self.random = _raise_on_call(rng.random, n)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# the uniforms of sweep 1, drawn before the first sweep, and of sweep 4,
# drawn while the main thread anneals sweep 3
@pytest.mark.parametrize("n", [1, 4])
def test_a_failure_in_the_uniform_worker_reaches_the_caller(n, monkeypatch):
    build, reads, sched = _LIFECYCLE_CASE
    q = build()
    before = threading.enumerate()
    generators = []
    default_rng = np.random.default_rng

    def failing_rng(seed):
        generators.append(_FailingDraws(default_rng(seed), n))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    with pytest.raises(_Injected) as raised:
        sample_sa(q, reads, sched, seed=1)
    assert raised.value.args == (n,)
    [rng] = generators
    assert rng.random.calls == n  # no later sweep's uniforms were drawn
    assert threading.enumerate() == before


# a failure in the sweep loop, in its first sweep and in a later one, and
# in the thresholds it makes of sweeps 1 and 4; an interrupt, too, must
# stop the worker
@pytest.mark.parametrize(
    "name, n, exc",
    [
        pytest.param("count_nonzero", 1, _Injected, id="1"),
        pytest.param("count_nonzero", 40, _Injected, id="40"),
        pytest.param("log", 1, _Injected, id="log-1"),
        pytest.param("log", 4, _Injected, id="log-4"),
        pytest.param("count_nonzero", 40, KeyboardInterrupt, id="interrupt-40"),
    ],
)
def test_a_failure_in_the_sweep_loop_stops_the_uniform_worker(name, n, exc, monkeypatch):
    build, reads, sched = _LIFECYCLE_CASE
    q = build()
    before = threading.enumerate()
    failing = _raise_on_call(getattr(np, name), n, exc)
    monkeypatch.setattr(np, name, failing)
    with pytest.raises(exc):
        sample_sa(q, reads, sched, seed=1)
    assert failing.calls == n
    assert threading.enumerate() == before


def test_capacity_case_is_densely_coupled():
    # the "capacity-clique" case above must really exercise dense couplings
    w = _encoded(6, True, 7).interaction_matrix()
    nv = w.shape[0]
    assert nv >= 15
    assert np.count_nonzero(w) >= 0.6 * nv * (nv - 1)


def _remainder(q: Qubo) -> np.ndarray:
    """Off-diagonal couplings left once the capacity clique is taken out."""
    a = q.capacity_load
    remainder = q.interaction_matrix() - 2.0 * q.penalty_m * np.outer(a, a)
    np.fill_diagonal(remainder, 0.0)
    return remainder


def test_capacity_case_factors_into_a_sparse_remainder():
    # the "capacity-clique" case above must anneal through the load term:
    # its load is factored out, and its remainder is sparse
    q = _encoded(6, True, 7)
    assert anneal_settings(q)[3]
    assert np.count_nonzero(q.capacity_load) >= 10
    remainder = _remainder(q)
    assert np.count_nonzero(remainder) <= 0.2 * np.count_nonzero(q.interaction_matrix())
    # "isolated-load": a loaded decision whose remainder row is empty
    iso = _isolated_load()
    assert iso.capacity_load[0] != 0 and not _remainder(iso)[0].any()
    # inexact sums factor out no load, and a capacity that no request
    # uses records none
    for q in (_encoded(6, True, 7, m=7.3), _encoded(6, True, 7, m=1e300)):
        assert q.capacity_load is not None and not anneal_settings(q)[3]
    unused = Instance(name="unused", requests=(_mono(0, 1.0, (1,), {}),), disk_capacity=3)
    with pytest.warns(UserWarning, match="no request uses disk"):
        assert encode(unused).capacity_load is None


def test_capacity_load_changes_no_sample_and_no_dense_view():
    rng = np.random.default_rng(37)
    for trial in range(20):
        inst = random_instance(
            rng, n_requests=int(rng.integers(3, 7)), n_pairs=2, n_triples=1,
            with_capacity=True, name=f"load{trial}",
        )
        q = encode(inst)
        assert anneal_settings(q)[3]
        dense = Qubo(
            {(i, j): v for i, j, v in q.terms()},
            offset=q.offset, penalty_m=q.penalty_m, num_variables=q.num_variables,
            slack_vars=q.slack_vars,
        )
        assert dense.capacity_load is None
        assert q.to_json() == dense.to_json()
        assert np.array_equal(q.interaction_matrix(), dense.interaction_matrix())
        assert_bitwise_equal(q.energy_table(), dense.energy_table())
        sched = AnnealSchedule(sweeps=30)
        got = sample_sa(q, 200, sched, trial)
        assert got.to_json() == sample_sa(dense, 200, sched, trial).to_json()


def test_wide_sparse_case_has_scattered_and_empty_rows():
    # the "wide-sparse" case above must update field rows that are not one
    # contiguous range, and rows of variables without couplings
    w = _wide_sparse().interaction_matrix()
    assert w.shape[0] >= 40
    rows = [np.flatnonzero(row) for row in w]
    assert any(r.size and r[-1] - r[0] + 1 != r.size for r in rows)
    assert any(r.size == 0 for r in rows)


def test_grouped_couplings_case_shares_some_values_and_not_others():
    # the "grouped-couplings" case above must update several rows under one
    # value and, for the same variable, other rows under values of their own
    w = _grouped_couplings().interaction_matrix()
    counts = [np.unique(row[row != 0], return_counts=True)[1] for row in w]
    assert sum(1 for c in counts if c.max(initial=0) >= 2 and c.min() == 1) >= 10
    assert not np.array_equal(w, np.round(w))


@pytest.mark.parametrize(
    "h, sweeps, precision",
    [(3.0, 1, "float32"), (3.0, 2, "float32"), (0.3, 1, "float64"), (0.3, 2, "float64")],
)
def test_threshold_rule_accepts_uphill_flips_at_the_metropolis_rate(h, sweeps, precision):
    # one variable of cost h: a sweep at beta takes a read at 0 to 1 with
    # probability exp(-beta h) and always takes a read at 1 down, so the
    # share of reads at 1 goes from 1/2 to (1 - share) * exp(-beta h) per
    # sweep; the derived ramp's ends give exp(-beta h) = 1/2 and 1e-4
    q = Qubo({(0, 0): h})
    beta_start, beta_end, got, _ = anneal_settings(q)
    assert got == precision
    p = 0.5
    for beta in np.geomspace(beta_start, beta_end, sweeps):
        p = (1 - p) * math.exp(-beta * h)
    reads = 200_000
    samples = sample_sa(q, reads, AnnealSchedule(sweeps=sweeps), seed=4)
    ones = sum(e.count for e in samples.entries if e.bits == "1")
    assert abs(ones / reads - p) < 5 * math.sqrt(p * (1 - p) / reads)


# (QUBO, whether the annealer factors out its capacity load, precision).
# The single-variable loads are consistent: with no couplings,
# S_00 = -2M a_0^2 and 2M a_0 L cancel, as they must.
PRECISION_CASES = {
    "bound-just-below-2^23": (lambda: Qubo({(0, 0): 2.0**23 - 1}), False, "float32"),
    "bound-2^23": (lambda: Qubo({(0, 0): 2.0**23}), False, "float64"),
    "coupled-bound-just-below-2^23": (
        lambda: Qubo({(0, 0): 2.0**22, (0, 1): 1 - 2.0**22, (1, 1): 1.0}), False, "float32",
    ),
    "coupled-bound-2^23": (
        lambda: Qubo({(0, 0): 2.0**22, (0, 1): -(2.0**22), (1, 1): 1.0}), False, "float64",
    ),
    # fields of 2^24 + 1, which float32 would round to 2^24
    "odd-sums-past-2^24": (
        lambda: Qubo({(0, 0): 1.0, (0, 1): 2.0**24, (1, 1): -1.0}), False, "float64",
    ),
    "load-bound-just-below-2^23": (
        lambda: Qubo({(0, 0): 3.0}, penalty_m=2.0**21 - 1, capacity_load=[1.0]), True, "float32",
    ),
    "load-bound-2^23": (
        lambda: Qubo({(0, 0): 4.0}, penalty_m=2.0**21 - 1, capacity_load=[1.0]), True, "float64",
    ),
    "load-bound-just-below-2^52": (
        lambda: Qubo({(0, 0): 3.0}, penalty_m=2.0**50 - 1, capacity_load=[1.0]), True, "float64",
    ),
    "load-bound-2^52": (
        lambda: Qubo({(0, 0): 4.0}, penalty_m=2.0**50 - 1, capacity_load=[1.0]), False, "float64",
    ),
    "m-7.5": (lambda: _encoded(6, True, 7, m=7.5), False, "float64"),
    "m-7.3": (lambda: _encoded(6, True, 7, m=7.3), False, "float64"),
    "m-1e300": (lambda: _encoded(6, True, 7, m=1e300), False, "float64"),
    # the capacity clique at 1e12 times its scale: betas from about 9e-18
    # to 2e-12, integers whose sums pass 2^52
    "betas-1e-12": (lambda: _scaled(_encoded(6, True, 7), 1e12), False, "float64"),
    "betas-1e-12-float64": (lambda: _scaled(_encoded(6, True, 7, m=7.3), 1e12), False, "float64"),
    # betas past 1e-30 and 1e30 come only with coefficients past 2^23 or
    # below 1, which the bound already sends to float64
    "beta-below-float32": (
        lambda: Qubo({(0, 0): 1e31, (0, 1): -3.0, (1, 1): 2.0}), False, "float64",
    ),
    "beta-above-float32": (
        lambda: Qubo({(0, 0): 1e-31, (0, 1): -3.0, (1, 1): 2.0}), False, "float64",
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(PRECISION_CASES))
def test_field_bound_picks_the_load_split_and_the_precision(case):
    build, factored, precision = PRECISION_CASES[case]
    q, sched = build(), AnnealSchedule(sweeps=20)
    assert anneal_settings(q)[2:] == (precision, factored)
    # the reference loop also checks that its fields are exact wherever
    # the annealer relies on that
    assert sample_sa(q, 50, sched, seed=2) == reference_sample_sa(q, 50, sched, seed=2)


# float32 runs at the edges of the certificate: a bound of 2^23 - 1 with
# min |c| = 1, no coefficients at all, and capacity encodings
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "build",
    [
        lambda: Qubo({(0, 0): 2.0**23 - 2, (0, 1): 1.0}),
        lambda: Qubo({}, num_variables=3),
        lambda: _encoded(6, True, 7),
        lambda: _encoded(11, True, 4),
        _isolated_load,
    ],
    ids=["bound-2^23-1", "no-coefficients", "capacity-clique", "capacity-small", "isolated-load"],
)
def test_float32_betas_give_normal_thresholds(build):
    beta_start, beta_end, precision, _ = anneal_settings(build())
    assert precision == "float32"
    assert math.log(2.0) / 2.0**23 <= beta_start < beta_end <= math.log(1e4)
    # the smallest and largest float32 uniforms above 0, at both ends
    u = np.array([2.0**-24, 1 - 2.0**-24], dtype=np.float32)
    for beta in (beta_start, beta_end):
        t = np.log(u) * (-1.0 / beta)
        assert t.dtype == np.float32
        assert np.all(np.isfinite(t)) and np.all(t >= np.finfo(np.float32).tiny)


def test_tiny_betas_case_takes_thresholds_past_the_largest_float():
    # the "tiny-betas" case above must reach the float64 overflow guard
    beta_start, _, precision, _ = anneal_settings(_HUGE)
    assert precision == "float64"
    with np.errstate(over="ignore"):
        assert np.log(np.float64(0.1)) * (-1.0 / beta_start) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_zero_uniform_accepts_without_a_warning():
    # seed 17's float32 uniforms for this one-sweep call hold an exact 0,
    # whose log is -inf: its threshold is +inf, an accept
    reads, seed = 1 << 20, 17
    rng = np.random.default_rng(seed)
    rng.integers(0, 2, size=(reads, 1), dtype=np.uint8)
    assert (rng.random((1, reads), dtype=np.float32) == 0).any()
    q = Qubo({(0, 0): 1.0})
    sched = AnnealSchedule(sweeps=1)
    assert anneal_settings(q)[2] == "float32"
    assert sample_sa(q, reads, sched, seed) == reference_sample_sa(q, reads, sched, seed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reads", [1, 5, 300])
def test_uniform_block_equals_per_variable_draws(reads, dtype):
    # sample_sa draws each sweep's (variables, reads) block in one call and
    # takes its log in one call; the reference loop does both one variable
    # at a time, after the same initial states
    nv = 7
    block_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
    for rng in (block_rng, row_rng):
        rng.integers(0, 2, size=(reads, nv), dtype=np.uint8)
    block = np.empty((nv, reads), dtype)
    for _ in range(3):
        block_rng.random(out=block, dtype=dtype)
        rows = np.stack([row_rng.random(reads, dtype=dtype) for _ in range(nv)])
        assert_bitwise_equal(block, rows)
        assert_bitwise_equal(np.log(block), np.stack([np.log(row) for row in rows]))
