import numpy as np
import pytest

from satplan.qubo import IsingModel, Qubo
from helpers import assert_bitwise_equal, encode_checked, random_instance


def random_integer_qubo(rng: np.random.Generator, n: int, density: float = 0.5) -> Qubo:
    """Integer coefficients keep the Ising transform exact in floats."""
    coeffs = {}
    for i in range(n):
        coeffs[(i, i)] = float(rng.integers(-8, 9))
        for j in range(i + 1, n):
            if rng.random() < density:
                coeffs[(i, j)] = float(rng.integers(-8, 9))
    return Qubo(coeffs, offset=float(rng.integers(-4, 5)), num_variables=n)


def test_single_diagonal_entry():
    q = Qubo({(0, 0): -1.0})
    ising = q.to_ising()
    assert ising.h.tolist() == [0.5]
    assert ising.offset == -0.5
    assert ising.energy_table().tolist() == [0.0, -1.0]


def test_zero_matrix():
    q = Qubo({}, num_variables=3)
    ising = q.to_ising()
    assert not ising.h.any()
    assert list(ising.j_terms()) == []
    assert ising.offset == 0.0


def test_exact_identity_random_ten_variable_qubos():
    rng = np.random.default_rng(73)
    for _ in range(20):
        q = random_integer_qubo(rng, 10)
        ising = q.to_ising()
        assert np.array_equal(q.energy_table(), ising.energy_table())


def test_exact_identity_on_encoded_instances():
    rng = np.random.default_rng(79)
    checked = 0
    for trial in range(30):
        inst = random_instance(
            rng,
            n_requests=int(rng.integers(1, 5)),
            n_pairs=int(rng.integers(0, 3)),
            n_triples=int(rng.integers(0, 2)),
            with_capacity=bool(rng.integers(0, 2)),
            name=f"isg{trial}",
        )
        q = encode_checked(inst)
        if q.num_variables > 12:
            continue
        checked += 1
        assert np.array_equal(q.energy_table(), q.to_ising().energy_table())
    assert checked >= 10


def test_row_energies_match_tables():
    rng = np.random.default_rng(83)
    q = random_integer_qubo(rng, 8)
    ising = q.to_ising()
    table_q = q.energy_table()
    table_i = ising.energy_table()
    bits = rng.integers(0, 2, size=(50, 8), dtype=np.uint8)
    keys = (bits * (1 << np.arange(8))).sum(axis=1)
    assert_bitwise_equal(q.energies(bits), table_q[keys])
    assert_bitwise_equal(q.energies(bits), table_i[keys])


def test_spin_convention():
    # z = 1 - 2x: bit 0 maps to spin +1, bit 1 to spin -1
    ising = IsingModel(h=[1.0], couplings={}, offset=0.0)
    assert ising.energy_table().tolist() == [1.0, -1.0]


def test_couplings_given_both_ways_are_one_term():
    ising = IsingModel(h=[0.0, 0.0, 0.0], couplings={(0, 1): 1.0, (1, 0): 2.0, (2, 1): 0.5})
    assert list(ising.j_terms()) == [(0, 1, 3.0), (1, 2, 0.5)]
    # spins (+1, -1, +1): 3 * (+1)(-1) + 0.5 * (-1)(+1)
    assert ising.energy_table()[0b010] == -3.5
    cancelled = IsingModel(h=[0.0, 0.0], couplings={(0, 1): 1.5, (1, 0): -1.5})
    assert list(cancelled.j_terms()) == []


def test_negative_coupling_index_is_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        IsingModel([0.0, 0.0], {(-1, 0): 1.0})
