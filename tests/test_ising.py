import numpy as np

from satplan.qubo import IsingModel, Qubo
from helpers import random_instance
from satplan import encode


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
    assert ising.energy_of_bits([0]) == 0.0
    assert ising.energy_of_bits([1]) == -1.0


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
        q = encode(inst)
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
    assert np.array_equal(q.energies(bits), table_q[keys])
    assert np.array_equal(ising.energies_of_bits(bits), table_i[keys])


def test_spin_convention():
    # z = 1 - 2x: bit 0 maps to spin +1, bit 1 to spin -1
    ising = IsingModel(h=[1.0], couplings={}, offset=0.0)
    assert ising.energy_spins([1]) == 1.0
    assert ising.energy_of_bits([0]) == 1.0
    assert ising.energy_of_bits([1]) == -1.0


def test_dense_view_consistency():
    rng = np.random.default_rng(89)
    q = random_integer_qubo(rng, 6)
    dense = q.to_dense()
    assert np.array_equal(dense, dense.T)
    for k in range(1 << 6):
        x = np.array([(k >> i) & 1 for i in range(6)], dtype=float)
        assert abs(x @ dense @ x + q.offset - q.energy(x.astype(np.uint8))) < 1e-9
