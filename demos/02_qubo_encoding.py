"""Encode an instance as a penalty QUBO, inspect the slack bookkeeping, and
verify on this small example that the encoding is faithful: the exhaustive
QUBO minimum decodes to the exact optimum, and the Ising view agrees on
every state.

Run:  python3 demos/02_qubo_encoding.py
"""

import numpy as np

from satplan import (
    Assignment,
    Instance,
    Request,
    VarRef,
    check_feasible,
    encode,
    min_slack_penalty,
    objective,
    solve_exact,
    solve_exhaustive,
)

instance = Instance(
    name="encode-demo",
    requests=(
        Request(id=0, kind="mono", weight=2.0, allowed_cameras=(1, 2, 3)),
        Request(id=1, kind="mono", weight=3.0, allowed_cameras=(1,), capacity_by_camera={1: 2}),
        Request(id=2, kind="mono", weight=1.0, allowed_cameras=(2,), capacity_by_camera={2: 3}),
        Request(id=3, kind="stereo", weight=2.0, allowed_cameras=(4,), capacity_by_camera={4: 1}),
    ),
    binary_forbidden=frozenset({(VarRef(1, 1), VarRef(2, 2))}),
    ternary_forbidden=frozenset({(VarRef(0, 1), VarRef(2, 2), VarRef(3, 4))}),
    disk_capacity=3,
)

qubo = encode(instance)
print(f"{instance.name}: n={qubo.n} decision variables, s={qubo.s} slacks,"
      f" {qubo.num_terms()} stored terms, penalty M={qubo.penalty_m}")
for k, slack in enumerate(qubo.slack_vars):
    print(f"  slack x{qubo.n + k}: {slack}")

# The minimum penalty over slack settings is the violation cost of a
# selection: 0 when feasible, at least M when any constraint fires.
feasible_bits = [0, 0, 0, 1, 0, 0]   # request 1 only
overload_bits = [0, 0, 0, 1, 1, 0]   # requests 1 and 2: load 5 > C=3
print("\nmin-slack penalty, feasible pick:  ", min_slack_penalty(instance, qubo, feasible_bits))
print("min-slack penalty, disk overload:  ", min_slack_penalty(instance, qubo, overload_bits))

# ---------------------------------------------------------------------------
# Exhaustive minimisation of the QUBO reproduces the exact optimum.
# ---------------------------------------------------------------------------
bits, energy = solve_exhaustive(qubo)
decoded = Assignment.from_bits(instance, bits[: qubo.n])
reference = solve_exact(instance)
print(f"\nexhaustive QUBO minimum: energy={energy}, decoded={decoded.camera_map()}")
print(f"branch-and-bound optimum: F_max={reference.best_value}")
assert check_feasible(instance, decoded).feasible
assert objective(instance, decoded) == reference.best_value

# ---------------------------------------------------------------------------
# The spin model is the same energy function, state by state.
# ---------------------------------------------------------------------------
ising = qubo.to_ising()
assert np.array_equal(qubo.energy_table(), ising.energy_table())
couplings = sum(1 for _ in ising.j_terms())
print(f"\nising view: {len(ising.h)} fields, {couplings} couplings,"
      " energies identical on all states")
print("\nQUBO export:")
print(qubo.to_json())
