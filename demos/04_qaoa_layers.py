"""Run the layered cost/mixer ansatz with parameter fixing on a small
instance and watch expectation and approximation ratio evolve with depth.

The one-layer stage tries several random angle pairs and keeps the one whose
samples score the best expected AR; each deeper circuit starts from the
previous optimum plus a zero-angle layer.

Run:  python3 demos/04_qaoa_layers.py  (about 3 seconds)
"""

from satplan import (
    Instance,
    Request,
    VarRef,
    encode,
    run_metrics,
    run_schedule,
    solve_exact,
    solve_exhaustive,
)

instance = Instance(
    name="qaoa-demo",
    requests=(
        Request(id=0, kind="mono", weight=3.0, allowed_cameras=(1, 2)),
        Request(id=1, kind="mono", weight=2.0, allowed_cameras=(3,), capacity_by_camera={3: 2}),
        Request(id=2, kind="stereo", weight=4.0, allowed_cameras=(4,), capacity_by_camera={4: 3}),
        Request(id=3, kind="mono", weight=1.0, allowed_cameras=(2,)),
    ),
    binary_forbidden=frozenset({(VarRef(0, 2), VarRef(3, 2))}),
    ternary_forbidden=frozenset({(VarRef(0, 1), VarRef(1, 3), VarRef(2, 4))}),
    disk_capacity=3,
)

qubo = encode(instance)
f_max = solve_exact(instance).best_value
_, floor = solve_exhaustive(qubo)
print(f"{instance.name}: {qubo.num_variables} qubits, F_max={f_max}, ground energy={floor}")

ranker = lambda samples: run_metrics(instance, f_max, samples).expected_ar
layers = run_schedule(
    qubo.energy_table(),
    max_layers=8,
    n_inits=5,
    seed=7,
    reads=2000,
    ranker=ranker,
)

print("\nlayers  expectation   expected-AR  best-AR")
for res in layers:
    m = run_metrics(instance, f_max, res.samples)
    print(f"  {res.layer:>2}    {res.expectation:>10.4f}   {m.expected_ar:>9.4f}  {m.best_ar:>7.4f}")

first = run_metrics(instance, f_max, layers[0].samples)
last = run_metrics(instance, f_max, layers[-1].samples)
print(f"\ndepth {layers[-1].layer} vs depth 1:"
      f" expected AR {first.expected_ar:.4f} -> {last.expected_ar:.4f},"
      f" best AR {first.best_ar:.4f} -> {last.best_ar:.4f}")
print("deeper circuits push probability mass toward low-energy feasible states;"
      " the expectation never rises along the schedule's optimisations.")
