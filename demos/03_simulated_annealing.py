"""Sample an encoded instance with the simulated-annealing stand-in and score
the samples with the approximation-ratio metrics used throughout the
benchmark: expected AR over all reads and AR of the best read.

Run:  python3 demos/03_simulated_annealing.py
"""

from satplan import (
    AnnealSchedule,
    Instance,
    Request,
    VarRef,
    aggregate,
    encode,
    run_metrics,
    sample_sa,
    solve_exact,
    solve_exhaustive,
)

instance = Instance(
    name="anneal-demo",
    requests=tuple(
        Request(
            id=i,
            kind="mono",
            weight=float(1 + (i * 3) % 5),
            allowed_cameras=(1, 2) if i % 2 else (2, 3),
            capacity_by_camera={2: 1 + i % 2},
        )
        for i in range(7)
    ),
    binary_forbidden=frozenset(
        {(VarRef(0, 2), VarRef(1, 2)), (VarRef(2, 3), VarRef(3, 1)), (VarRef(4, 2), VarRef(6, 3))}
    ),
    ternary_forbidden=frozenset({(VarRef(1, 1), VarRef(3, 2), VarRef(5, 1))}),
    disk_capacity=4,
)

qubo = encode(instance)
f_max = solve_exact(instance).best_value
_, floor = solve_exhaustive(qubo)
print(f"{instance.name}: {qubo.num_variables} variables, F_max={f_max},"
      f" ground-state energy={floor}")

# ---------------------------------------------------------------------------
# Five seeded runs of 2000 reads, the protocol used by the benchmark.
# ---------------------------------------------------------------------------
# 100 sweeps, one chain per read; beta from ln 2 / (largest flip cost) to
# ln 1e4 / (smallest nonzero coefficient) of this QUBO
schedule = AnnealSchedule()
per_run = []
for seed in range(5):
    samples = sample_sa(qubo, reads=2000, sched=schedule, seed=seed)
    metrics = run_metrics(instance, f_max, samples)
    per_run.append(metrics)
    hit = "hit" if samples.best().energy == floor else "missed"
    print(f"  seed {seed}: expected AR={metrics.expected_ar:.4f},"
          f" best AR={metrics.best_ar:.4f},"
          f" feasible reads={metrics.feasible_fraction:.1%} ({hit} the optimum)")

summary = aggregate(per_run)
print(f"\nacross runs: expected AR {summary.mean_expected_ar:.4f}"
      f" +/- {summary.ci95_expected:.4f},"
      f" best AR {summary.mean_best_ar:.4f} +/- {summary.ci95_best:.4f}"
      " (t-based 95% CI)")
