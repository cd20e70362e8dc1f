"""End-to-end benchmark: shrink a source instance into capacity and
non-capacity variants, run several solvers with the seeded protocol, and
read back the plot-ready tables.

Everything below is also reachable from the command line:

    satplan generate source.json -o g004.json --target 4 --seed 1
    satplan run config.json -o out/
    satplan report out/report.json -o out/

Run:  python3 demos/05_full_benchmark.py  (about a minute)
"""

import json
import tempfile
from pathlib import Path

from satplan import Instance, Request, VarRef, save_instance
from satplan.bench import ExperimentConfig, run_pipeline

# ---------------------------------------------------------------------------
# A source instance to shrink: every request stores data on its first camera.
# ---------------------------------------------------------------------------
kinds = ["mono", "stereo", "mono", "mono", "stereo", "mono", "mono", "mono"]
cam_sets = [(1, 2), (4,), (1, 3), (2,), (4,), (1, 2, 3), (3,), (2, 3)]
source = Instance(
    name="orbit-354",
    requests=tuple(
        Request(
            id=i,
            kind=kind,
            weight=float(1 + (2 * i) % 5),
            allowed_cameras=cams,
            capacity_by_camera={cams[0]: 1 + i % 3},
        )
        for i, (kind, cams) in enumerate(zip(kinds, cam_sets))
    ),
    binary_forbidden=frozenset(
        {(VarRef(0, 1), VarRef(2, 1)), (VarRef(3, 2), VarRef(5, 2)), (VarRef(6, 3), VarRef(7, 3))}
    ),
    ternary_forbidden=frozenset(
        {(VarRef(0, 2), VarRef(4, 4), VarRef(5, 1)), (VarRef(2, 3), VarRef(5, 3), VarRef(7, 2))}
    ),
)

# Everything is written to a temporary directory, removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="satplan-demo-") as tmp:
    workdir = Path(tmp)
    src_path = workdir / "orbit-354.json"
    save_instance(source, src_path)
    print(f"source instance written to {src_path}")

    # -----------------------------------------------------------------------
    # The experiment: two generated variants of the source (with and without
    # capacities), three solvers, three runs each, seeded end to end.
    # -----------------------------------------------------------------------
    config = ExperimentConfig(
        instances=[
            {"source": str(src_path), "target_requests": 4, "with_capacity": False, "seed": 1},
            {"source": str(src_path), "target_requests": 4, "with_capacity": True, "seed": 1},
        ],
        solvers=["exact", "sa", "qaoa"],
        reads=2000,
        runs=3,
        max_layers=5,
        n_inits=5,
        master_seed=2024,
    )
    out_dir = workdir / "out"
    report, exit_code = run_pipeline(config, out_dir)
    print(f"pipeline finished with exit code {exit_code}; outputs in {out_dir}")

    for inst in report["instances"]:
        print(f"\n{inst['name']}: {inst['requests']} requests,"
              f" {inst['variables']}+{inst['slacks']} variables, F_max={inst['f_max']}")
        for solver in report["solvers"]:
            cell = inst["solvers"][solver]
            if cell["skipped"]:
                print(f"  {solver:<6} skipped: {cell['skipped']}")
                continue
            agg = cell["aggregate"]
            print(f"  {solver:<6} expected AR {agg['mean_expected_ar']:.4f}"
                  f" +/- {agg['ci95_expected']:.4f},"
                  f" best AR {agg['mean_best_ar']:.4f} +/- {agg['ci95_best']:.4f}")

    print("\nplot table (expected AR):")
    print((out_dir / "expected_ar.csv").read_text())
    print("sample files:", len(list((out_dir / "samples").iterdir())))
