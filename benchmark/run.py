"""satplan benchmark: one seeded workload through ``satplan run``.

    python3 benchmark/run.py --workload sa-capacity --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  The workload's inputs are generated from ``--seed``
and, after one small warm-up run, the config is run in this process through
``satplan.cli.main`` as often as fits in ``--seconds``, and at least twice,
with tracing off.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` one
more traced run gives the per-layer metrics.  Every report is checked, and
the last line of standard output is the result as one JSON object.
Environment, metrics and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

# What a user pays before the first cell: a fresh interpreter importing the
# package and reading the config and its instances.
SETUP_CODE = """
import sys
import satplan.cli
from satplan.bench import ExperimentConfig, resolve_instance
for entry in ExperimentConfig.from_file(sys.argv[1]).instances:
    resolve_instance(entry)
"""


def declared_units() -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SATPLAN_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_time(config: Path) -> float:
    """Median wall time of fresh interpreters doing the set-up work."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            env=child_env(),
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return median(times)


def run_once(config: Path, out: Path) -> tuple[float, int, bytes]:
    """(wall time, exit code, report.json bytes) of one ``satplan run``."""
    from satplan.cli import main as satplan_main

    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = satplan_main(["run", str(config), "-o", str(out)])
    elapsed = time.perf_counter() - t0
    report = out / "report.json"
    data = report.read_bytes() if report.exists() else b""
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, code, data


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, chosen) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "instances": [
            {**c.spec, "source": Path(c.spec["source"]).name, "reference_nodes": c.reference_nodes}
            for c in chosen
        ],
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "satplan" / "__init__.py").is_file():
        print(f"error: no satplan package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SATPLAN_WORKERS", None)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    from checks import check_report, quality, tally
    from tracing import Tracer, layer_metrics, traced
    from workloads import WORKLOADS, write_inputs

    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        config, warmup, chosen = write_inputs(args.workload, args.seed, work)
        _, warmup_code, _ = run_once(warmup, work / "out")
        runs = []
        start = time.perf_counter()
        # At least two runs, and no run that would likely end past --seconds.
        while len(runs) < 2 or (
            time.perf_counter() - start + median(t for t, _, _ in runs) <= args.seconds
        ):
            runs.append(run_once(config, work / "out"))
        times = [t for t, _, _ in runs]
        reports = {data for _, _, data in runs}
        codes = [warmup_code] + [code for _, code, _ in runs]

        if args.trace:
            tracer = Tracer()
            with traced(tracer):
                traced_time, code, data = run_once(config, work / "out")
            tracer.write(out_dir / f"{tag}-spans.json")
            codes.append(code)
            reports.add(data)
            metrics = layer_metrics(tracer)
            metrics["trace.overhead_s"] = traced_time - median(times)
        else:
            metrics = {
                "run_s": median(times),
                "setup_s": setup_time(config),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

        problems = [f"satplan run exited with {c}" for c in codes if c != 0]
        if len(reports) != 1:
            problems.append(f"report.json differs between runs ({len(reports)} versions)")
        report = json.loads(min(reports) or b"{}")
        if report:
            problems += check_report(report, WORKLOADS[args.workload].solvers, chosen)
            attempted, failed = tally(report)
            scores = quality(report)
            if args.trace:
                # Too spread across seeds to bound (see README.md): reported only.
                metrics["quality.optimum_hit_rate"] = scores["optimum_hit_rate"]
            else:
                metrics.update((k, scores[k]) for k in ("expected_ar", "feasible_fraction", "best_ar"))
        else:
            attempted, failed = len(chosen), len(chosen)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args, chosen)
    units = declared_units()
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, "run_times_s": times, "problems": problems, "result": result}
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
