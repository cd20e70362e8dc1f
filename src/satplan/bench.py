"""Experiment pipeline: instances -> reference optimum -> encodings -> samplers -> reports.

A run is a pure function of the config file and master seed: per-cell seeds
are derived from (master_seed, instance index, solver, run index), results
are assembled in a fixed order, and floats are serialised with their
shortest round-trip representation, so repeated runs produce byte-identical
reports.  Failures are isolated per instance and per (instance, solver)
cell; whatever succeeded is still reported.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anneal import (
    MAX_EXHAUSTIVE_VARIABLES,
    AnnealSchedule,
    SampleEntry,
    SampleSet,
    anneal_settings,
    sample_sa,
    solve_exhaustive,
)
from .exact import DEFAULT_NODE_BUDGET, ExactResult, solve_exact
from .instance import Instance, load_instance
from .metrics import RunMetrics, aggregate, run_metrics
from .qaoa import MAX_QUBITS, OptimizerConfig, run_schedule
from .qubo import Qubo, encode
from .reductor import ReductionSpec, reduce as reduce_instance

SOLVERS = ("exact", "sa", "qaoa", "exhaustive")
_SOLVER_CODES = {name: i for i, name in enumerate(SOLVERS)}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

    ``instances`` entries are either instance file paths or generation specs
    of the form {"source": path, "target_requests": int,
    "with_capacity": bool, "seed": int}.
    """

    instances: list
    solvers: list[str]
    reads: int = 2000
    runs: int = 5
    max_layers: int = 10
    n_inits: int = 5
    penalty_m: float | None = None
    master_seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        for name in ("instances", "solvers"):
            if not isinstance(getattr(self, name), list):
                raise ConfigError(f"{name} must be a list")
        if not self.instances:
            raise ConfigError("config lists no instances")
        if not self.solvers:
            raise ConfigError("config lists no solvers")
        for solver in self.solvers:
            if solver not in SOLVERS:
                raise ConfigError(f"unknown solver {solver!r}; choose from {SOLVERS}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ConfigError("solvers listed more than once")
        for name in ("reads", "runs", "max_layers", "n_inits", "node_budget", "master_seed"):
            value, least = getattr(self, name), 0 if name == "master_seed" else 1
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        m = self.penalty_m
        if m is not None and (
            not isinstance(m, (int, float)) or isinstance(m, bool) or not 0 < m < math.inf
        ):
            raise ConfigError(f"penalty_m must be a positive finite number, got {m!r}")

    @classmethod
    def from_dict(cls, doc: dict, **overrides) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        merged = dict(doc)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc, **overrides)


def cell_seed(master_seed: int, inst_idx: int, solver: str, run: int) -> int:
    """Deterministic 64-bit seed for one (instance, solver, run) cell."""
    ss = np.random.SeedSequence([master_seed, inst_idx, _SOLVER_CODES[solver], run])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _load(path: str, sources: dict[str, Instance]) -> Instance:
    """The instance at ``path``, parsed only if ``sources`` does not hold it."""
    if path not in sources:
        sources[path] = load_instance(path)
    return sources[path]


def resolve_instance(entry, sources: dict[str, Instance] | None = None) -> Instance:
    """Load an instance path or realise a generation spec.

    ``sources`` maps each spec source already parsed to its instance, and
    gains each source parsed here; without it every call parses its file.
    A plain path is parsed on every call.
    """
    if isinstance(entry, str):
        return load_instance(entry)
    if isinstance(entry, dict):
        unknown = set(entry) - {"source", "target_requests", "with_capacity", "seed"}
        if unknown:
            raise ConfigError(f"unknown generation-spec fields {sorted(unknown)}")
        for key in ("source", "target_requests", "with_capacity", "seed"):
            if key not in entry:
                raise ConfigError(f"generation spec missing field {key!r}")
        if not isinstance(entry["source"], str):
            raise ConfigError(f"generation spec source must be a path, got {entry['source']!r}")
        src = _load(entry["source"], {} if sources is None else sources)
        spec = ReductionSpec(
            target_requests=entry["target_requests"],
            with_capacity=entry["with_capacity"],
            seed=entry["seed"],
        )
        return reduce_instance(src, spec)
    raise ConfigError(f"instance entry must be a path or generation spec, got {entry!r}")


def run_cell(
    inst: Instance,
    qubo: Qubo,
    f_max: float,
    solver: str,
    seed: int,
    cfg: ExperimentConfig,
) -> tuple[RunMetrics, dict, dict | None]:
    """Execute one (instance, solver, run) cell.

    Returns (metrics, sample-set JSON document, extra per-run details).
    """
    reads = cfg.reads
    if solver == "qaoa":
        ranker = lambda ss: run_metrics(inst, f_max, ss).expected_ar
        layers = run_schedule(
            qubo.energy_table(),
            max_layers=cfg.max_layers,
            n_inits=cfg.n_inits,
            cfg=OptimizerConfig(),
            seed=seed,
            reads=reads,
            ranker=ranker,
        )
        per_layer = []
        for res in layers:
            metrics = run_metrics(inst, f_max, res.samples)
            per_layer.append(
                {
                    "layer": res.layer,
                    "expectation": res.expectation,
                    "expected_ar": metrics.expected_ar,
                    "best_ar": metrics.best_ar,
                }
            )
        doc = {"layers": [res.to_json_dict() for res in layers]}
        return metrics, doc, {"layers": per_layer}  # metrics of the final layer
    extra = None
    if solver == "sa":
        sched = AnnealSchedule()
        samples = sample_sa(qubo, reads, sched, seed)
        # the range and the precision are derived from the QUBO, so the run records them
        beta_start, beta_end, precision, _ = anneal_settings(qubo)
        extra = {
            "sweeps": sched.sweeps,
            "beta_start": beta_start,
            "beta_end": beta_end,
            "precision": precision,
        }
    else:
        if solver == "exhaustive":
            bits, energy = solve_exhaustive(qubo)
        elif solver == "exact":
            bits = np.zeros(qubo.num_variables, dtype=np.uint8)
            bits[: qubo.n] = solve_exact(inst, cfg.node_budget).best_assignment.to_bits(inst)
            energy = qubo.energy(bits)
        else:
            raise ConfigError(f"unknown solver {solver!r}")
        key = "".join("1" if b else "0" for b in bits)
        samples = SampleSet(
            entries=(SampleEntry(bits=key, energy=energy, count=reads),),
            total_reads=reads,
            sampler_tag=solver,
            seed=seed,
        )
    return run_metrics(inst, f_max, samples), samples.to_json_dict(), extra


def skip_reason(solver: str, qubo: Qubo) -> str | None:
    """Why ``solver`` cannot run on ``qubo`` for its size, or None when it can."""
    n = qubo.num_variables
    if solver == "qaoa" and n > MAX_QUBITS:
        return f"{n} qubits exceed the {MAX_QUBITS}-qubit statevector limit"
    if solver == "exhaustive" and n > MAX_EXHAUSTIVE_VARIABLES:
        return f"{n} variables exceed the {MAX_EXHAUSTIVE_VARIABLES}-variable enumeration limit"
    return None


def _safe_name(name: str) -> str:
    return re.sub(r"[^-._a-zA-Z0-9]", "_", name)


def prepare(
    entry, cfg: ExperimentConfig, sources: dict[str, Instance] | None = None
) -> tuple[Instance, Qubo, ExactResult]:
    """Resolve one instance entry (see :func:`resolve_instance` for
    ``sources``), prove its reference optimum and encode it."""
    inst = resolve_instance(entry, sources)
    exact = solve_exact(inst, cfg.node_budget)
    if exact.best_value <= 0:
        raise ConfigError(f"instance {inst.name!r} has non-positive optimum; AR undefined")
    try:
        qubo = encode(inst, cfg.penalty_m)
    except ValueError as exc:
        raise ConfigError(f"instance {inst.name!r}: {exc}") from exc
    return inst, qubo, exact


def run_pipeline(cfg: ExperimentConfig, out_dir) -> tuple[dict, int]:
    """Run the full experiment and write report.json, results.csv,
    expected_ar.csv, best_ar.csv, and per-cell sample files.

    Returns (report, exit_code) with exit code 0 when everything succeeded
    and 1 when any instance or cell failed.  An instance whose sample files
    would overwrite an earlier instance's fails.
    """
    out = Path(out_dir)
    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    instances_doc = []
    file_stems: dict[str, str] = {}  # sample-file stem -> the instance name that took it
    sources: dict[str, Instance] = {}  # each spec source parsed once per run, not across runs
    for idx, entry in enumerate(cfg.instances):
        record: dict = {"spec": dict(entry) if isinstance(entry, dict) else entry, "solvers": {}}
        instances_doc.append(record)
        try:
            inst, qubo, exact = prepare(entry, cfg, sources)
        except Exception as exc:  # noqa: BLE001 - isolate per instance
            record.update(name=record["spec"] if isinstance(entry, str) else None, error=str(exc))
            continue
        stem = _safe_name(inst.name)
        if stem in file_stems:
            error = f"its sample files {stem}__* would overwrite those of {file_stems[stem]!r}"
            record.update(name=inst.name, error=error)
            continue
        file_stems[stem] = inst.name
        f_max = exact.best_value
        record.update(
            name=inst.name,
            requests=len(inst.requests),
            variables=qubo.n,
            slacks=qubo.s,
            f_max=f_max,
            proven_optimal=exact.proven_optimal,
            error=None,
        )
        for solver in cfg.solvers:
            skipped = skip_reason(solver, qubo)
            run_docs = []
            metrics_list = []
            error = None
            for run in range(0 if skipped else cfg.runs):
                seed = cell_seed(cfg.master_seed, idx, solver, run)
                try:
                    metrics, samples_doc, extra = run_cell(inst, qubo, f_max, solver, seed, cfg)
                except Exception as exc:  # noqa: BLE001 - isolate per cell
                    error = str(exc)
                    continue
                run_docs.append(
                    {"run": run, "seed": seed, **dataclasses.asdict(metrics), **(extra or {})}
                )
                metrics_list.append(metrics)
                path = samples_dir / f"{stem}__{solver}__run{run}.json"
                path.write_text(json.dumps(samples_doc, sort_keys=True, indent=2) + "\n")
            agg = aggregate(metrics_list) if len(metrics_list) >= 2 else None
            record["solvers"][solver] = {
                "runs": run_docs,
                "aggregate": dataclasses.asdict(agg) if agg else None,
                "error": error,
                "skipped": skipped,
            }

    report = {
        "solvers": list(cfg.solvers),
        "reads": cfg.reads,
        "runs": cfg.runs,
        "max_layers": cfg.max_layers,
        "n_inits": cfg.n_inits,
        "penalty_m": cfg.penalty_m,
        "master_seed": cfg.master_seed,
        "instances": instances_doc,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "results.csv").write_text(results_csv(report))
    write_plot_data(report, out)
    failed = any(
        rec["error"] or any(cell["error"] for cell in rec["solvers"].values())
        for rec in instances_doc
    )
    return report, int(failed)


def results_csv(report: dict) -> str:
    """Flat per-run rows plus aggregate rows with CI columns; the last column
    says whether the optimum the ARs divide by was proven."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write("instance,solver,run,expected_ar,best_ar,ci95_expected,ci95_best,proven_optimal\n")
    for inst in report["instances"]:
        if inst.get("error"):
            continue
        proven = str(inst["proven_optimal"]).lower()
        for solver in report["solvers"]:
            cell = inst["solvers"].get(solver)
            if cell is None or cell.get("skipped"):
                continue
            for doc in cell["runs"]:
                values = [repr(doc["expected_ar"]), repr(doc["best_ar"])]
                writer.writerow([inst["name"], solver, doc["run"], *values, "", "", proven])
            agg = cell.get("aggregate")
            if agg:
                keys = ("mean_expected_ar", "mean_best_ar", "ci95_expected", "ci95_best")
                values = [repr(agg[key]) for key in keys]
                writer.writerow([inst["name"], solver, "aggregate", *values, proven])
    return buf.getvalue()


def emit_plot_data(report: dict) -> tuple[str, str]:
    """Plot-ready tables: instances as rows (ordered by request count),
    one value column plus one CI column per solver, config solver order,
    and a last ``proven_optimal`` column as in ``results_csv``."""
    solvers = report["solvers"]
    rows = [inst for inst in report["instances"] if not inst.get("error")]
    rows.sort(key=lambda r: (r["requests"], r["name"]))

    def table(value_key: str, ci_key: str, run_key: str) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["instance"]
        for solver in solvers:
            header += [solver, f"{solver}_ci95"]
        writer.writerow(header + ["proven_optimal"])
        for inst in rows:
            cells = [inst["name"]]
            for solver in solvers:
                cell = inst["solvers"].get(solver)
                if not cell or cell.get("skipped") or cell.get("error") or not cell["runs"]:
                    cells += ["", ""]
                elif cell["aggregate"]:
                    cells += [repr(cell["aggregate"][value_key]), repr(cell["aggregate"][ci_key])]
                else:
                    cells += [repr(cell["runs"][0][run_key]), ""]
            writer.writerow(cells + [str(inst["proven_optimal"]).lower()])
        return buf.getvalue()

    expected = table("mean_expected_ar", "ci95_expected", "expected_ar")
    best = table("mean_best_ar", "ci95_best", "best_ar")
    return expected, best


def write_plot_data(report: dict, out_dir) -> list[Path]:
    """Write the two ``emit_plot_data`` tables as expected_ar.csv and best_ar.csv
    into ``out_dir``, made if missing; both are built before either is written."""
    tables = emit_plot_data(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "expected_ar.csv", out / "best_ar.csv"]
    for path, text in zip(paths, tables):
        path.write_text(text)
    return paths
