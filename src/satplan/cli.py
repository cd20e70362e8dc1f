"""Command line front end.

Subcommands mirror the pipeline stages: ``generate`` (shrink a source
instance), ``encode`` (instance -> QUBO JSON), ``solve`` (one
instance/solver cell), ``run`` (full experiment from a config file), and
``report`` (plot-ready CSVs from a report).  Exit codes: 0 success,
1 partial failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    ConfigError,
    ExperimentConfig,
    cell_seed,
    prepare,
    run_cell,
    run_pipeline,
    skip_reason,
    write_plot_data,
    SOLVERS,
)
from .instance import InstanceError, load_instance, save_instance
from .qubo import encode
from .reductor import ReductionError, ReductionSpec, reduce as reduce_instance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="shrink a source instance to a new one")
    p.add_argument("source", help="source instance JSON file")
    p.add_argument("-o", "--output", required=True, help="output instance file")
    p.add_argument("--target", type=int, required=True, help="desired request count")
    p.add_argument("--capacity", action="store_true", help="derive a disk capacity")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("encode", help="encode an instance as a QUBO JSON document")
    p.add_argument("instance")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--penalty", type=float, default=None, help="override penalty magnitude")

    p = sub.add_parser("solve", help="run one solver on one instance")
    p.add_argument("instance")
    p.add_argument("--solver", choices=SOLVERS, required=True)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--reads", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--max-layers", type=int, default=None)
    p.add_argument("--n-inits", type=int, default=None)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("config")
    p.add_argument("-o", "--output", default="satplan_out", help="output directory")
    p.add_argument("--reads", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--max-layers", type=int, default=None)
    p.add_argument("--n-inits", type=int, default=None)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--master-seed", type=int, default=None)

    p = sub.add_parser("report", help="emit plot-ready CSV tables from a report.json")
    p.add_argument("report")
    p.add_argument("-o", "--output", default=".", help="output directory for the CSVs")
    return parser


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    src = load_instance(args.source)
    spec = ReductionSpec(
        target_requests=args.target, with_capacity=args.capacity, seed=args.seed
    )
    inst = reduce_instance(src, spec)
    save_instance(inst, args.output)
    print(f"wrote {inst.name} ({len(inst.requests)} requests) to {args.output}")
    return 0


def _cmd_encode(args) -> int:
    inst = load_instance(args.instance)
    try:
        qubo = encode(inst, args.penalty)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write(qubo.to_json(), args.output)
    return 0


def _cmd_solve(args) -> int:
    cfg = ExperimentConfig.from_dict(
        {"instances": [args.instance], "solvers": [args.solver], "runs": 1},
        reads=args.reads,
        max_layers=args.max_layers,
        n_inits=args.n_inits,
        penalty_m=args.penalty,
        master_seed=args.seed,
    )
    inst, qubo, exact = prepare(args.instance, cfg)
    skipped = skip_reason(args.solver, qubo)
    if skipped:
        raise ConfigError(skipped)
    seed = cell_seed(cfg.master_seed, 0, args.solver, 0)
    metrics, samples_doc, extra = run_cell(inst, qubo, exact.best_value, args.solver, seed, cfg)
    doc = {
        "instance": inst.name,
        "solver": args.solver,
        "seed": seed,
        "reads": cfg.reads,
        "f_max": exact.best_value,
        "proven_optimal": exact.proven_optimal,
        "metrics": dataclasses.asdict(metrics),
        "samples": samples_doc,
        **(extra or {}),
    }
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(
        args.config,
        reads=args.reads,
        runs=args.runs,
        max_layers=args.max_layers,
        n_inits=args.n_inits,
        penalty_m=args.penalty,
        master_seed=args.master_seed,
    )
    report, code = run_pipeline(cfg, args.output)
    failed = [i["spec"] for i in report["instances"] if i.get("error")]
    if failed:
        print(f"{len(failed)} instance(s) failed: {failed}", file=sys.stderr)
    print(f"report written to {args.output}")
    return code


def _cmd_report(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    keys = ("solvers", "instances")
    if not (isinstance(report, dict) and all(isinstance(report.get(k), list) for k in keys)):
        raise ConfigError(f"cannot read report {args.report}: no 'solvers' and 'instances' lists")
    try:
        expected, best = write_plot_data(report, args.output)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read report {args.report}: malformed record: {exc!r}") from exc
    print(f"wrote {expected} and {best}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "encode": _cmd_encode,
    "solve": _cmd_solve,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InstanceError, ReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
