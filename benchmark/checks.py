"""Output checks and solution-quality figures for one ``satplan run`` report."""

from __future__ import annotations

from statistics import fmean

EXACT_SOLVERS = ("exact", "exhaustive")
HEURISTIC_SOLVERS = ("sa", "qaoa")
QUALITY = ("expected_ar", "feasible_fraction", "best_ar", "optimum_hit_rate")


def _ratios(cell: dict):
    """Every approximation ratio the cell reports, with where it sits."""
    for doc in cell["runs"]:
        run = doc["run"]
        yield f"run {run} expected_ar", doc["expected_ar"]
        yield f"run {run} best_ar", doc["best_ar"]
        for layer in doc.get("layers", ()):
            yield f"run {run} layer {layer['layer']} expected_ar", layer["expected_ar"]
            yield f"run {run} layer {layer['layer']} best_ar", layer["best_ar"]
    if cell["aggregate"]:
        yield "aggregate mean_expected_ar", cell["aggregate"]["mean_expected_ar"]
        yield "aggregate mean_best_ar", cell["aggregate"]["mean_best_ar"]


def check_report(report: dict, solvers: list[str], chosen: list) -> list[str]:
    """Every violation in ``report`` of a config running ``solvers`` on the
    ``chosen`` instances (``workloads.Chosen``: reference optimum and the
    solvers that may skip), in config order."""
    if report["solvers"] != list(solvers):
        return [f"report runs solvers {report['solvers']}, config {list(solvers)}"]
    if len(report["instances"]) != len(chosen):
        return [f"report lists {len(report['instances'])} instances, config {len(chosen)}"]
    problems = []
    for inst, expected in zip(report["instances"], chosen):
        name = inst.get("name") or inst["spec"]
        if inst.get("error"):
            problems.append(f"{name}: failed: {inst['error']}")
            continue
        if inst["proven_optimal"] is not True:
            problems.append(f"{name}: optimum not proven")
        if inst["f_max"] != expected.reference_optimum:
            problems.append(
                f"{name}: f_max {inst['f_max']} != reference optimum {expected.reference_optimum}"
            )
        if set(inst["solvers"]) != set(solvers):
            problems.append(f"{name}: cells for {sorted(inst['solvers'])}, config {sorted(solvers)}")
        for solver, cell in inst["solvers"].items():
            where = f"{name} {solver}"
            if cell.get("skipped"):
                if solver not in expected.may_skip:
                    problems.append(f"{where}: skipped: {cell['skipped']}")
                continue
            if cell["error"]:
                problems.append(f"{where}: failed: {cell['error']}")
            if len(cell["runs"]) != report["runs"]:
                problems.append(f"{where}: {len(cell['runs'])} of {report['runs']} runs reported")
            for label, ar in _ratios(cell):
                if not 0.0 <= ar <= 1.0:
                    problems.append(f"{where} {label}: AR {ar} outside [0, 1]")
                elif solver in EXACT_SOLVERS and ar != 1.0:
                    problems.append(f"{where} {label}: AR {ar}, expected 1.0")
    return problems


def tally(report: dict) -> tuple[int, int]:
    """(attempted, failed): instances plus (instance, solver, run) cells."""
    attempted = failed = 0
    for inst in report["instances"]:
        attempted += 1
        if inst.get("error"):
            failed += 1
            continue
        for cell in inst["solvers"].values():
            if cell.get("skipped"):
                continue
            attempted += report["runs"]
            failed += report["runs"] - len(cell["runs"])
    return attempted, failed


def quality(report: dict) -> dict[str, float]:
    """Means over the heuristic (sa, qaoa) cells of the report."""
    runs = [
        doc
        for inst in report["instances"]
        if not inst.get("error")
        for solver, cell in inst["solvers"].items()
        if solver in HEURISTIC_SOLVERS and not cell.get("skipped")
        for doc in cell["runs"]
    ]
    if not runs:
        return dict.fromkeys(QUALITY, 0.0)
    return {
        "best_ar": fmean(d["best_ar"] for d in runs),
        "expected_ar": fmean(d["expected_ar"] for d in runs),
        "optimum_hit_rate": fmean(d["best_ar"] == 1.0 for d in runs),
        "feasible_fraction": fmean(d["feasible_fraction"] for d in runs),
    }
