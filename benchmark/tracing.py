"""Outside-in tracing of one ``satplan run``.

The program is not edited.  ``traced()`` replaces, for the duration of one
run, the module and class attributes that ``satplan.cli``, ``satplan.bench``
and ``satplan.qaoa`` look up at call time with wrappers that record a span
(name, start, end, parent) per call, plus counts taken from the arguments
and results at the same boundary.  Spans stay in memory until the benchmark
writes them out.  ``layer_metrics`` turns the spans into per-layer counts,
times and self times.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import satplan.bench as bench
import satplan.cli as cli
import satplan.qaoa as qaoa
from satplan.anneal import AnnealSchedule, SampleSet
from satplan.qubo import IsingModel, Qubo


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.budgets: dict[int, int] = {}  # optimize_layer span -> max_evals
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(tracer, span, bound
        arguments, result)`` runs after the call returns."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, idx, bound.arguments, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}) + "\n")


def _exact(tr, idx, args, result):
    tr.counts["exact.nodes"] += result.nodes_explored
    tr.counts["exact.proven"] += bool(result.proven_optimal)


def _encode(tr, idx, args, result):
    tr.counts["qubo.terms"] += result.num_terms()


def _table(tr, idx, args, result):
    tr.counts["qubo.table_entries"] += len(result)


def _sa(tr, idx, args, result):
    sched = args["sched"] or AnnealSchedule()
    tr.counts["anneal.flip_attempts"] += (
        args["reads"] * sched.sweeps * sched.restarts_per_read * args["q"].num_variables
    )


def _optimize(tr, idx, args, result):
    tr.budgets[idx] = (args["cfg"] or qaoa.OptimizerConfig()).max_evals


def _scored(tr, idx, args, result):
    tr.counts["metrics.entries_scored"] += len(args["samples"].entries)


def _targets():
    """(owner, attribute, span name, counter) for every traced boundary."""
    return [
        (cli, "run_pipeline", "bench.pipeline", None),
        (bench, "run_cell", "bench.run_cell", None),
        (bench, "load_instance", "instance.load", None),
        (bench, "reduce_instance", "reductor.reduce", None),
        (bench, "solve_exact", "exact.solve", _exact),
        (bench, "encode", "qubo.encode", _encode),
        (Qubo, "energy_table", "qubo.energy_table", _table),
        (Qubo, "to_ising", "qubo.to_ising", None),
        (Qubo, "energies", "qubo.energies", None),
        (IsingModel, "energy_table", "qubo.ising_table", _table),
        (bench, "sample_sa", "anneal.sa", _sa),
        (bench, "solve_exhaustive", "anneal.exhaustive", None),
        (SampleSet, "from_states", "anneal.tally", None),
        (bench, "run_schedule", "qaoa.schedule", None),
        (qaoa, "optimize_layer", "qaoa.optimize_layer", _optimize),
        (qaoa, "apply_ansatz", "qaoa.apply_ansatz", None),
        (qaoa, "expectation", "qaoa.expectation", None),
        (qaoa, "sample_state", "qaoa.sample", None),
        (bench, "run_metrics", "metrics.run_metrics", _scored),
        (bench, "aggregate", "metrics.aggregate", None),
    ]


@contextmanager
def traced(tr: Tracer):
    """Install the wrappers of ``tr`` and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tr.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, tr.wrap(name, raw, count))
        yield tr
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer counts, times and self times from the recorded spans."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time = [0.0] * len(tr.spans)
    evals = Counter()  # optimize_layer span -> enclosed apply_ansatz calls
    for name, start, end, parent in tr.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
            if name == "qaoa.apply_ansatz" and tr.spans[parent][0] == "qaoa.optimize_layer":
                evals[parent] += 1
    self_time: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(tr.spans):
        self_time[name] += end - start - child_time[i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tr.counts
    n_eval = sum(evals.values())
    # The first evaluation of optimize_layer is its starting point; COBYLA's
    # maxiter then bounds the evaluations it makes itself.
    hits = sum(evals[i] - 1 >= budget for i, budget in tr.budgets.items())
    return {
        "instance.load_s": total["instance.load"],
        "instance.load_calls": calls["instance.load"],
        "reductor.reduce_s": total["reductor.reduce"],
        "reductor.calls": calls["reductor.reduce"],
        "exact.solve_s": total["exact.solve"],
        "exact.calls": calls["exact.solve"],
        "exact.nodes": c["exact.nodes"],
        "exact.nodes_per_s": ratio(c["exact.nodes"], total["exact.solve"]),
        "exact.proven_fraction": ratio(c["exact.proven"], calls["exact.solve"]),
        "qubo.encode_s": total["qubo.encode"],
        "qubo.terms": c["qubo.terms"],
        "qubo.energy_table_s": total["qubo.energy_table"],
        "qubo.table_entries": c["qubo.table_entries"],
        "qubo.ising_table_s": total["qubo.ising_table"],
        "qubo.to_ising_s": total["qubo.to_ising"],
        "qubo.energies_s": total["qubo.energies"],
        "anneal.sa_s": total["anneal.sa"],
        "anneal.sa_calls": calls["anneal.sa"],
        "anneal.flip_attempts": c["anneal.flip_attempts"],
        "anneal.flip_attempts_per_s": ratio(c["anneal.flip_attempts"], total["anneal.sa"]),
        "anneal.tally_s": total["anneal.tally"],
        "anneal.exhaustive_s": total["anneal.exhaustive"],
        "qaoa.schedule_s": total["qaoa.schedule"],
        "qaoa.layer_opts": calls["qaoa.optimize_layer"],
        "qaoa.evals": n_eval,
        "qaoa.evals_per_s": ratio(n_eval, total["qaoa.optimize_layer"]),
        "qaoa.ansatz_s": total["qaoa.apply_ansatz"],
        "qaoa.expectation_s": total["qaoa.expectation"],
        "qaoa.optimizer_overhead_s": self_time["qaoa.optimize_layer"],
        "qaoa.budget_hit_fraction": ratio(hits, calls["qaoa.optimize_layer"]),
        "qaoa.sample_s": total["qaoa.sample"],
        "metrics.run_metrics_s": total["metrics.run_metrics"],
        "metrics.calls": calls["metrics.run_metrics"],
        "metrics.entries_scored": c["metrics.entries_scored"],
        "metrics.aggregate_s": total["metrics.aggregate"],
        "bench.pipeline_s": total["bench.pipeline"],
        "bench.cells": calls["bench.run_cell"],
        "bench.self_s": self_time["bench.pipeline"] + self_time["bench.run_cell"],
    }
