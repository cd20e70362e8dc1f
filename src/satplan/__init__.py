"""Satellite mission planning toolkit.

Select a value-maximal feasible subset of imaging requests for one orbital
pass, exactly and via QUBO-based heuristics: penalty encodings with slack
reuse, an Ising view, a simulated-annealing sampler, an exact statevector
simulation of the layered cost/mixer ansatz, and approximation-ratio
benchmarking against the proven optimum.
"""

from .anneal import AnnealSchedule, SampleEntry, SampleSet, sample_sa, solve_exhaustive
from .bench import ExperimentConfig, emit_plot_data, run_pipeline
from .exact import (
    ExactResult,
    FeasibilityReport,
    Violation,
    check_feasible,
    objective,
    solve_exact,
)
from .instance import (
    Assignment,
    Instance,
    InstanceError,
    InstanceSchemaError,
    InstanceSemanticError,
    InstanceSyntaxError,
    Request,
    VarRef,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .metrics import (
    AggregateMetrics,
    RunMetrics,
    aggregate,
    run_metrics,
)
from .qaoa import (
    LayerResult,
    OptimizerConfig,
    QaoaParams,
    apply_ansatz,
    expectation,
    optimize_layer,
    run_schedule,
    sample_state,
    uniform_state,
)
from .qubo import (
    CapacityBitSlack,
    IsingModel,
    Qubo,
    TernaryPairSlack,
    capacity_slack_count,
    complete_slacks,
    encode,
    min_slack_penalty,
)
from .reductor import (
    ReductionError,
    ReductionSpec,
    cheapest_camera_load,
    derive_capacity,
    reduce,
    strip_capacity,
)

__version__ = "0.1.0"
