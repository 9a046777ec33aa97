"""Experiment harnesses: Table 1, theorem validation, noise sweeps, ablations."""

from repro.experiments.ablations import (
    AblationRow,
    chunk_size_ablation,
    flag_passing_ablation,
    hash_length_ablation,
    rewind_ablation,
    single_error_cost,
)
from repro.experiments.factories import (
    BoundFractionFactory,
    LinkTargetedFactory,
    NoiseOrNoiselessFactory,
    NoiselessFactory,
    PhaseTargetedFactory,
    RandomNoiseFactory,
)
from repro.experiments.harness import TrialSet, format_table, noiseless_factory, run_trials
from repro.experiments.noise_sweep import NoiseSweepPoint, crossover_multiplier, noise_sweep
from repro.experiments.reporting import ExperimentReport
from repro.experiments.table1 import ANALYTICAL_ROWS, TABLE1_COLUMNS, build_table1, default_cells, measure_cell
from repro.experiments.theorem_validation import (
    SeriesPoint,
    rate_vs_network_size,
    rate_vs_protocol_size,
    scheme_comparison,
)
from repro.experiments.workloads import (
    WORKLOAD_BUILDERS,
    Workload,
    aggregation_workload,
    gossip_workload,
    line_example_workload,
    pairwise_workload,
    random_workload,
    token_ring_workload,
)

__all__ = [
    "AblationRow",
    "chunk_size_ablation",
    "flag_passing_ablation",
    "hash_length_ablation",
    "rewind_ablation",
    "single_error_cost",
    "BoundFractionFactory",
    "LinkTargetedFactory",
    "NoiseOrNoiselessFactory",
    "NoiselessFactory",
    "PhaseTargetedFactory",
    "RandomNoiseFactory",
    "TrialSet",
    "format_table",
    "noiseless_factory",
    "run_trials",
    "NoiseSweepPoint",
    "crossover_multiplier",
    "noise_sweep",
    "ExperimentReport",
    "ANALYTICAL_ROWS",
    "TABLE1_COLUMNS",
    "build_table1",
    "default_cells",
    "measure_cell",
    "SeriesPoint",
    "rate_vs_network_size",
    "rate_vs_protocol_size",
    "scheme_comparison",
    "WORKLOAD_BUILDERS",
    "Workload",
    "aggregation_workload",
    "gossip_workload",
    "line_example_workload",
    "pairwise_workload",
    "random_workload",
    "token_ring_workload",
]
