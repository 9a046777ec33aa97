"""Regenerating Table 1 of the paper.

Table 1 compares interactive coding schemes along five axes: topology, noise
level, noise type, rate and computational efficiency.  The prior-work rows
(RS94, ABGEH16, HS16, JKL15) rely on tree codes or stochastic-noise
assumptions and have no efficient implementations — reproducing them amounts
to quoting their analytical guarantees, which is what the paper itself does.
The rows for this paper's Algorithms A, B and C *are* measured: we run each
scheme on each topology at its nominal noise level and report the empirically
observed rate (CC(Π)/CC(simulation)), success rate and noise tolerance.

``build_table1`` therefore returns two kinds of rows:

* ``analytical`` rows — transcriptions of the prior-work guarantees
  (the same numbers that appear in the paper's table), and
* ``measured`` rows — fresh measurements of Algorithms A, B, C and of the
  uncoded / repetition baselines on the requested workloads.

``tests/test_paper_claims.py`` checks the measured rows' shape;
``examples/reproduce_table1.py`` prints the full table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.adversary.strategies import (
    CompositeAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
from repro.analysis.metrics import summarize_runs
from repro.baselines.repetition import run_repetition
from repro.baselines.uncoded import run_uncoded
from repro.core.parameters import SchemeParameters, algorithm_a, algorithm_b, algorithm_c
from repro.experiments.factories import BoundFractionFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import Workload, gossip_workload

#: The prior-work rows exactly as they appear in the paper's Table 1.
ANALYTICAL_ROWS: List[Dict[str, object]] = [
    {
        "scheme": "RS94",
        "topology": "arbitrary",
        "noise_level": "BSC_eps",
        "noise_type": "stochastic",
        "rate": "1/O(log(d+1))",
        "efficient": False,
        "kind": "analytical",
    },
    {
        "scheme": "ABGEH16",
        "topology": "clique",
        "noise_level": "BSC_eps",
        "noise_type": "stochastic",
        "rate": "Theta(1)",
        "efficient": True,
        "kind": "analytical",
    },
    {
        "scheme": "HS16",
        "topology": "arbitrary",
        "noise_level": "O(1/m)",
        "noise_type": "substitution",
        "rate": "Theta(1)",
        "efficient": False,
        "kind": "analytical",
    },
    {
        "scheme": "HS16 (routed)",
        "topology": "arbitrary",
        "noise_level": "O(1/n)",
        "noise_type": "substitution",
        "rate": "1/O(m log(n)/n)",
        "efficient": False,
        "kind": "analytical",
    },
    {
        "scheme": "JKL15",
        "topology": "star",
        "noise_level": "O(1/m)",
        "noise_type": "substitution",
        "rate": "Theta(1)",
        "efficient": True,
        "kind": "analytical",
    },
]


@dataclass(frozen=True)
class Table1Cell:
    """One measured configuration of the Table 1 harness."""

    scheme_label: str
    scheme: Optional[SchemeParameters]          # None for baselines
    noise_type: str
    nominal_noise: str
    adversary_factory: Callable[[int, float], Adversary]
    copies: int = 1  # baselines only: 1 runs uncoded Π, k > 1 repeats each bit k times


#: Guaranteed number of targeted errors injected in every measured Table 1 run,
#: so the comparison is not dominated by trials where the random noise happened
#: to corrupt nothing (protocols here are small, so "ε/m of CC(Π)" can round to
#: zero errors for the baselines).
_GUARANTEED_ERRORS = 4


def _oblivious_factory(seed: int, fraction: float) -> Adversary:
    """Content-oblivious noise: a random ins/del/sub floor plus a short targeted burst."""
    return CompositeAdversary(
        components=(
            RandomNoiseAdversary(
                corruption_probability=fraction,
                insertion_probability=fraction / 4,
                seed=seed,
            ),
            LinkTargetedAdversary(
                target=(0, 1),
                phases=("simulation", "baseline"),
                max_corruptions=_GUARANTEED_ERRORS,
                seed=seed + 1,
            ),
        )
    )


def _adaptive_factory(seed: int, fraction: float) -> Adversary:
    """A non-oblivious adversary concentrating on the scheme's control traffic."""
    return CompositeAdversary(
        components=(
            PhaseTargetedAdaptiveAdversary(
                fraction=fraction,
                phases=("meeting_points", "flag_passing", "simulation"),
                seed=seed,
            ),
            LinkTargetedAdversary(
                target=(0, 1),
                phases=("simulation", "baseline"),
                max_corruptions=_GUARANTEED_ERRORS,
                seed=seed + 1,
            ),
        )
    )


def default_cells(epsilon: float = 0.01) -> List[Table1Cell]:
    """The measured rows: our three algorithms plus the two baselines."""
    return [
        Table1Cell("Algorithm A", algorithm_a(), "oblivious ins/del", "eps/m", _oblivious_factory),
        Table1Cell("Algorithm B", algorithm_b(), "non-oblivious ins/del", "eps/(m log m)", _adaptive_factory),
        Table1Cell("Algorithm C", algorithm_c(), "non-oblivious ins/del", "eps/(m log log m)", _adaptive_factory),
        Table1Cell("uncoded", None, "oblivious ins/del", "eps/m", _oblivious_factory),
        Table1Cell("repetition(3)", None, "oblivious ins/del", "eps/m", _oblivious_factory, copies=3),
    ]


def measure_cell(
    cell: Table1Cell,
    workload: Workload,
    topology_label: str,
    epsilon: float = 0.01,
    trials: int = 3,
    base_seed: int = 0,
) -> Dict[str, object]:
    """Run one measured row of the table on one topology."""
    if cell.scheme is not None:
        fraction = cell.scheme.nominal_noise_fraction(workload.graph, epsilon=epsilon)
        aggregate = run_trials(
            workload,
            cell.scheme,
            adversary_factory=BoundFractionFactory(cell.adversary_factory, fraction),
            trials=trials,
            base_seed=base_seed,
        ).aggregate
    else:
        fraction = epsilon / workload.graph.num_edges
        runs = []
        for trial in range(trials):
            adversary = cell.adversary_factory(base_seed + 1000 * trial + 31, fraction)
            if cell.copies == 1:
                outcome = run_uncoded(workload.protocol, adversary=adversary)
            else:
                outcome = run_repetition(workload.protocol, adversary=adversary, repetitions=cell.copies)
            runs.append(outcome.metrics)
        aggregate = summarize_runs(runs)
    rate = 1.0 / aggregate.mean_overhead if aggregate.mean_overhead else 0.0
    return {
        "scheme": cell.scheme_label,
        "topology": topology_label,
        "noise_level": cell.nominal_noise,
        "noise_type": cell.noise_type,
        "rate": round(rate, 4),
        "success_rate": aggregate.success_rate,
        "mean_overhead": round(aggregate.mean_overhead, 2),
        "efficient": True,
        "kind": "measured",
    }


def build_table1(
    topologies: Sequence[str] = ("line", "star", "clique"),
    num_nodes: int = 5,
    phases: int = 12,
    epsilon: float = 0.01,
    trials: int = 2,
    base_seed: int = 0,
    include_analytical: bool = True,
) -> List[Dict[str, object]]:
    """Regenerate Table 1: analytical prior-work rows plus measured rows."""
    rows: List[Dict[str, object]] = list(ANALYTICAL_ROWS) if include_analytical else []
    for topology in topologies:
        workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)
        for cell in default_cells(epsilon):
            rows.append(
                measure_cell(
                    cell,
                    workload,
                    topology_label=topology,
                    epsilon=epsilon,
                    trials=trials,
                    base_seed=base_seed,
                )
            )
    return rows


TABLE1_COLUMNS = [
    "scheme",
    "topology",
    "noise_level",
    "noise_type",
    "rate",
    "success_rate",
    "mean_overhead",
    "efficient",
    "kind",
]
