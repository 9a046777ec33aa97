"""Experiments that validate the shapes claimed by Theorems 1.1 / 1.2.

Three figure-style series:

* ``rate_vs_protocol_size`` — Theorem 1.1 claims CC(simulation) = O(CC(Π)):
  the measured overhead must stay (roughly) flat as CC(Π) grows.
* ``rate_vs_network_size`` — the rate is Θ(1) *independently of the network*:
  the measured overhead must not blow up with m (it may move by a constant).
* ``scheme_comparison`` — at its own nominal noise level each of Algorithms
  A, B, C should succeed with high probability, while the uncoded baseline
  collapses; this is the behavioural content of Table 1's last three rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import CompositeAdversary, RandomNoiseAdversary
from repro.analysis.metrics import summarize_runs
from repro.baselines.uncoded import run_uncoded
from repro.core.parameters import SchemeParameters, algorithm_a, algorithm_b, algorithm_c
from repro.experiments.factories import (
    NoiseOrNoiselessFactory,
    PhaseTargetedFactory,
    RandomNoiseFactory,
)
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload


@dataclass(frozen=True)
class SeriesPoint:
    """A single (x, y...) sample of a figure-style series."""

    x: float
    overhead: float
    rate: float
    success_rate: float
    extra: Dict[str, float]

    def as_dict(self) -> Dict[str, float]:
        data = {"x": self.x, "overhead": self.overhead, "rate": self.rate, "success_rate": self.success_rate}
        data.update(self.extra)
        return data


def rate_vs_protocol_size(
    scheme: SchemeParameters,
    phases_grid: Sequence[int] = (8, 24, 48),
    topology: str = "clique",
    num_nodes: int = 5,
    trials: int = 2,
    base_seed: int = 0,
    noisy: bool = False,
    epsilon: float = 0.01,
) -> List[SeriesPoint]:
    """Overhead as a function of CC(Π); must stay bounded (constant rate)."""
    points: List[SeriesPoint] = []
    for phases in phases_grid:
        workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)
        fraction = scheme.nominal_noise_fraction(workload.graph, epsilon=epsilon) if noisy else 0.0

        factory = NoiseOrNoiselessFactory(fraction=fraction)
        trial_set = run_trials(workload, scheme, adversary_factory=factory, trials=trials, base_seed=base_seed)
        aggregate = trial_set.aggregate
        points.append(
            SeriesPoint(
                x=workload.communication,
                overhead=aggregate.mean_overhead,
                rate=1.0 / aggregate.mean_overhead if aggregate.mean_overhead else 0.0,
                success_rate=aggregate.success_rate,
                extra={"phases": phases},
            )
        )
    return points


def rate_vs_network_size(
    scheme: SchemeParameters,
    node_grid: Sequence[int] = (4, 6, 8),
    topology: str = "line",
    phases: int = 16,
    trials: int = 2,
    base_seed: int = 0,
) -> List[SeriesPoint]:
    """Overhead as the network grows; the rate stays Θ(1) (noise tolerance shrinks instead)."""
    points: List[SeriesPoint] = []
    for num_nodes in node_grid:
        workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)
        trial_set = run_trials(workload, scheme, trials=trials, base_seed=base_seed)
        aggregate = trial_set.aggregate
        points.append(
            SeriesPoint(
                x=workload.graph.num_edges,
                overhead=aggregate.mean_overhead,
                rate=1.0 / aggregate.mean_overhead if aggregate.mean_overhead else 0.0,
                success_rate=aggregate.success_rate,
                extra={"num_nodes": num_nodes},
            )
        )
    return points


def scheme_comparison(
    topology: str = "line",
    num_nodes: int = 5,
    phases: int = 12,
    epsilon: float = 0.01,
    trials: int = 3,
    base_seed: int = 0,
) -> List[Dict[str, object]]:
    """Success of A, B, C (each at its nominal noise) vs the uncoded baseline."""
    workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)
    rows: List[Dict[str, object]] = []

    configurations = [
        ("algorithm_a", algorithm_a(), "oblivious"),
        ("algorithm_b", algorithm_b(), "adaptive"),
        ("algorithm_c", algorithm_c(), "adaptive"),
    ]
    for label, scheme, noise_kind in configurations:
        fraction = scheme.nominal_noise_fraction(workload.graph, epsilon=epsilon)

        if noise_kind == "adaptive":
            factory = PhaseTargetedFactory(fraction=fraction)
        else:
            factory = RandomNoiseFactory(fraction=fraction)
        trial_set = run_trials(workload, scheme, adversary_factory=factory, trials=trials, base_seed=base_seed)
        aggregate = trial_set.aggregate
        rows.append(
            {
                "scheme": label,
                "noise": noise_kind,
                "nominal_fraction": fraction,
                "success_rate": aggregate.success_rate,
                "mean_overhead": aggregate.mean_overhead,
            }
        )

    # Uncoded baseline at Algorithm A's noise level.  On small workloads the
    # random noise floor can round to zero corruptions, so the baseline also
    # receives one guaranteed additive error on the very first transmission of
    # link (1, 0) — an additive offset always changes the delivered symbol.
    fraction = algorithm_a().nominal_noise_fraction(workload.graph, epsilon=epsilon)
    runs = []
    for trial in range(trials):
        seed = base_seed + trial * 997 + 5
        adversary = CompositeAdversary(
            components=(
                RandomNoiseAdversary(
                    corruption_probability=fraction, insertion_probability=fraction / 4, seed=seed
                ),
                AdditiveObliviousAdversary(pattern={(0, 1, 0): 1}),
            )
        )
        runs.append(run_uncoded(workload.protocol, adversary=adversary).metrics)
    aggregate = summarize_runs(runs)
    rows.append(
        {
            "scheme": "uncoded",
            "noise": "oblivious",
            "nominal_fraction": fraction,
            "success_rate": aggregate.success_rate,
            "mean_overhead": aggregate.mean_overhead,
        }
    )
    return rows
