"""Noise sweeps: success probability as a function of the noise fraction.

Theorem 1.1 / 1.2 say that each scheme succeeds with overwhelming probability
as long as the adversary stays below its nominal noise level (ε/m for
Algorithm A, ε/(m log m) for Algorithm B).  The corresponding figure-style
experiment sweeps the injected noise fraction across a multiplicative grid
around the nominal level and records the empirical success rate, producing
the characteristic "flat near 1, then falls off" series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import SchemeParameters
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import Workload


@dataclass(frozen=True)
class NoiseSweepPoint:
    """One point of the success-vs-noise curve."""

    noise_fraction_target: float
    multiplier: float
    success_rate: float
    mean_noise_fraction: float
    mean_overhead: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "target_fraction": self.noise_fraction_target,
            "multiplier": self.multiplier,
            "success_rate": self.success_rate,
            "measured_fraction": self.mean_noise_fraction,
            "mean_overhead": self.mean_overhead,
        }


def noise_sweep(
    workload: Workload,
    scheme: SchemeParameters,
    multipliers: Sequence[float] = (0.25, 1.0, 4.0, 16.0),
    epsilon: float = 0.01,
    trials: int = 3,
    base_seed: int = 0,
) -> List[NoiseSweepPoint]:
    """Sweep random insertion/deletion/substitution noise around the scheme's
    nominal tolerance (a picklable :class:`RandomNoiseFactory` per level, so
    sweeps parallelise and cache)."""
    nominal = scheme.nominal_noise_fraction(workload.graph, epsilon=epsilon)
    points: List[NoiseSweepPoint] = []
    for multiplier in multipliers:
        fraction = nominal * multiplier
        trial_set = run_trials(
            workload,
            scheme,
            adversary_factory=RandomNoiseFactory(fraction=fraction),
            trials=trials,
            base_seed=base_seed,
            label=f"{workload.name}/{scheme.name}/x{multiplier}",
        )
        aggregate = trial_set.aggregate
        points.append(
            NoiseSweepPoint(
                noise_fraction_target=fraction,
                multiplier=multiplier,
                success_rate=aggregate.success_rate,
                mean_noise_fraction=aggregate.mean_noise_fraction,
                mean_overhead=aggregate.mean_overhead,
            )
        )
    return points


def crossover_multiplier(points: Sequence[NoiseSweepPoint], threshold: float = 0.5) -> Optional[float]:
    """The first sweep multiplier at which the success rate drops below ``threshold``.

    Returns ``None`` if the success rate never drops below the threshold,
    which (for well-chosen grids) means the scheme tolerated every tested
    level.
    """
    for point in points:
        if point.success_rate < threshold:
            return point.multiplier
    return None
