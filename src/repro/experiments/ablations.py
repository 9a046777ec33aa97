"""Ablations of the scheme's design choices.

The paper motivates each ingredient of the scheme with a failure mode that
would appear without it; these ablations make those failure modes measurable:

* **Flag passing** (§1.2): without the global continue/idle flags, a single
  early error on a line network lets the far end keep simulating garbage, so
  recovery takes many more iterations (and, in the worst case described in
  the paper, Θ(m·n) wasted communication per error).
* **Rewind phase** (§3.1(iv)): without the explicit rewind requests, length
  discrepancies between neighbouring links can only be fixed through the
  much slower meeting-points detection on those links.
* **Hash length** (§1.2 "our techniques"): constant-size hashes suffice
  against oblivious noise (Algorithm A) but longer, Θ(log m)-bit hashes cut
  the number of undetected errors (hash collisions), at a rate cost.
* **Chunk size** (implicit in the A/B/C presets): larger chunks amortise the
  per-iteration control traffic and improve the rate, at the cost of a
  proportionally lower tolerated noise fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.adversary.strategies import LinkTargetedAdversary
from repro.core.engine import simulate
from repro.core.parameters import SchemeParameters, crs_oblivious_scheme
from repro.experiments.factories import LinkTargetedFactory, RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import Workload, gossip_workload, line_example_workload


@dataclass(frozen=True)
class AblationRow:
    """One configuration of an ablation experiment."""

    label: str
    success_rate: float
    mean_overhead: float
    mean_iterations: float
    extra: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        data = {
            "label": self.label,
            "success_rate": self.success_rate,
            "mean_overhead": self.mean_overhead,
            "mean_iterations": self.mean_iterations,
        }
        data.update(self.extra)
        return data


def _measure(
    workload: Workload,
    scheme: SchemeParameters,
    adversary_factory: Callable[[int], Adversary],
    trials: int,
    base_seed: int,
    label: str,
    extra: Optional[Dict[str, float]] = None,
) -> AblationRow:
    # Routed through the runtime (ablations parallelise and cache like every
    # other experiment); the ablation-specific seed schedule is kept verbatim.
    seeds = [base_seed + trial * 131 + 7 for trial in range(trials)]
    trial_set = run_trials(workload, scheme, adversary_factory=adversary_factory, seeds=seeds, label=label)
    runs = trial_set.runs
    return AblationRow(
        label=label,
        success_rate=sum(1 for run in runs if run.success) / len(runs),
        mean_overhead=sum(run.overhead for run in runs) / len(runs),
        mean_iterations=sum(run.iterations_run for run in runs) / len(runs),
        extra=extra or {},
    )


def flag_passing_ablation(
    num_nodes: int = 6,
    blocks: int = 3,
    errors: int = 2,
    trials: int = 3,
    base_seed: int = 0,
) -> List[AblationRow]:
    """Compare the scheme with and without the flag-passing phase on the line example."""
    workload = line_example_workload(num_nodes=num_nodes, blocks=blocks, seed=base_seed)

    # A few errors concentrated near the head of the line, as in the paper's
    # §1.2 story about wasted end-of-line communication.
    factory = LinkTargetedFactory(errors=errors)

    rows = []
    for enabled in (True, False):
        scheme = crs_oblivious_scheme(enable_flag_passing=enabled, iteration_factor=6.0)
        rows.append(
            _measure(
                workload,
                scheme,
                factory,
                trials,
                base_seed,
                label=f"flag_passing={'on' if enabled else 'off'}",
                extra={"flag_passing": float(enabled)},
            )
        )
    return rows


def rewind_ablation(
    num_nodes: int = 6,
    blocks: int = 3,
    errors: int = 2,
    trials: int = 3,
    base_seed: int = 0,
) -> List[AblationRow]:
    """Compare the scheme with and without the rewind phase.

    The attack corrupts the head link of the line early on: once that link is
    rolled back by the meeting-points mechanism, the chunks already simulated
    further down the line were computed from stale data, and *only* the rewind
    phase can truncate them (they agree pairwise, so the meeting points never
    fire there).  Without the rewind phase the simulation either fails or needs
    far more iterations.
    """
    workload = line_example_workload(num_nodes=num_nodes, blocks=blocks, seed=base_seed)

    factory = LinkTargetedFactory(errors=errors)

    rows = []
    for enabled in (True, False):
        scheme = crs_oblivious_scheme(enable_rewind_phase=enabled, iteration_factor=6.0)
        rows.append(
            _measure(
                workload,
                scheme,
                factory,
                trials,
                base_seed,
                label=f"rewind={'on' if enabled else 'off'}",
                extra={"rewind": float(enabled)},
            )
        )
    return rows


def hash_length_ablation(
    hash_bits_grid: Sequence[int] = (2, 4, 8, 16),
    topology: str = "line",
    num_nodes: int = 5,
    phases: int = 12,
    noise_fraction: float = 0.004,
    trials: int = 3,
    base_seed: int = 0,
) -> List[AblationRow]:
    """Success and overhead as a function of the hash output length τ."""
    workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)

    factory = RandomNoiseFactory(fraction=noise_fraction, insertion_fraction=0.0)

    rows = []
    for bits in hash_bits_grid:
        scheme = crs_oblivious_scheme(hash_constant_bits=bits)
        rows.append(
            _measure(
                workload,
                scheme,
                factory,
                trials,
                base_seed,
                label=f"hash_bits={bits}",
                extra={"hash_bits": float(bits)},
            )
        )
    return rows


def chunk_size_ablation(
    multiplier_grid: Sequence[int] = (2, 5, 10, 20),
    topology: str = "clique",
    num_nodes: int = 5,
    phases: int = 24,
    trials: int = 2,
    base_seed: int = 0,
) -> List[AblationRow]:
    """Rate as a function of the chunk size (bigger chunks amortise control traffic)."""
    workload = gossip_workload(topology=topology, num_nodes=num_nodes, phases=phases, seed=base_seed)

    factory = RandomNoiseFactory(fraction=0.0, insertion_fraction=0.0)

    rows = []
    for multiplier in multiplier_grid:
        scheme = crs_oblivious_scheme(chunk_multiplier=multiplier)
        rows.append(
            _measure(
                workload,
                scheme,
                factory,
                trials,
                base_seed,
                label=f"chunk_multiplier={multiplier}",
                extra={"chunk_multiplier": float(multiplier)},
            )
        )
    return rows


def single_error_cost(
    num_nodes: int = 6,
    blocks: int = 3,
    base_seed: int = 0,
    enable_flag_passing: bool = True,
) -> Dict[str, float]:
    """Measure the extra communication caused by exactly one corrupted transmission.

    The adversary flips one bit early in the very first simulation phase of the
    link (0, 1); the reported ``extra_overhead`` is the difference between the
    noisy and the noiseless overhead of the same configuration — the measurable
    analogue of the paper's "one error costs O(K) extra communication" claim
    (and of its Θ(m·n) counter-example when flag passing is removed).
    """
    workload = line_example_workload(num_nodes=num_nodes, blocks=blocks, seed=base_seed)
    scheme = crs_oblivious_scheme(enable_flag_passing=enable_flag_passing, iteration_factor=8.0)

    clean = simulate(workload.protocol, scheme=scheme, seed=base_seed)

    adversary = LinkTargetedAdversary(
        target=(0, 1),
        phases=("simulation",),
        corruption_probability=1.0,
        max_corruptions=1,
        seed=base_seed,
    )
    noisy = simulate(workload.protocol, scheme=scheme, adversary=adversary, seed=base_seed)

    return {
        "flag_passing": float(enable_flag_passing),
        "clean_overhead": clean.overhead,
        "noisy_overhead": noisy.overhead,
        "extra_overhead": noisy.overhead - clean.overhead,
        "clean_success": float(clean.success),
        "noisy_success": float(noisy.success),
    }
