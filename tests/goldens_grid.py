"""The golden-results grid: readable per-trial numbers pinned in git.

Every trial of the grid below runs end to end (engine or baseline, under an
ambient flight recorder) and is reduced to a handful of readable fields.
``tests/goldens/grid.json`` holds the committed values and
``tests/test_goldens.py`` requires a fresh run to reproduce them exactly, so a
refactor that moves any number fails with the trial and field that moved.

A recorder switches the meeting-points clean-link path off (it records the
sent bits), so every engine trial also runs without one, the path a plain
run takes, and must give the same fields (:func:`split_paths`).

Grid: 4 schemes + the uncoded and repetition(3) baselines
× {line, star, clique, binary_tree} (5 nodes, 6-phase parity gossip)
× {noiseless, random ins/del/sub, link-targeted, phase-targeted adaptive,
additive oblivious, burst} × seeds {1, 2} = 288 trials.

Regenerate (and see which numbers moved) with::

    PYTHONPATH=src python scripts/regen_goldens.py

Every regeneration that changes the file needs a CHANGES.md line saying why.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple
from unittest import mock

from adversaries import BurstAdversary

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
from repro.baselines import repetition, uncoded
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import scheme_by_name
from repro.experiments.workloads import gossip_workload
from repro.network.graph import Graph
from repro.network.transport import NoisyNetwork
from repro.obs.context import use_obs
from repro.obs.recorder import FlightRecorder
from repro.utils.rng import make_rng

GOLDEN_PATH = Path(__file__).parent / "goldens" / "grid.json"

ENGINE_SCHEMES = ("algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c")
SCHEMES = (*ENGINE_SCHEMES, "uncoded", "repetition3")
TOPOLOGIES = ("line", "star", "clique", "binary_tree")
SEEDS = (1, 2)
NODES = 5
PHASES = 6


def _additive_pattern(graph: Graph, seed: int) -> Dict[Tuple[int, int, int], int]:
    """A sparse deterministic (round, sender, receiver) -> offset pattern
    over the first 600 rounds (every run of the grid is shorter)."""
    rng = make_rng(seed)
    pattern = {}
    for round_index in range(600):
        for sender, receiver in graph.directed_edges():
            if rng.random() < 0.004:
                pattern[(round_index, sender, receiver)] = rng.choice((1, 2))
    return pattern


#: name -> builder(graph, seed) of every adversary family in the grid.
ADVERSARIES: Dict[str, Callable[[Graph, int], Adversary]] = {
    "noiseless": lambda graph, seed: NoiselessAdversary(),
    "random": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.004, insertion_probability=0.001, seed=seed
    ),
    "link_targeted": lambda graph, seed: LinkTargetedAdversary(
        target=(0, 1), fraction=0.02, corruption_probability=0.5, seed=seed
    ),
    "phase_targeted": lambda graph, seed: PhaseTargetedAdaptiveAdversary(
        fraction=0.005, seed=seed
    ),
    "additive": lambda graph, seed: AdditiveObliviousAdversary(
        pattern=_additive_pattern(graph, seed)
    ),
    "burst": lambda graph, seed: BurstAdversary(
        start_round=20, end_round=60, max_corruptions=6, seed=seed
    ),
}


def trial_id(scheme: str, topology: str, adversary: str, seed: int) -> str:
    return f"{scheme}/{topology}/{adversary}/seed{seed}"


#: The one golden field that only a recorded run has.
RECORDER_FIELD = "recorder_corruption_events"


def run_trial(
    scheme: str, topology: str, adversary_name: str, seed: int, record: bool = True
) -> Dict[str, object]:
    """One grid trial reduced to its golden fields.

    ``record=False`` runs it without a flight recorder and leaves out
    :data:`RECORDER_FIELD`.
    """
    workload = gossip_workload(topology, NODES, PHASES, seed=seed)
    adversary = ADVERSARIES[adversary_name](workload.graph, seed)
    recorder = FlightRecorder(capacity=1_000_000) if record else None
    networks: List[NoisyNetwork] = []

    class CapturedNetwork(NoisyNetwork):
        def __post_init__(self) -> None:
            super().__post_init__()
            networks.append(self)

    # Both baselines run through ``run_repetition`` (uncoded is one copy).
    with use_obs(recorder=recorder), mock.patch.object(repetition, "NoisyNetwork", CapturedNetwork):
        if recorder is not None:
            recorder.begin_trial()
        if scheme == "uncoded":
            metrics = uncoded.run_uncoded(workload.protocol, adversary).metrics
        elif scheme == "repetition3":
            metrics = repetition.run_repetition(workload.protocol, adversary, repetitions=3).metrics
        else:
            simulator = InteractiveCodingSimulator(
                workload.protocol, scheme=scheme_by_name(scheme), adversary=adversary, seed=seed
            )
            metrics = simulator.run().metrics
            networks.append(simulator.network)
        dump = recorder.finish_trial(success=metrics.success) if recorder is not None else None
    (network,) = networks
    stats = network.stats
    fields: Dict[str, object] = {
        "success": metrics.success,
        "transmissions": stats.transmissions,
        "substitutions": stats.substitutions,
        "deletions": stats.deletions,
        "insertions": stats.insertions,
        "corruptions_by_phase": dict(sorted(stats.corruptions_by_phase.items())),
        "rounds": network.current_round,
        "iterations": metrics.iterations_run,
        "rewinds": metrics.rewinds_sent,
        "hash_collisions": metrics.hash_collisions_observed,
        "randomness_exchange_failures": metrics.randomness_exchange_failures,
    }
    if dump is not None:
        fields[RECORDER_FIELD] = dump["event_counts"].get("corruption", 0)
    return fields


def run_grid(schemes: Tuple[str, ...] = SCHEMES, record: bool = True) -> Dict[str, Dict[str, object]]:
    """Every trial of the grid over ``schemes``, keyed by :func:`trial_id`,
    in grid order."""
    return {
        trial_id(scheme, topology, adversary, seed): run_trial(scheme, topology, adversary, seed, record)
        for scheme in schemes
        for topology in TOPOLOGIES
        for adversary in ADVERSARIES
        for seed in SEEDS
    }


def run_unrecorded() -> Dict[str, Dict[str, object]]:
    """Every engine trial of the grid, run without a flight recorder."""
    return run_grid(ENGINE_SCHEMES, record=False)


def split_paths(recorded: Dict[str, Dict[str, object]], unrecorded: Dict[str, Dict[str, object]]) -> List[str]:
    """One line per (trial, field) where a run without a recorder differs
    from the recorded run of the same trial; trials ``unrecorded`` lacks are
    not compared."""
    lines = []
    for key, fields in unrecorded.items():
        for name in sorted(recorded[key].keys() - {RECORDER_FIELD} | fields.keys()):
            before, after = recorded[key].get(name), fields.get(name)
            if before != after:
                lines.append(f"{key}: {name} {before!r} with a recorder, {after!r} without")
    return lines


def dumps(grid: Dict[str, Dict[str, object]]) -> str:
    """The golden file's text: one trial per line, so a diff names the trial."""
    lines = [f"  {json.dumps(key)}: {json.dumps(fields, sort_keys=True)}" for key, fields in grid.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def diff(old: Dict[str, Dict[str, object]], new: Dict[str, Dict[str, object]]) -> List[str]:
    """One readable line per (trial, field) that differs between two grids."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"{key}: removed")
        elif key not in old:
            lines.append(f"{key}: added")
        else:
            for name in sorted(old[key].keys() | new[key].keys()):
                before, after = old[key].get(name), new[key].get(name)
                if before != after:
                    lines.append(f"{key}: {name} {before!r} -> {after!r}")
    return lines
