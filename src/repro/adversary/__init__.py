"""Noise models: oblivious and non-oblivious adversaries plus budgeting."""

from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)

__all__ = [
    "Adversary",
    "NoiseBudget",
    "NoiselessAdversary",
    "AdditiveObliviousAdversary",
    "BurstAdversary",
    "CompositeAdversary",
    "LinkTargetedAdversary",
    "PhaseTargetedAdaptiveAdversary",
    "RandomNoiseAdversary",
]
