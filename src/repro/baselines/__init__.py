"""Baselines the coding schemes are compared against."""

from repro.baselines.fully_utilized import FullyUtilizedConversion, fully_utilized_overhead
from repro.baselines.repetition import BaselineResult, run_repetition
from repro.baselines.uncoded import run_uncoded

__all__ = [
    "BaselineResult",
    "FullyUtilizedConversion",
    "fully_utilized_overhead",
    "run_repetition",
    "run_uncoded",
]
