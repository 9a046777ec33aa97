"""Baseline: run Π directly over the noisy network (no coding at all).

This is the comparison point the introduction implies: without an interactive
coding scheme, even a tiny amount of insertion/deletion/substitution noise
corrupts the computation, because every received bit feeds into later
messages and into the outputs.  The baseline has rate exactly 1 (no overhead)
but essentially no resilience — which is the other end of the trade-off the
paper's Table 1 describes.

Uncoded Π is per-bit repetition with one copy, so it is a preset of
:func:`~repro.baselines.repetition.run_repetition`: each party receives
whatever the adversary delivers (a deleted bit reads 0, since the party must
feed *something* into its protocol logic) and outputs are compared against
the noiseless reference execution.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.base import Adversary
from repro.baselines.repetition import BaselineResult, run_repetition
from repro.protocols.base import Protocol


def run_uncoded(
    protocol: Protocol,
    adversary: Optional[Adversary] = None,
    name: str = "uncoded",
) -> BaselineResult:
    """Execute Π over the noisy network with no protection whatsoever."""
    return run_repetition(protocol, adversary, repetitions=1, name=name)
