"""Baseline: per-bit repetition coding.

A natural "cheap fix" for channel noise is to repeat every transmitted bit
``repetitions`` times and take a majority vote at the receiver.  Against pure
substitution noise this buys resilience at the cost of a ``repetitions``-fold
communication blow-up (i.e. rate ``1/r`` — not constant-rate in the useful
sense once meaningful resilience is needed).  Against the paper's full noise
model it has a structural weakness: deletions are seen as erasures (which the
majority can sometimes absorb) but a burst hitting one repetition group, or
insertions on idle slots, still flips the decoded bit, and a single flipped
decoded bit corrupts the rest of the computation because interactive
protocols feed every received bit forward.

This baseline exists to populate the "simple coding" row of the Table 1
harness and to demonstrate why interactive coding needs more than per-bit
redundancy.  With one copy it is the uncoded baseline
(:func:`~repro.baselines.uncoded.run_uncoded`): Π run directly over the
noisy network, where a deleted bit reads 0 and an insertion on a link with
no scheduled transmission is ignored, because the receiver is not listening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.network.transport import NoisyNetwork
from repro.protocols.base import Protocol, ReceivedMap


@dataclass
class BaselineResult:
    """Outcome of a baseline execution."""

    name: str
    success: bool
    outputs: Dict[int, object]
    reference_outputs: Dict[int, object]
    metrics: RunMetrics


def _majority(bits: int, present: int) -> int:
    """The majority of the delivered copies; deleted copies do not vote."""
    ones = bits.bit_count()
    zeros = (present & ~bits).bit_count()
    return 1 if ones > zeros else 0


def run_repetition(
    protocol: Protocol,
    adversary: Optional[Adversary] = None,
    repetitions: int = 3,
    name: str = "repetition",
) -> BaselineResult:
    """Execute Π with each bit repeated ``repetitions`` times and majority decoding."""
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    adversary = adversary if adversary is not None else NoiselessAdversary()
    adversary.reset()
    reference = protocol.run_noiseless()

    graph = protocol.graph
    network = NoisyNetwork(graph, adversary=adversary)
    parties = {party: protocol.create_party(party) for party in graph.nodes}
    received: Dict[int, ReceivedMap] = {party: {} for party in graph.nodes}

    full = (1 << repetitions) - 1
    # Link j's window of copies starts at bit j * repetitions of the plane.
    shift_of = {link: position * repetitions for link, position in graph.directed_edge_index().items()}
    for round_index, transmissions in enumerate(protocol.schedule()):
        # Each scheduled bit becomes ``repetitions`` copies on its link; the
        # whole round is one exchange.
        bits = present = 0
        for sender, receiver in transmissions:
            shift = shift_of[(sender, receiver)]
            present |= full << shift
            if parties[sender].send_bit(round_index, receiver, received[sender]):
                bits |= full << shift
        bits, present = network.exchange_window(bits, present, repetitions, phase="baseline")
        # Only scheduled links are read: an insertion on an idle link reaches
        # no receiver, because nobody listens there this round.
        for sender, receiver in transmissions:
            shift = shift_of[(sender, receiver)]
            received[receiver][(round_index, sender)] = _majority(bits >> shift & full, present >> shift & full)

    outputs = {party: parties[party].compute_output(received[party]) for party in graph.nodes}
    success = all(outputs[party] == reference.outputs[party] for party in graph.nodes)
    stats = network.stats
    metrics = RunMetrics(
        scheme=name,
        success=success,
        protocol_communication=protocol.communication_complexity(),
        simulation_communication=stats.transmissions,
        corruptions=stats.corruptions,
        noise_fraction=stats.noise_fraction(),
        iterations_run=1,
        iterations_budget=1,
        communication_by_phase=dict(stats.transmissions_by_phase),
        corruptions_by_phase=dict(stats.corruptions_by_phase),
    )
    return BaselineResult(
        name=name,
        success=success,
        outputs=outputs,
        reference_outputs=dict(reference.outputs),
        metrics=metrics,
    )
