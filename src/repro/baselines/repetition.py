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
redundancy.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.baselines.uncoded import BaselineResult
from repro.network.transport import NoisyNetwork
from repro.protocols.base import Protocol, ReceivedMap
from repro.utils.bitstring import join_windows, split_windows


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
    link_bit = graph.directed_edge_index()
    links = len(link_bit)
    for round_index, transmissions in enumerate(protocol.schedule()):
        # Each scheduled bit becomes one dense window of length
        # ``repetitions`` on its link; the whole round is one exchange.
        bits = [0] * links
        present = [0] * links
        for sender, receiver in transmissions:
            position = link_bit[(sender, receiver)]
            present[position] = full
            if parties[sender].send_bit(round_index, receiver, received[sender]):
                bits[position] = full
        delivered_bits, delivered_present = network.exchange_window(
            join_windows(bits, repetitions), join_windows(present, repetitions),
            repetitions, phase="baseline",
        )
        copies = split_windows(delivered_bits, repetitions, links)
        delivered = split_windows(delivered_present, repetitions, links)
        for sender, receiver in transmissions:
            position = link_bit[(sender, receiver)]
            received[receiver][(round_index, sender)] = _majority(copies[position], delivered[position])

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
