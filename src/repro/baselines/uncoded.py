"""Baseline: run Π directly over the noisy network (no coding at all).

This is the comparison point the introduction implies: without an interactive
coding scheme, even a tiny amount of insertion/deletion/substitution noise
corrupts the computation, because every received bit feeds into later
messages and into the outputs.  The baseline has rate exactly 1 (no overhead)
but essentially no resilience — which is the other end of the trade-off the
paper's Table 1 describes.

The runner executes Π round by round over the :class:`NoisyNetwork`; each
party receives whatever the adversary delivers (a deleted bit is replaced by
0, since the party must feed *something* into its protocol logic) and outputs
are compared against the noiseless reference execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.network.transport import NoisyNetwork
from repro.protocols.base import Protocol, ReceivedMap
from repro.utils.bitstring import pack_slots, plane_digits


@dataclass
class BaselineResult:
    """Outcome of a baseline execution."""

    name: str
    success: bool
    outputs: Dict[int, object]
    reference_outputs: Dict[int, object]
    metrics: RunMetrics


def run_uncoded(
    protocol: Protocol,
    adversary: Optional[Adversary] = None,
    name: str = "uncoded",
) -> BaselineResult:
    """Execute Π over the noisy network with no protection whatsoever."""
    adversary = adversary if adversary is not None else NoiselessAdversary()
    adversary.reset()
    reference = protocol.run_noiseless()

    graph = protocol.graph
    network = NoisyNetwork(graph, adversary=adversary)
    parties = {party: protocol.create_party(party) for party in graph.nodes}
    received: Dict[int, ReceivedMap] = {party: {} for party in graph.nodes}
    link_bit = graph.directed_edge_index()
    count = len(link_bit)

    for round_index, transmissions in enumerate(protocol.schedule()):
        # One one-round window over every directed link (bit j is link j).
        slots = [
            (link_bit[(sender, receiver)], parties[sender].send_bit(round_index, receiver, received[sender]))
            for sender, receiver in transmissions
        ]
        bits, _ = network.exchange_window(*pack_slots(slots, count), 1, phase="baseline")
        # A deleted bit reads 0, like a delivered 0.  Insertions on idle links
        # are delivered but ignored: the receiver is not listening on a link
        # with no scheduled transmission this round.
        delivered = plane_digits(bits, count)
        for (sender, receiver), (position, _) in zip(transmissions, slots):
            received[receiver][(round_index, sender)] = 1 if delivered[position] == "1" else 0

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
