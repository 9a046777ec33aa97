"""Workload generators for experiments and benchmarks.

Every experiment needs (topology, protocol, inputs) triples that are cheap to
build, deterministic under a seed, and representative of the regimes the
paper discusses: dense fully-utilised traffic (parity gossip), sparse
tree-structured computation (aggregation), the paper's own line example, and
structure-free random protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.network.graph import Graph
from repro.network.topologies import build_topology
from repro.protocols.aggregation import AggregationProtocol
from repro.protocols.base import Protocol
from repro.protocols.gossip import PairwiseExchangeProtocol, ParityGossipProtocol
from repro.protocols.line_example import LineExampleProtocol
from repro.protocols.random_protocol import RandomProtocol
from repro.protocols.token_ring import TokenRingProtocol
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class Workload:
    """A named (graph, protocol) pair ready to be simulated.

    ``declaration`` is what built it: the builder's :data:`WORKLOAD_BUILDERS`
    name and every keyword argument, defaults included.  Each builder is a
    pure function of its arguments, so the declaration is the workload's part
    of a trial key (:func:`repro.runtime.spec.fingerprint_trial`).
    """

    name: str
    graph: Graph
    protocol: Protocol
    declaration: Tuple[str, Dict[str, Any]]

    @property
    def communication(self) -> int:
        return self.protocol.communication_complexity()


def _bit_inputs(graph: Graph, seed: int) -> Dict[int, int]:
    rng = make_rng(seed)
    return {party: rng.getrandbits(1) for party in graph.nodes}


def _value_inputs(graph: Graph, seed: int, value_bits: int) -> Dict[int, int]:
    rng = make_rng(seed)
    return {party: rng.randrange(1 << value_bits) for party in graph.nodes}


def gossip_workload(topology: str = "line", num_nodes: int = 5, phases: int = 8, seed: int = 0) -> Workload:
    """Parity gossip over a named topology."""
    graph = build_topology(topology, num_nodes, seed=seed)
    protocol = ParityGossipProtocol(graph, _bit_inputs(graph, seed), phases=phases)
    return Workload(
        name=f"gossip-{topology}-n{num_nodes}-p{phases}", graph=graph, protocol=protocol,
        declaration=("gossip", {"topology": topology, "num_nodes": num_nodes, "phases": phases, "seed": seed}),
    )


def aggregation_workload(topology: str = "binary_tree", num_nodes: int = 7, value_bits: int = 6, seed: int = 0) -> Workload:
    """Convergecast/broadcast sum over a named topology."""
    graph = build_topology(topology, num_nodes, seed=seed)
    protocol = AggregationProtocol(graph, _value_inputs(graph, seed, value_bits), value_bits=value_bits)
    return Workload(
        name=f"aggregation-{topology}-n{num_nodes}", graph=graph, protocol=protocol,
        declaration=(
            "aggregation",
            {"topology": topology, "num_nodes": num_nodes, "value_bits": value_bits, "seed": seed},
        ),
    )


def line_example_workload(num_nodes: int = 5, blocks: int = 3, seed: int = 0) -> Workload:
    """The paper's §1.2 line example (relay plus end-of-line ping-pong)."""
    graph = build_topology("line", num_nodes)
    protocol = LineExampleProtocol(graph, _bit_inputs(graph, seed), blocks=blocks)
    return Workload(
        name=f"line-example-n{num_nodes}-b{blocks}", graph=graph, protocol=protocol,
        declaration=("line_example", {"num_nodes": num_nodes, "blocks": blocks, "seed": seed}),
    )


def token_ring_workload(num_nodes: int = 5, value_bits: int = 4, laps: int = 2, seed: int = 0) -> Workload:
    """Sparse token circulation around a ring."""
    graph = build_topology("ring", num_nodes)
    protocol = TokenRingProtocol(graph, _value_inputs(graph, seed, value_bits), value_bits=value_bits, laps=laps)
    return Workload(
        name=f"token-ring-n{num_nodes}-l{laps}", graph=graph, protocol=protocol,
        declaration=("token_ring", {"num_nodes": num_nodes, "value_bits": value_bits, "laps": laps, "seed": seed}),
    )


def random_workload(
    topology: str = "random",
    num_nodes: int = 6,
    num_rounds: int = 20,
    density: float = 0.4,
    seed: int = 0,
) -> Workload:
    """A structure-free random protocol over a (possibly random) topology."""
    graph = build_topology(topology, num_nodes, seed=seed)
    rng = make_rng(seed + 1)
    inputs = {party: rng.randrange(1 << 16) for party in graph.nodes}
    protocol = RandomProtocol(graph, inputs, num_rounds=num_rounds, density=density, seed=seed + 2)
    return Workload(
        name=f"random-{topology}-n{num_nodes}-r{num_rounds}", graph=graph, protocol=protocol,
        declaration=(
            "random",
            {"topology": topology, "num_nodes": num_nodes, "num_rounds": num_rounds, "density": density, "seed": seed},
        ),
    )


def pairwise_workload(topology: str = "line", num_nodes: int = 4, seed: int = 0) -> Workload:
    """The smallest workload (one round of neighbour exchange) for smoke tests."""
    graph = build_topology(topology, num_nodes, seed=seed)
    protocol = PairwiseExchangeProtocol(graph, _bit_inputs(graph, seed))
    return Workload(
        name=f"pairwise-{topology}-n{num_nodes}", graph=graph, protocol=protocol,
        declaration=("pairwise", {"topology": topology, "num_nodes": num_nodes, "seed": seed}),
    )


WORKLOAD_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "gossip": gossip_workload,
    "aggregation": aggregation_workload,
    "line_example": line_example_workload,
    "token_ring": token_ring_workload,
    "random": random_workload,
    "pairwise": pairwise_workload,
}
