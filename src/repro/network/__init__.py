"""Network substrate: graphs, topologies, spanning trees and noisy transport."""

from repro.network.channel import (
    ChannelStats,
    Symbol,
    TransmissionContext,
    WindowContext,
    apply_additive_noise,
)
from repro.network.graph import Graph, edge_key
from repro.network.spanning_tree import SpanningTree
from repro.network.topologies import (
    binary_tree_topology,
    build_topology,
    complete_topology,
    grid_topology,
    line_topology,
    random_connected_topology,
    ring_topology,
    star_topology,
)
from repro.network.transport import NoisyNetwork

__all__ = [
    "ChannelStats",
    "Symbol",
    "TransmissionContext",
    "WindowContext",
    "apply_additive_noise",
    "Graph",
    "edge_key",
    "SpanningTree",
    "binary_tree_topology",
    "build_topology",
    "complete_topology",
    "grid_topology",
    "line_topology",
    "random_connected_topology",
    "ring_topology",
    "star_topology",
    "NoisyNetwork",
]
