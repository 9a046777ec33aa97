"""BFS spanning trees used by the flag-passing phase (Algorithm 3).

The paper fixes a root ``ρ`` known to all parties and a spanning tree ``T``
generated by breadth-first search from ``ρ``; the "level" of a node is its
depth in ``T`` (the root has level 1).  ``SpanningTree`` precomputes
parent/children pointers, levels and the tree depth ``d(T)`` so the
flag-passing phase can schedule its convergecast/broadcast deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.network.graph import Graph


@dataclass
class SpanningTree:
    """A rooted spanning tree of a connected graph."""

    graph: Graph
    root: int = 0
    parent: Dict[int, Optional[int]] = field(init=False)
    children: Dict[int, List[int]] = field(init=False)
    level: Dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.graph.validate_connected_simple()
        if not 0 <= self.root < self.graph.num_nodes:
            raise ValueError(f"root {self.root} is not a node of the graph")
        self.parent = self.graph.bfs_parents(self.root)
        self.children = {node: [] for node in self.graph.nodes}
        for node, par in self.parent.items():
            if par is not None:
                self.children[par].append(node)
        for node in self.children:
            self.children[node].sort()
        # level(root) = 1, level(child) = level(parent) + 1, per Algorithm 3.
        self.level = {}
        for node in self.graph.bfs_order(self.root):
            par = self.parent[node]
            self.level[node] = 1 if par is None else self.level[par] + 1

    @property
    def depth(self) -> int:
        """d(T): the maximum level over all nodes (a single vertex has depth 1)."""
        return max(self.level.values())

    def nodes_bottom_up(self) -> List[int]:
        """Nodes ordered by decreasing level (leaves towards the root)."""
        return sorted(self.graph.nodes, key=lambda node: -self.level[node])

    def nodes_top_down(self) -> List[int]:
        """Nodes ordered by increasing level (root towards the leaves)."""
        return sorted(self.graph.nodes, key=lambda node: self.level[node])
