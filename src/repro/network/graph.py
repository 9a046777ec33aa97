"""A small, dependency-free undirected graph type.

The paper works over an arbitrary connected simple graph ``G = (V, E)`` whose
nodes are the parties and whose edges are bidirectional communication links.
``Graph`` below is deliberately minimal: node set, adjacency, undirected edge
set, plus the traversals the coding scheme needs (BFS, connectivity,
diameter, shortest-path distances).

Nodes are integers ``0 .. n-1``.  Edges are stored as ordered tuples
``(u, v)`` with ``u < v`` so they can be used as dictionary keys; the helper
:func:`edge_key` performs that normalisation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]
DirectedEdge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) representation of the undirected edge {u, v}."""
    if u == v:
        raise ValueError(f"self-loops are not allowed (node {u})")
    return (u, v) if u < v else (v, u)


@dataclass
class Graph:
    """An undirected simple graph over nodes ``0..n-1``."""

    num_nodes: int
    _adjacency: Dict[int, Set[int]] = field(default_factory=dict)
    _edges: Set[Edge] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("a graph needs at least one node")
        for node in range(self.num_nodes):
            self._adjacency.setdefault(node, set())
        # Lazy caches of the directed-edge view; the transport asks for it
        # once per window exchange, so it must not be rebuilt per call.
        # Deliberately plain attributes (not dataclass fields): derived state
        # stays out of equality and ``repr``.
        self._directed_cache: Optional[Tuple[DirectedEdge, ...]] = None
        self._directed_position_cache: Optional[Dict[DirectedEdge, int]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list."""
        graph = cls(num_nodes)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge {u, v}.  Idempotent."""
        self._check_node(u)
        self._check_node(v)
        key = edge_key(u, v)
        self._edges.add(key)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._directed_cache = None
        self._directed_position_cache = None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside range [0, {self.num_nodes})")

    # -- basic queries ----------------------------------------------------

    @property
    def nodes(self) -> List[int]:
        return list(range(self.num_nodes))

    @property
    def edges(self) -> List[Edge]:
        return sorted(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def directed_edges(self) -> Tuple[DirectedEdge, ...]:
        """All ordered pairs (u, v) such that {u, v} is an edge (cached)."""
        cached = self._directed_cache
        if cached is None:
            out: List[DirectedEdge] = []
            for u, v in self.edges:
                out.append((u, v))
                out.append((v, u))
            cached = self._directed_cache = tuple(out)
        return cached

    def directed_edge_index(self) -> Dict[DirectedEdge, int]:
        """Position of each directed edge within :meth:`directed_edges` (cached).

        Link ``j`` of a transport window is ``directed_edges()[j]``; this maps
        a link back to ``j``.
        """
        cached = self._directed_position_cache
        if cached is None:
            cached = self._directed_position_cache = {
                link: position for position, link in enumerate(self.directed_edges())
            }
        return cached

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edges

    def neighbors(self, node: int) -> List[int]:
        """Sorted neighbourhood N(node)."""
        self._check_node(node)
        return sorted(self._adjacency[node])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adjacency[node])

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        return self.has_edge(*edge)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    # -- traversals -------------------------------------------------------

    def bfs_order(self, root: int = 0) -> List[int]:
        """Nodes reachable from ``root`` in BFS order (neighbours visited sorted)."""
        self._check_node(root)
        seen = {root}
        order = [root]
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in self.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    queue.append(neighbor)
        return order

    def bfs_parents(self, root: int = 0) -> Dict[int, Optional[int]]:
        """BFS parent pointers; ``None`` for the root.  Only reachable nodes appear."""
        self._check_node(root)
        parents: Dict[int, Optional[int]] = {root: None}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in self.neighbors(node):
                if neighbor not in parents:
                    parents[neighbor] = node
                    queue.append(neighbor)
        return parents

    def distances_from(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable node."""
        self._check_node(source)
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in self.neighbors(node):
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        return dist

    def is_connected(self) -> bool:
        return len(self.bfs_order(0)) == self.num_nodes

    def diameter(self) -> int:
        """Largest hop distance between any two nodes (graph must be connected)."""
        if not self.is_connected():
            raise ValueError("diameter is only defined for connected graphs")
        best = 0
        for source in self.nodes:
            best = max(best, max(self.distances_from(source).values()))
        return best

    # -- misc ---------------------------------------------------------------

    def copy(self) -> "Graph":
        return Graph.from_edges(self.num_nodes, self.edges)

    def validate_connected_simple(self) -> None:
        """Raise if the graph is not a connected simple graph (paper's assumption)."""
        if not self.is_connected():
            raise ValueError("the network graph must be connected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
