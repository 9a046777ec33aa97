"""Unit tests for repro.network.graph."""

from __future__ import annotations

import pytest

from repro.network.graph import Graph, edge_key
from repro.network.topologies import line_topology, ring_topology


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge_key(2, 2)


class TestGraphConstruction:
    def test_from_edges(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)

    def test_add_edge_idempotent(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        assert graph.num_edges == 1

    def test_rejects_out_of_range_nodes(self):
        graph = Graph(2)
        with pytest.raises(ValueError):
            graph.add_edge(0, 5)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_directed_edges_both_directions(self):
        graph = Graph.from_edges(3, [(0, 1)])
        assert set(graph.directed_edges()) == {(0, 1), (1, 0)}

    def test_contains_and_iter(self):
        graph = Graph.from_edges(3, [(0, 2)])
        assert (2, 0) in graph
        assert list(graph) == [0, 1, 2]


class TestNeighborsAndDegrees:
    def test_neighbors_sorted(self):
        graph = Graph.from_edges(4, [(2, 0), (2, 3), (2, 1)])
        assert graph.neighbors(2) == [0, 1, 3]

    def test_degree_and_max_degree(self):
        graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(3) == 1
        assert max(graph.degree(node) for node in graph.nodes) == 3


class TestTraversals:
    def test_bfs_order_starts_at_root(self):
        graph = line_topology(4)
        assert graph.bfs_order(0) == [0, 1, 2, 3]

    def test_bfs_parents(self):
        graph = line_topology(4)
        parents = graph.bfs_parents(0)
        assert parents[0] is None
        assert parents[3] == 2

    def test_distances(self):
        graph = line_topology(5)
        distances = graph.distances_from(0)
        assert distances[4] == 4
        assert distances[0] == 0

    def test_connectivity(self):
        connected = line_topology(3)
        assert connected.is_connected()
        disconnected = Graph.from_edges(4, [(0, 1)])
        assert not disconnected.is_connected()
        with pytest.raises(ValueError):
            disconnected.validate_connected_simple()

    def test_diameter_line_and_ring(self):
        assert line_topology(6).diameter() == 5
        assert ring_topology(6).diameter() == 3

    def test_diameter_requires_connectivity(self):
        graph = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            graph.diameter()

    def test_copy_is_independent(self):
        graph = line_topology(3)
        clone = graph.copy()
        clone.add_edge(0, 2)
        assert not graph.has_edge(0, 2)
        assert clone.has_edge(0, 2)
