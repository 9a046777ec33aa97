"""Unit tests for the BFS spanning tree used by flag passing."""

from __future__ import annotations

import pytest

from repro.network.spanning_tree import SpanningTree
from repro.network.topologies import complete_topology, line_topology, random_connected_topology, star_topology


class TestSpanningTreeStructure:
    def test_line_tree(self):
        tree = SpanningTree(line_topology(4), root=0)
        assert tree.parent[0] is None
        assert tree.parent[3] == 2
        assert tree.level[0] == 1
        assert tree.level[3] == 4
        assert tree.depth == 4

    def test_star_tree(self):
        tree = SpanningTree(star_topology(5), root=0)
        assert tree.depth == 2
        assert all(tree.parent[i] == 0 for i in range(1, 5))
        assert tree.children[0] == [1, 2, 3, 4]

    def test_clique_tree_depth(self):
        tree = SpanningTree(complete_topology(6), root=2)
        assert tree.depth == 2
        assert tree.root == 2

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            SpanningTree(line_topology(3), root=9)

    def test_tree_edges_count(self):
        graph = random_connected_topology(10, 0.4, seed=1)
        tree = SpanningTree(graph)
        edges = [(parent, node) for node, parent in tree.parent.items() if parent is not None]
        assert len(edges) == graph.num_nodes - 1
        # every tree edge must be a graph edge
        assert all(graph.has_edge(u, v) for u, v in edges)

    def test_levels_consistent_with_parents(self):
        graph = random_connected_topology(12, 0.3, seed=5)
        tree = SpanningTree(graph)
        for node, parent in tree.parent.items():
            if parent is not None:
                assert tree.level[node] == tree.level[parent] + 1


class TestOrderingsAndSubtrees:
    def test_bottom_up_and_top_down(self):
        tree = SpanningTree(line_topology(5))
        bottom_up = tree.nodes_bottom_up()
        top_down = tree.nodes_top_down()
        assert bottom_up[0] == 4
        assert top_down[0] == 0
        assert sorted(bottom_up) == sorted(top_down) == list(range(5))

    def test_is_leaf(self):
        tree = SpanningTree(star_topology(4), root=0)
        assert tree.children[0]
        assert not tree.children[3]
