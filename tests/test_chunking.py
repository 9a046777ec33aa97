"""Tests for the chunk decomposition of Π."""

from __future__ import annotations

import pytest

from repro.core.chunking import ChunkedProtocol
from repro.experiments.workloads import gossip_workload
from repro.network.topologies import line_topology
from repro.protocols.aggregation import AggregationProtocol
from repro.protocols.gossip import ParityGossipProtocol


@pytest.fixture
def chunked_gossip(gossip_clique4):
    return ChunkedProtocol(gossip_clique4, chunk_budget=24, padding_chunks=2)


class TestChunkBoundaries:
    def test_chunk_budget_respected(self, chunked_gossip):
        for chunk in chunked_gossip.chunks:
            if not chunk.is_padding:
                assert chunked_gossip.chunk_bits(chunk.index) <= chunked_gossip.chunk_budget

    def test_every_round_appears_exactly_once(self, chunked_gossip, gossip_clique4):
        rounds = [r for chunk in chunked_gossip.chunks for r in chunk.round_indices]
        assert rounds == list(range(gossip_clique4.num_rounds))

    def test_chunk_indices_are_one_based_and_consecutive(self, chunked_gossip):
        assert [chunk.index for chunk in chunked_gossip.chunks] == list(
            range(1, len(chunked_gossip.chunks) + 1)
        )

    def test_padding_chunks_appended(self, chunked_gossip):
        padding = [chunk for chunk in chunked_gossip.chunks if chunk.is_padding]
        assert len(padding) == 2
        assert all(chunk.num_rounds == 0 for chunk in padding)

    def test_real_chunk_count(self, chunked_gossip):
        # gossip over K4: 12 bits per phase, 5 phases = 60 bits, budget 24 -> 3 chunks
        assert chunked_gossip.num_real_chunks == 3

    def test_chunk_budget_validation(self, gossip_clique4):
        with pytest.raises(ValueError):
            ChunkedProtocol(gossip_clique4, chunk_budget=0)
        with pytest.raises(ValueError):
            ChunkedProtocol(gossip_clique4, chunk_budget=10, padding_chunks=-1)

    def test_round_wider_than_the_budget_is_rejected(self):
        # Every round of gossip over K4 carries 12 transmissions; a chunk
        # never splits a round, so a budget of 5 cannot be met.
        protocol = gossip_workload("clique", 4, 3).protocol
        with pytest.raises(ValueError, match="round 0 carries 12 transmissions"):
            ChunkedProtocol(protocol, chunk_budget=5)

    def test_silent_protocol_still_has_a_chunk(self):
        graph = line_topology(3)
        protocol = ParityGossipProtocol(graph, {i: 0 for i in range(3)}, phases=1)
        chunked = ChunkedProtocol(protocol, chunk_budget=1000, padding_chunks=0)
        assert chunked.num_real_chunks == 1


class TestChunkQueries:
    def test_chunk_lookup_and_synthesised_padding(self, chunked_gossip):
        total = chunked_gossip.num_chunks
        beyond = chunked_gossip.chunk(total + 5)
        assert beyond.is_padding
        assert beyond.num_rounds == 0
        with pytest.raises(ValueError):
            chunked_gossip.chunk(0)

    def test_chunk_round_links_match_schedule(self, chunked_gossip, gossip_clique4):
        schedule = gossip_clique4.schedule()
        chunk = chunked_gossip.chunks[0]
        per_round = chunked_gossip.chunk_round_links(chunk.index)
        per_round_sets = chunked_gossip.chunk_round_sets(chunk.index)
        assert len(per_round) == len(per_round_sets) == chunk.num_rounds
        for offset, round_index in enumerate(chunk.round_indices):
            assert list(per_round[offset]) == schedule[round_index]
            assert per_round_sets[offset] == frozenset(schedule[round_index])

    def test_link_slots_cover_all_transmissions(self, chunked_gossip, gossip_clique4):
        chunk = chunked_gossip.chunks[0]
        total_slots = 0
        for u, v in gossip_clique4.graph.edges:
            slots = chunked_gossip.link_slots(chunk.index, u, v)
            total_slots += len(slots)
            for slot in slots:
                assert {slot.sender, slot.receiver} == {u, v}
        assert total_slots == chunked_gossip.chunk_bits(chunk.index)

    def test_link_slots_symmetric_in_arguments(self, chunked_gossip):
        chunk = chunked_gossip.chunks[0]
        assert chunked_gossip.link_slots(chunk.index, 0, 1) == chunked_gossip.link_slots(chunk.index, 1, 0)

    def test_max_chunk_rounds(self, chunked_gossip):
        assert chunked_gossip.max_chunk_rounds() == max(
            chunk.num_rounds for chunk in chunked_gossip.chunks
        )

    def test_communication_complexity_passthrough(self, chunked_gossip, gossip_clique4):
        assert chunked_gossip.communication_complexity() == gossip_clique4.communication_complexity()


class TestSparseProtocolChunking:
    def test_aggregation_chunks(self):
        graph = line_topology(5)
        protocol = AggregationProtocol(graph, {i: 1 for i in range(5)}, value_bits=4)
        chunked = ChunkedProtocol(protocol, chunk_budget=8, padding_chunks=1)
        # 8 tree edges * 4 bits... line of 5 has 4 tree edges -> 4*4*2 = 32 bits total
        assert chunked.num_real_chunks == 4
        # in a sparse protocol every chunk has as many rounds as bits
        for chunk in chunked.chunks:
            if not chunk.is_padding:
                assert chunk.num_rounds == chunked.chunk_bits(chunk.index)
