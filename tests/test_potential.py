"""Tests for the potential-function instrumentation (§4.1 quantities)."""

from __future__ import annotations


from repro.analysis.potential import (
    compute_snapshot,
    link_agreement,
    link_divergence,
)
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.network.topologies import line_topology


def _transcript(owner, neighbor, payloads):
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=(payload,)))
    return transcript


def _line3_transcripts(values_01, values_10, values_12, values_21):
    return {
        (0, 1): _transcript(0, 1, values_01),
        (1, 0): _transcript(1, 0, values_10),
        (1, 2): _transcript(1, 2, values_12),
        (2, 1): _transcript(2, 1, values_21),
    }


class TestLinkQuantities:
    def test_agreement_and_divergence_equal_transcripts(self):
        transcripts = _line3_transcripts([1, 0], [1, 0], [1], [1])
        assert link_agreement(transcripts, 0, 1) == 2
        assert link_divergence(transcripts, 0, 1) == 0

    def test_divergence_counts_longest_side(self):
        transcripts = _line3_transcripts([1, 0, 1, 1], [1, 0], [1], [1])
        assert link_agreement(transcripts, 0, 1) == 2
        assert link_divergence(transcripts, 0, 1) == 2

    def test_disagreeing_prefix(self):
        transcripts = _line3_transcripts([1, 0], [0, 0], [1], [1])
        assert link_agreement(transcripts, 0, 1) == 0
        assert link_divergence(transcripts, 0, 1) == 2


class TestSnapshot:
    def test_global_quantities(self):
        graph = line_topology(3)
        transcripts = _line3_transcripts([1, 0, 1], [1, 0, 1], [1], [1])
        snapshot = compute_snapshot(graph, transcripts, iteration=4, scale_k=2)
        assert snapshot.global_agreement == 1     # min over links
        assert snapshot.global_longest == 3
        assert snapshot.global_divergence == 2
        assert snapshot.iteration == 4
        data = snapshot.as_dict()
        assert data["G_star"] == 1 and data["B_star"] == 2

    def test_simplified_potential_increases_with_agreement(self):
        graph = line_topology(3)
        behind = compute_snapshot(graph, _line3_transcripts([1], [1], [1], [1]), 0, scale_k=2)
        ahead = compute_snapshot(graph, _line3_transcripts([1, 0], [1, 0], [1, 0], [1, 0]), 1, scale_k=2)
        assert ahead.simplified_potential > behind.simplified_potential

    def test_divergence_lowers_potential(self):
        graph = line_topology(3)
        clean = compute_snapshot(graph, _line3_transcripts([1, 0], [1, 0], [1, 0], [1, 0]), 0, scale_k=2)
        diverged = compute_snapshot(graph, _line3_transcripts([1, 1], [1, 0], [1, 0], [1, 0]), 0, scale_k=2)
        assert diverged.simplified_potential < clean.simplified_potential

