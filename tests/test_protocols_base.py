"""Tests for the Protocol/PartyLogic model and the noiseless reference execution."""

from __future__ import annotations

import pytest

from repro.network.topologies import line_topology
from repro.protocols.base import PartyLogic, Protocol
from repro.protocols.gossip import PairwiseExchangeProtocol


class _BadScheduleProtocol(Protocol):
    """Schedules a transmission on a non-existent link (for validation tests)."""

    def build_schedule(self):
        return [[(0, 2)]]

    def create_party(self, party):  # pragma: no cover - never reached
        raise NotImplementedError


class _DuplicateSlotProtocol(Protocol):
    def build_schedule(self):
        return [[(0, 1), (0, 1)]]

    def create_party(self, party):  # pragma: no cover - never reached
        raise NotImplementedError


class _NonBinaryParty(PartyLogic):
    def send_bit(self, round_index, receiver, received):
        return 2

    def compute_output(self, received):
        return None


class _NonBinaryProtocol(Protocol):
    def build_schedule(self):
        return [[(0, 1)]]

    def create_party(self, party):
        return _NonBinaryParty(party)


class TestScheduleValidation:
    def test_rejects_non_link_transmissions(self):
        protocol = _BadScheduleProtocol(line_topology(3))
        with pytest.raises(ValueError):
            protocol.schedule()

    def test_rejects_duplicate_slots(self):
        protocol = _DuplicateSlotProtocol(line_topology(3))
        with pytest.raises(ValueError):
            protocol.schedule()

    def test_rejects_disconnected_graph(self):
        from repro.network.graph import Graph

        graph = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            PairwiseExchangeProtocol(graph, {0: 0, 1: 0, 2: 0})

    def test_rejects_non_binary_bits(self):
        protocol = _NonBinaryProtocol(line_topology(3))
        with pytest.raises(ValueError):
            protocol.run_noiseless()


class TestDerivedQuantities:
    def test_communication_complexity(self, gossip_line5):
        # 2 directions * 4 links * 6 phases
        assert gossip_line5.communication_complexity() == 48
        assert gossip_line5.num_rounds == 6

    def test_schedule_is_cached(self, gossip_line5):
        assert gossip_line5.schedule() is gossip_line5.schedule()


class TestNoiselessExecution:
    def test_outputs_and_maps_present(self, gossip_line5):
        execution = gossip_line5.run_noiseless()
        assert set(execution.outputs) == set(range(5))
        assert set(execution.received) == set(range(5))
        assert set(execution.sent) == set(range(5))

    def test_reception_matches_send(self, gossip_line5):
        execution = gossip_line5.run_noiseless()
        for receiver, received_map in execution.received.items():
            for (round_index, sender), bit in received_map.items():
                assert execution.sent[sender][(round_index, receiver)] == bit

    def test_deterministic(self, gossip_line5):
        first = gossip_line5.run_noiseless()
        second = gossip_line5.run_noiseless()
        assert first.outputs == second.outputs

    def test_send_bits_only_depend_on_past(self):
        """Causality: the reference execution feeds only earlier-round receptions."""

        class _ProbeParty(PartyLogic):
            def __init__(self, party):
                super().__init__(party)
                self.seen_rounds = []

            def send_bit(self, round_index, receiver, received):
                assert all(r < round_index for (r, _s) in received)
                return 0

            def compute_output(self, received):
                return len(received)

        class _ProbeProtocol(Protocol):
            def build_schedule(self):
                return [[(0, 1), (1, 0)], [(1, 2)], [(2, 1)]]

            def create_party(self, party):
                return _ProbeParty(party)

        _ProbeProtocol(line_topology(3)).run_noiseless()
