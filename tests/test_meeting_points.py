"""Tests for the meeting-points mechanism (consistency-check phase)."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.meeting_points import STATUS_MEETING_POINTS, STATUS_SIMULATE, MeetingPointsSession
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import CrsSeedSource


def _record(index: int, payload: int) -> ChunkRecord:
    return ChunkRecord(chunk_index=index, link_view=(payload & 1, (payload >> 1) & 1))


def _transcript(owner: int, neighbor: int, payloads: List[int]) -> LinkTranscript:
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(_record(index, payload))
    return transcript


def _session_pair(tau: int = 10, master_seed: int = 99) -> Tuple[MeetingPointsSession, MeetingPointsSession]:
    hasher = InnerProductHash(tau)
    seed_u = CrsSeedSource(master_seed=master_seed, link=(0, 1))
    seed_v = CrsSeedSource(master_seed=master_seed, link=(0, 1))
    return (
        MeetingPointsSession(hasher=hasher, seed_source=seed_u),
        MeetingPointsSession(hasher=hasher, seed_source=seed_v),
    )


def _exchange(
    session_u: MeetingPointsSession,
    session_v: MeetingPointsSession,
    transcript_u: LinkTranscript,
    transcript_v: LinkTranscript,
    iteration: int,
):
    """One noiseless consistency-check exchange between the two endpoints."""
    full = (1 << session_u.message_bits) - 1
    message_u = session_u.build_message_packed(iteration, transcript_u)
    message_v = session_v.build_message_packed(iteration, transcript_v)
    outcome_u = session_u.process_reply_packed(iteration, transcript_u, message_v, full)
    outcome_v = session_v.process_reply_packed(iteration, transcript_v, message_u, full)
    if outcome_u.truncate_to is not None:
        transcript_u.truncate_to(outcome_u.truncate_to)
    if outcome_v.truncate_to is not None:
        transcript_v.truncate_to(outcome_v.truncate_to)
    return outcome_u, outcome_v


def _run_until_consistent(transcript_u, transcript_v, max_phases=64, tau=12, master_seed=99):
    session_u, session_v = _session_pair(tau=tau, master_seed=master_seed)
    for iteration in range(max_phases):
        outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, iteration)
        if outcome_u.status == STATUS_SIMULATE and outcome_v.status == STATUS_SIMULATE:
            return iteration + 1
    return None


class TestMessageLayout:
    def test_message_length(self):
        session, _ = _session_pair(tau=7)
        transcript = _transcript(0, 1, [1, 2])
        message = session.build_message_packed(0, transcript)
        assert message.bit_length() <= 4 * 7 == session.message_bits

    def test_counter_advances(self):
        session, _ = _session_pair()
        transcript = _transcript(0, 1, [1])
        session.build_message_packed(0, transcript)
        assert session.k == 1
        session.build_message_packed(1, transcript)
        assert session.k == 2


class TestAgreement:
    def test_equal_transcripts_simulate_immediately(self):
        transcript_u = _transcript(0, 1, [1, 2, 3])
        transcript_v = _transcript(1, 0, [1, 2, 3])
        session_u, session_v = _session_pair()
        outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, 0)
        assert outcome_u.status == STATUS_SIMULATE
        assert outcome_v.status == STATUS_SIMULATE
        assert outcome_u.full_match and outcome_v.full_match
        assert len(transcript_u) == 3 and len(transcript_v) == 3

    def test_empty_transcripts_agree(self):
        transcript_u = LinkTranscript(0, 1)
        transcript_v = LinkTranscript(1, 0)
        session_u, session_v = _session_pair()
        outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, 0)
        assert outcome_u.status == STATUS_SIMULATE
        assert outcome_v.status == STATUS_SIMULATE

    def test_mismatch_detected(self):
        transcript_u = _transcript(0, 1, [1, 2, 3])
        transcript_v = _transcript(1, 0, [1, 2, 0])
        session_u, session_v = _session_pair()
        outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, 0)
        assert outcome_u.status == STATUS_MEETING_POINTS
        assert outcome_v.status == STATUS_MEETING_POINTS


class TestConvergence:
    @pytest.mark.parametrize(
        "payload_u,payload_v",
        [
            ([1, 2, 3], [1, 2, 0]),          # one divergent chunk
            ([1, 2, 3, 0], [1, 2]),          # one side two chunks ahead
            ([1, 2, 3, 1, 2], [1, 2, 3]),    # prefix relationship
            ([1, 2, 3, 1], [1, 2, 0, 0]),    # divergence in the middle
            ([1], []),                       # single chunk vs empty
            ([1, 2, 3, 0, 2, 3, 1], [1, 0]), # large imbalance
        ],
    )
    def test_divergent_transcripts_reconverge(self, payload_u, payload_v):
        transcript_u = _transcript(0, 1, payload_u)
        transcript_v = _transcript(1, 0, payload_v)
        phases = _run_until_consistent(transcript_u, transcript_v)
        assert phases is not None, "meeting points never converged"
        # after convergence the transcripts must be identical and a prefix of
        # the original common prefix
        assert len(transcript_u) == len(transcript_v)
        assert transcript_u.matches_prefix(transcript_v)

    def test_convergence_is_quick_for_small_divergence(self):
        transcript_u = _transcript(0, 1, [1, 2, 3, 0])
        transcript_v = _transcript(1, 0, [1, 2, 3, 1])
        phases = _run_until_consistent(transcript_u, transcript_v)
        assert phases is not None and phases <= 6

    def test_truncation_does_not_overshoot_too_much(self):
        common = [1, 2, 3, 0, 1, 2, 3, 0]
        transcript_u = _transcript(0, 1, common + [1])
        transcript_v = _transcript(1, 0, common + [2])
        _run_until_consistent(transcript_u, transcript_v)
        # divergence B = 1; the final length must not be rolled back by more
        # than O(B) chunks past the common prefix (here: at most 2 chunks).
        assert len(transcript_u) >= len(common) - 2


    @pytest.mark.parametrize("divergence", [1, 2, 4])
    def test_convergence_cost_scales_with_divergence(self, divergence):
        """§4.2 / Appendix A: a divergence of B chunks reconverges within
        O(B) exchanges and truncates O(B) chunks past the common prefix."""
        common_length = 8
        transcript_u = _transcript(0, 1, [1] * common_length + [0] * divergence)  # views (1, 0) then (0, 0)
        transcript_v = _transcript(1, 0, [1] * common_length + [3] * divergence)  # views (1, 0) then (1, 1)
        phases = _run_until_consistent(transcript_u, transcript_v, max_phases=200, master_seed=5)
        assert phases is not None, "meeting points never converged"
        assert phases <= 8 * divergence + 8
        assert common_length - len(transcript_u) <= 2 * divergence + 2


class TestCounterResynchronisation:
    def test_desynchronised_counters_recover(self):
        """If one side's k drifted (e.g. after corrupted exchanges), both resync."""
        transcript_u = _transcript(0, 1, [1, 2])
        transcript_v = _transcript(1, 0, [1, 2])
        session_u, session_v = _session_pair()
        # Artificially desynchronise the counters.
        session_u.k = 5
        outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, 0)
        # They cannot agree this phase, but within two more phases they must.
        for iteration in range(1, 4):
            outcome_u, outcome_v = _exchange(session_u, session_v, transcript_u, transcript_v, iteration)
            if outcome_u.status == STATUS_SIMULATE and outcome_v.status == STATUS_SIMULATE:
                break
        assert outcome_u.status == STATUS_SIMULATE
        assert outcome_v.status == STATUS_SIMULATE


class TestNoiseHandling:
    def test_corrupted_reply_counts_as_mismatch(self):
        transcript_u = _transcript(0, 1, [1, 2])
        transcript_v = _transcript(1, 0, [1, 2])
        session_u, session_v = _session_pair()
        session_v.build_message_packed(0, transcript_v)
        session_u.build_message_packed(0, transcript_u)
        outcome_u = session_u.process_reply_packed(0, transcript_u, 0, 0)  # everything deleted
        assert outcome_u.status == STATUS_MEETING_POINTS

    def test_partial_reply_is_tolerated(self):
        transcript_u = _transcript(0, 1, [1, 2])
        session_u, _ = _session_pair()
        session_u.build_message_packed(0, transcript_u)
        outcome = session_u.process_reply_packed(0, transcript_u, 0b10, 0b11)  # far too short
        assert outcome.status == STATUS_MEETING_POINTS

    def test_hash_collision_accounting_is_possible(self):
        """With a 1-bit hash, distinct transcripts sometimes look equal (a collision)."""
        collisions = 0
        for master_seed in range(40):
            hasher = InnerProductHash(1)
            session_u = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
            session_v = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
            transcript_u = _transcript(0, 1, [1, 2, 3])
            transcript_v = _transcript(1, 0, [1, 2, 0])
            outcome_u, _ = _exchange(session_u, session_v, transcript_u, transcript_v, 0)
            if outcome_u.full_match:
                collisions += 1
        # Expected collision rate is about 1/2 per the 1-bit hash; require that
        # collisions are neither impossible nor certain.
        assert 0 < collisions < 40
