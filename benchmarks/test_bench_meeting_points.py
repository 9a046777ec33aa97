"""Experiment ``meeting_points_convergence``: cost of the per-link correction.

Paper claim (§4.2 / Appendix A): the meeting-points mechanism lets two
parties whose transcripts diverge by B chunks reconverge within O(B) hash
exchanges, truncating at most O(B) chunks beyond the common prefix.

Shape we assert: for synthetic divergences B ∈ {1, 2, 4} the number of
exchanges needed grows roughly linearly (well within a 8·B + 8 envelope) and
the truncation overshoot stays bounded.

This file also times the meeting-points **hashing path**: a representative
iteration workload (two lockstep sessions on one link, the hot shape of the
consistency phase) through ``seeds_for_iteration`` + ``digest_many``, over
an exchanged seed (Algorithms A/B) and over the CRS.  The equivalence suite
in ``tests/test_hashing_equivalence.py`` pins it against a per-call hashing
oracle.
"""

from __future__ import annotations

import time

import pytest

from repro.core.meeting_points import STATUS_SIMULATE, MeetingPointsSession
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import CrsSeedSource, ExchangedSeedSource


def _transcript(owner, neighbor, payloads):
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=payload))
    return transcript


def _converge(divergence: int, common_length: int = 8, master_seed: int = 5):
    common = [(1, 0)] * common_length
    transcript_u = _transcript(0, 1, common + [(0, 0)] * divergence)
    transcript_v = _transcript(1, 0, common + [(1, 1)] * divergence)
    hasher = InnerProductHash(12)
    session_u = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
    session_v = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
    full = (1 << session_u.message_bits) - 1
    for iteration in range(200):
        message_u = session_u.build_message_packed(iteration, transcript_u)
        message_v = session_v.build_message_packed(iteration, transcript_v)
        outcome_u = session_u.process_reply_packed(iteration, transcript_u, message_v, full)
        outcome_v = session_v.process_reply_packed(iteration, transcript_v, message_u, full)
        if outcome_u.truncate_to is not None:
            transcript_u.truncate_to(outcome_u.truncate_to)
        if outcome_v.truncate_to is not None:
            transcript_v.truncate_to(outcome_v.truncate_to)
        if outcome_u.status == STATUS_SIMULATE and outcome_v.status == STATUS_SIMULATE:
            return iteration + 1, common_length - len(transcript_u)
    raise AssertionError("meeting points did not converge")


@pytest.mark.parametrize("divergence", [1, 2, 4])
def test_convergence_cost_scales_with_divergence(benchmark, run_once, divergence):
    phases, overshoot = run_once(benchmark, _converge, divergence)
    benchmark.extra_info["phases"] = phases
    benchmark.extra_info["overshoot_chunks"] = overshoot
    assert phases <= 8 * divergence + 8
    assert overshoot <= 2 * divergence + 2


# --------------------------------------------------------- hashing path timing --

# A full 2·64-bit AGHP seed (x, y both non-degenerate), as a real randomness
# exchange over a degree-64 field would produce.
_LINK_SEED = 0xC082_2AE2_C145_1FD2_8B5B_1402_5E93_30CC
_WORKLOAD_ITERATIONS = 12
_WORKLOAD_TAU = 12


def _hashing_workload_seconds(source_kind: str) -> float:
    """Wall clock of a representative per-link iteration workload.

    Two sessions on one link exchange meeting-points messages over
    permanently diverged transcripts, so every iteration derives fresh seeds
    and hashes four values per endpoint — exactly the per-iteration hash
    traffic of the engine's consistency phase.  Both sessions read one
    source object, as the engine's endpoints of a CRS or agreed link do, so
    the second endpoint's build takes the shared digest memo's hits.
    """
    if source_kind == "crs":
        source = CrsSeedSource(master_seed=5, link=(0, 1))
    else:
        source = ExchangedSeedSource(link_seed=_LINK_SEED)

    hasher = InnerProductHash(_WORKLOAD_TAU)
    session_u = MeetingPointsSession(hasher=hasher, seed_source=source)
    session_v = MeetingPointsSession(hasher=hasher, seed_source=source)
    transcript_u = _transcript(0, 1, [(1, 0)] * 8 + [(0, 0)] * 3)
    transcript_v = _transcript(1, 0, [(1, 0)] * 8 + [(1, 1)] * 3)

    full = (1 << session_u.message_bits) - 1
    start = time.perf_counter()
    for iteration in range(_WORKLOAD_ITERATIONS):
        message_u = session_u.build_message_packed(iteration, transcript_u)
        message_v = session_v.build_message_packed(iteration, transcript_v)
        session_u.process_reply_packed(iteration, transcript_u, message_v, full)
        session_v.process_reply_packed(iteration, transcript_v, message_u, full)
    return time.perf_counter() - start


def test_batched_hashing_speedup(benchmark, run_once):
    """The session hashing path over an exchanged seed and over the CRS.

    (The name dates from when this also timed an in-tree per-call hashing
    path to report a ratio; that path is gone.)
    """

    def measure(source_kind: str) -> float:
        # Best of two runs: a scheduling spike on a shared CI runner must hit
        # both attempts to move the measurement.
        return min(_hashing_workload_seconds(source_kind), _hashing_workload_seconds(source_kind))

    exchanged_seconds, crs_seconds = run_once(benchmark, lambda: (measure("exchanged"), measure("crs")))
    benchmark.extra_info["exchanged_seconds"] = round(exchanged_seconds, 6)
    benchmark.extra_info["crs_seconds"] = round(crs_seconds, 6)
