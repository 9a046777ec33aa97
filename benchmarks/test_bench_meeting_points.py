"""Experiment ``meeting_points_convergence``: cost of the per-link correction.

Paper claim (§4.2 / Appendix A): the meeting-points mechanism lets two
parties whose transcripts diverge by B chunks reconverge within O(B) hash
exchanges, truncating at most O(B) chunks beyond the common prefix.

Shape we assert: for synthetic divergences B ∈ {1, 2, 4} the number of
exchanges needed grows roughly linearly (well within a 8·B + 8 envelope) and
the truncation overshoot stays bounded.

This file also measures the meeting-points **hashing fast path**: a
representative iteration workload (two lockstep sessions on one
exchanged-seed link, the hot shape of Algorithms A/B) through the batched
path (``seeds_for_iteration`` + ``digest_many``) and through the per-call
reference path (``seed_for`` + one ``digest`` per value), both over the one
δ-biased expansion, while the equivalence suite in
``tests/test_hashing_equivalence.py`` pins the two bit-identical.
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
    for iteration in range(200):
        message_u = session_u.build_message(iteration, transcript_u)
        message_v = session_v.build_message(iteration, transcript_v)
        outcome_u = session_u.process_reply(iteration, transcript_u, message_v)
        outcome_v = session_v.process_reply(iteration, transcript_v, message_u)
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


# ----------------------------------------------------- hashing fast-path gate --

# A full 2·64-bit AGHP seed (x, y both non-degenerate), as a real randomness
# exchange over a degree-64 field would produce.
_LINK_SEED = 0xC082_2AE2_C145_1FD2_8B5B_1402_5E93_30CC
_WORKLOAD_ITERATIONS = 12
_WORKLOAD_TAU = 12


def _hashing_workload_seconds(source_kind: str, fast: bool) -> float:
    """Wall clock of a representative per-link iteration workload.

    Two sessions on one link exchange meeting-points messages over
    permanently diverged transcripts, so every iteration derives fresh seeds
    and hashes four values per endpoint — exactly the per-iteration hash
    traffic of the engine's consistency phase.  ``fast`` selects the session's
    batched path; the reference path derives seeds per call and hashes one
    value per digest.  Both expand seeds the same way.
    """
    def build_source():
        if source_kind == "crs":
            return CrsSeedSource(master_seed=5, link=(0, 1))
        return ExchangedSeedSource(link_seed=_LINK_SEED)

    hasher = InnerProductHash(_WORKLOAD_TAU)
    session_u = MeetingPointsSession(
        hasher=hasher, seed_source=build_source(), fast_hashing=fast
    )
    session_v = MeetingPointsSession(
        hasher=hasher, seed_source=build_source(), fast_hashing=fast
    )
    transcript_u = _transcript(0, 1, [(1, 0)] * 8 + [(0, 0)] * 3)
    transcript_v = _transcript(1, 0, [(1, 0)] * 8 + [(1, 1)] * 3)

    start = time.perf_counter()
    for iteration in range(_WORKLOAD_ITERATIONS):
        message_u = session_u.build_message(iteration, transcript_u)
        message_v = session_v.build_message(iteration, transcript_v)
        session_u.process_reply(iteration, transcript_u, message_v)
        session_v.process_reply(iteration, transcript_v, message_u)
    return time.perf_counter() - start


def test_batched_hashing_speedup(benchmark, run_once):
    """The batched session path against the per-call one, same expansion."""

    def measure(source_kind: str, fast: bool) -> float:
        # Best of two runs per path: a scheduling spike on a shared CI runner
        # must hit both attempts to move the measurement.
        return min(
            _hashing_workload_seconds(source_kind, fast=fast),
            _hashing_workload_seconds(source_kind, fast=fast),
        )

    def compare():
        reference_seconds = measure("exchanged", fast=False)
        fast_seconds = measure("exchanged", fast=True)
        crs_reference_seconds = measure("crs", fast=False)
        crs_fast_seconds = measure("crs", fast=True)
        return reference_seconds, fast_seconds, crs_reference_seconds, crs_fast_seconds

    reference_seconds, fast_seconds, crs_reference, crs_fast = run_once(benchmark, compare)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["fast_seconds"] = round(fast_seconds, 6)
    benchmark.extra_info["speedup"] = round(reference_seconds / fast_seconds, 2)
    benchmark.extra_info["crs_speedup"] = round(crs_reference / crs_fast, 2)
