"""Tests for pairwise transcripts and chunk records."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import fingerprint_bits


def _record(index, view, received=()):
    return ChunkRecord(chunk_index=index, link_view=tuple(view), received_by_round=tuple(received))


class TestChunkRecord:
    def test_serialize_contains_chunk_number_and_symbols(self):
        record = _record(3, (1, 0, None))
        assert record.serialize() == "[3:10*]"

    def test_matches(self):
        assert _record(1, (1, 0)).matches(_record(1, (1, 0)))
        assert not _record(1, (1, 0)).matches(_record(2, (1, 0)))
        assert not _record(1, (1, 0)).matches(_record(1, (1, 1)))
        assert not _record(1, (1, None)).matches(_record(1, (1, 0)))


class TestLinkTranscript:
    def test_append_and_length(self):
        transcript = LinkTranscript(0, 1)
        assert len(transcript) == 0
        transcript.append(_record(1, (1,)))
        transcript.append(_record(2, (0,)))
        assert transcript.num_chunks == 2

    def test_truncate_to(self):
        transcript = LinkTranscript(0, 1)
        for index in range(1, 5):
            transcript.append(_record(index, (index % 2,)))
        dropped = transcript.truncate_to(2)
        assert dropped == 2
        assert len(transcript) == 2
        assert transcript.truncate_to(10) == 0
        with pytest.raises(ValueError):
            transcript.truncate_to(-1)

    def test_truncate_last(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1,)))
        transcript.append(_record(2, (0,)))
        assert transcript.truncate_last() == 1
        assert len(transcript) == 1
        assert transcript.truncate_last(5) == 1
        assert len(transcript) == 0

    def test_serialize_prefix(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1, 1)))
        transcript.append(_record(2, (0,)))
        assert transcript.serialize_prefix(1) == b"[1:11]"
        assert transcript.serialize_prefix() == b"[1:11][2:0]"
        assert transcript.serialize_prefix(99) == transcript.serialize_prefix()

    def test_prefix_fingerprint_follows_truncate_then_append(self):
        """A prefix length that is reused by a different chunk after a
        truncation must not be served its old fingerprint."""
        transcript = LinkTranscript(0, 1)
        for index in range(1, 4):
            transcript.append(_record(index, (1, 0)))
        stale = transcript.prefix_fingerprint(3)
        transcript.prefix_fingerprint(2)
        transcript.truncate_to(1)
        transcript.append(_record(2, (0, 0)))
        transcript.append(_record(3, (None, 1)))
        expected = b"".join(record.serialize().encode("ascii") for record in transcript.records)
        assert transcript.serialize_prefix() == expected
        for length in (1, 2, 3):
            assert transcript.prefix_fingerprint(length) == fingerprint_bits(
                transcript.serialize_prefix(length)
            )
        assert transcript.prefix_fingerprint(3) != stale

    def test_matches_prefix_and_common_prefix(self):
        mine = LinkTranscript(0, 1)
        theirs = LinkTranscript(1, 0)
        for index in range(1, 4):
            mine.append(_record(index, (1, 0)))
            theirs.append(_record(index, (1, 0)))
        assert mine.matches_prefix(theirs)
        assert mine.common_prefix_chunks(theirs) == 3

        theirs.truncate_last()
        theirs.append(_record(3, (1, 1)))
        assert not mine.matches_prefix(theirs)
        assert mine.matches_prefix(theirs, 2)
        assert mine.common_prefix_chunks(theirs) == 2

    def test_matches_prefix_requires_length(self):
        mine = LinkTranscript(0, 1)
        theirs = LinkTranscript(1, 0)
        mine.append(_record(1, (1,)))
        assert not mine.matches_prefix(theirs, 1)

    def test_received_map_fills_deletions(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1, None), received=((4, 1), (5, None))))
        received = transcript.received_map()
        assert received == {(4, 1): 1, (5, 1): 0}

    def test_received_map_respects_chunk_bound(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1,), received=((0, 1),)))
        transcript.append(_record(2, (1,), received=((9, 0),)))
        assert transcript.received_map(max_chunk_index=1) == {(0, 1): 1}

    def test_facing_transcripts_differ_after_corruption(self):
        """A substitution on the wire shows up as a link-view mismatch."""
        sender_view = LinkTranscript(0, 1)
        receiver_view = LinkTranscript(1, 0)
        sender_view.append(_record(1, (1, 0)))      # what 0 sent
        receiver_view.append(_record(1, (1, 1)))    # what 1 received (second bit flipped)
        assert sender_view.common_prefix_chunks(receiver_view) == 0


#: Chunk indices whose decimal digits share prefixes (1, 11, 111, ...), so a
#: length-blind or delimiter-free encoding would alias records.
_INDICES = st.sampled_from((0, 1, 2, 11, 12, 21, 111))
_VIEWS = st.lists(st.sampled_from((0, 1, None)), max_size=3).map(tuple)
#: ``matches`` ignores the receive log, so facing records may differ in it.
_RECEIVED = st.sampled_from(((), ((0, 1),), ((3, None), (4, 0))))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _INDICES, _VIEWS, _RECEIVED),
        st.tuples(st.just("truncate_to"), st.integers(0, 6)),
        st.tuples(st.just("truncate_last"), st.integers(0, 3)),
    ),
    max_size=10,
)


def _apply(transcript, ops):
    for op in ops:
        if op[0] == "append":
            transcript.append(_record(*op[1:]))
        else:
            getattr(transcript, op[0])(op[1])
    return transcript


class TestSameRecords:
    @given(shared=_OPS, mine=_OPS, theirs=_OPS)
    @example(shared=[], mine=[("append", 1, (1, 1), ())], theirs=[("append", 11, (1,), ())])
    @example(shared=[("append", 1, (0,), ())], mine=[], theirs=[("append", 1, (), ())])
    @example(
        shared=[("append", 2, (None,), ())],
        mine=[("truncate_last", 1), ("append", 2, (0,), ((0, 1),))],
        theirs=[("truncate_to", 0), ("append", 2, (0,), ())],
    )
    def test_same_records_is_matches_prefix_over_the_longer_length(self, shared, mine, theirs):
        """Byte equality of the serialisation buffers is exactly equal
        lengths with every facing record matching, through truncations and
        re-appends."""
        a = _apply(LinkTranscript(0, 1), shared + mine)
        b = _apply(LinkTranscript(1, 0), shared + theirs)
        expected = a.matches_prefix(b, max(len(a), len(b)))
        assert a.same_records(b) == expected
        assert b.same_records(a) == expected
