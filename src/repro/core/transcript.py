"""Pairwise transcripts T_{u,v}.

For every incident link, a party keeps the transcript of the chunks it has
simulated on that link (paper §3.2): for each chunk, the chunk number and the
symbols observed on the link's scheduled slots, in schedule order.  Two
facing transcripts T_{u,v} and T_{v,u} agree on a chunk exactly when every
transmission of that chunk was delivered uncorrupted — for a slot ``u → v``
party ``u`` records the bit it sent while party ``v`` records the bit it
received, so any substitution/deletion/insertion on the link shows up as a
mismatch (and only those; noise on other links does not).

The transcript also stores, for every reception, the absolute protocol round
and the sending neighbour, because re-simulating later chunks (possibly after
a rewind) replays the party's protocol logic against everything it has
received so far.

Serialisation is kept *packed and incremental*: every appended chunk is
serialised exactly once into a growing byte buffer, and the BLAKE2b
fingerprint of each prefix the meeting-points hashing consumes is cached per
prefix length.  :meth:`LinkTranscript.append` and
:meth:`LinkTranscript.truncate_to` are the only ways to change ``records``;
each updates the buffer and drops the cached fingerprints of prefixes that
no longer exist, so every cached accessor is served without revalidation.
The buffer also answers :meth:`LinkTranscript.same_records`, the engine's
ground-truth collision check: the ``[index:view]`` encoding is uniquely
decodable, so equal buffers are equal records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hashing.inner_product import fingerprint_bits
from repro.network.channel import Symbol


def _symbol_char(symbol: Symbol) -> str:
    if symbol is None:
        return "*"
    return "1" if symbol else "0"


@dataclass(frozen=True)
class ChunkRecord:
    """One simulated chunk as observed on one link by one party."""

    chunk_index: int
    #: Symbols on the link's scheduled slots, in schedule order, from this
    #: party's perspective (sent bits for outgoing slots, received symbols for
    #: incoming slots; ``None`` marks a deletion).
    link_view: Tuple[Symbol, ...]
    #: Protocol round -> symbol received from the neighbour in that round.
    received_by_round: Tuple[Tuple[int, Symbol], ...] = ()

    def serialize(self) -> str:
        """Canonical text form used for hashing and equality."""
        view = "".join(_symbol_char(symbol) for symbol in self.link_view)
        return f"[{self.chunk_index}:{view}]"

    def matches(self, other: "ChunkRecord") -> bool:
        """Whether two facing records describe the same chunk content."""
        return self.chunk_index == other.chunk_index and self.link_view == other.link_view


class LinkTranscript:
    """The transcript of one link as seen by one endpoint."""

    def __init__(self, owner: int, neighbor: int) -> None:
        self.owner = owner
        self.neighbor = neighbor
        #: The chunks in order.  Read it freely; change it only through
        #: :meth:`append` and :meth:`truncate_to`, which keep the caches below.
        self.records: List[ChunkRecord] = []
        # Incremental serialisation cache: the concatenated serialised
        # records and the cumulative byte offset after each one.
        self._cache_offsets: List[int] = [0]
        self._cache_buffer = bytearray()
        #: Cached prefix fingerprints, keyed by num_chunks.
        self._prefix_values: Dict[int, int] = {}

    # -- length & mutation ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_chunks(self) -> int:
        return len(self.records)

    def append(self, record: ChunkRecord) -> None:
        # Prefixes shorter than the new length are unchanged, so the cached
        # per-prefix values all stay valid.
        self.records.append(record)
        self._cache_buffer += record.serialize().encode("ascii")
        self._cache_offsets.append(len(self._cache_buffer))

    def truncate_to(self, num_chunks: int) -> int:
        """Keep only the first ``num_chunks`` chunks; returns how many were dropped."""
        if num_chunks < 0:
            raise ValueError("cannot truncate to a negative length")
        dropped = max(0, len(self.records) - num_chunks)
        del self.records[num_chunks:]
        if dropped:
            self._cache_truncate(num_chunks)
        return dropped

    def truncate_last(self, count: int = 1) -> int:
        """Drop the last ``count`` chunks (no-op beyond the current length)."""
        return self.truncate_to(max(0, len(self.records) - count))

    # -- serialisation cache --------------------------------------------------------

    def _cache_truncate(self, num_chunks: int) -> None:
        del self._cache_offsets[num_chunks + 1:]
        del self._cache_buffer[self._cache_offsets[num_chunks]:]
        values = self._prefix_values
        if values:
            for key in [key for key in values if key > num_chunks]:
                del values[key]

    # -- serialization & comparison ------------------------------------------------------

    def serialize_prefix(self, num_chunks: Optional[int] = None) -> bytes:
        """Canonical byte serialisation of the first ``num_chunks`` chunks."""
        if num_chunks is None:
            num_chunks = len(self.records)
        num_chunks = max(0, min(num_chunks, len(self.records)))
        return bytes(self._cache_buffer[:self._cache_offsets[num_chunks]])

    def prefix_fingerprint(self, num_chunks: int) -> int:
        """Cached :func:`~repro.hashing.inner_product.fingerprint_bits` of a prefix.

        Equal to ``fingerprint_bits(self.serialize_prefix(num_chunks))`` —
        the hot meeting-points path reads it from the per-prefix cache
        instead of re-serialising and re-hashing every consistency phase.
        """
        num_chunks = max(0, min(num_chunks, len(self.records)))
        value = self._prefix_values.get(num_chunks)
        if value is None:
            end = self._cache_offsets[num_chunks]
            value = fingerprint_bits(bytes(self._cache_buffer[:end]))
            self._prefix_values[num_chunks] = value
        return value

    def matches_prefix(self, other: "LinkTranscript", num_chunks: Optional[int] = None) -> bool:
        """Ground-truth agreement check against the facing transcript."""
        if num_chunks is None:
            num_chunks = max(len(self.records), len(other.records))
        if len(self.records) < num_chunks or len(other.records) < num_chunks:
            return False
        return all(
            mine.matches(theirs)
            for mine, theirs in zip(self.records[:num_chunks], other.records[:num_chunks])
        )

    def same_records(self, other: "LinkTranscript") -> bool:
        """``matches_prefix(other, max(len(self), len(other)))`` as one byte
        comparison of the serialisation buffers: the ``[index:view]``
        encoding is uniquely decodable, so equal bytes mean equal lengths
        and every record :meth:`~ChunkRecord.matches`.  Not a hash."""
        return self._cache_buffer == other._cache_buffer

    def common_prefix_chunks(self, other: "LinkTranscript") -> int:
        """G_{u,v}: length (in chunks) of the longest agreeing prefix."""
        count = 0
        for mine, theirs in zip(self.records, other.records):
            if not mine.matches(theirs):
                break
            count += 1
        return count

    # -- replay support -------------------------------------------------------------------

    def received_map(self, max_chunk_index: Optional[int] = None) -> Dict[Tuple[int, int], int]:
        """Received bits keyed by ``(protocol round, neighbour)`` for protocol replay.

        Deletions (``None``) are filled with 0 — the surrounding machinery
        detects and rewinds the inconsistency, so the filler value only has to
        be deterministic.
        """
        out: Dict[Tuple[int, int], int] = {}
        for record in self.records:
            if max_chunk_index is not None and record.chunk_index > max_chunk_index:
                continue
            for round_index, symbol in record.received_by_round:
                out[(round_index, self.neighbor)] = 0 if symbol is None else int(symbol)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkTranscript({self.owner}->{self.neighbor}, chunks={len(self.records)})"
