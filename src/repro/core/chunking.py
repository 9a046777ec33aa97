"""Partitioning the underlying protocol Π into chunks.

The coding scheme simulates Π one *chunk* at a time; a chunk is a maximal set
of consecutive rounds whose total communication does not exceed the chunk
budget (the paper's 5K bits — the paper then pads the last round virtually to
make every chunk exactly 5K bits; we keep the true per-chunk bit counts and
simply never exceed the budget, which changes nothing observable).

The partition only depends on the fixed speaking order, so every party
computes the same chunk boundaries locally.  A round is never split, so a
round that alone carries more transmissions than the budget is rejected.
After the real chunks we append ``padding_chunks`` empty dummy chunks (paper
§3.2: "Π is padded with enough dummy chunks").

``ChunkedProtocol`` also precomputes everything the simulation phase needs:

* the per-chunk round list and per-round scheduled links (in schedule order,
  and as a set for O(1) membership tests),
* the per-chunk *link slots* — for every undirected link, the ordered tuple of
  scheduled transmissions inside the chunk (this defines the canonical "link
  view" both endpoints hash and compare), and
* the maximum number of rounds of any chunk (the fixed length of the
  simulation-phase window).

Nothing here depends on a trial's seed, scheme randomness or noise, so the
engine builds one plan per (protocol, budget) through
:meth:`~repro.protocols.base.Protocol.chunk_plan` and reuses it in every
trial; every accessor therefore hands out immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.network.graph import DirectedEdge, edge_key
from repro.protocols.base import Protocol


@dataclass(frozen=True)
class LinkSlot:
    """One scheduled transmission inside a chunk, as seen on one link."""

    offset: int        # round offset within the chunk (0-based)
    round_index: int   # absolute round index in Π
    sender: int
    receiver: int


@dataclass(frozen=True)
class Chunk:
    """A contiguous set of protocol rounds (empty for padding chunks)."""

    index: int                     # 1-based chunk number, as in the paper
    round_indices: Tuple[int, ...]
    is_padding: bool

    @property
    def num_rounds(self) -> int:
        return len(self.round_indices)


class ChunkedProtocol:
    """Π's chunk decomposition and per-chunk link schedules.

    Holds Π's schedule but no reference to Π or its graph: the plan is cached
    on the protocol, and a back-reference would make every discarded
    workload cyclic garbage that only the cycle collector frees.
    """

    def __init__(self, protocol: Protocol, chunk_budget: int, padding_chunks: int = 2) -> None:
        if chunk_budget < 1:
            raise ValueError("chunk_budget must be positive")
        if padding_chunks < 0:
            raise ValueError("padding_chunks must be non-negative")
        self.chunk_budget = chunk_budget
        self.padding_chunks = padding_chunks
        self.schedule = protocol.schedule()
        self.chunks: Tuple[Chunk, ...] = tuple(self._build_chunks())
        self.num_real_chunks = sum(1 for chunk in self.chunks if not chunk.is_padding)
        self._chunk_round_links: Dict[int, Tuple[Tuple[DirectedEdge, ...], ...]] = {}
        self._chunk_round_sets: Dict[int, Tuple[FrozenSet[DirectedEdge], ...]] = {}
        self._link_slots: Dict[Tuple[int, Tuple[int, int]], Tuple[LinkSlot, ...]] = {}
        self._precompute()

    # -- construction ---------------------------------------------------------

    def _build_chunks(self) -> List[Chunk]:
        chunks: List[Chunk] = []
        current_rounds: List[int] = []
        current_bits = 0
        for round_index, transmissions in enumerate(self.schedule):
            bits = len(transmissions)
            if bits > self.chunk_budget:
                raise ValueError(
                    f"round {round_index} carries {bits} transmissions, more than the "
                    f"chunk budget {self.chunk_budget}; a chunk never splits a round"
                )
            if current_rounds and current_bits + bits > self.chunk_budget:
                chunks.append(Chunk(index=len(chunks) + 1, round_indices=tuple(current_rounds), is_padding=False))
                current_rounds = []
                current_bits = 0
            current_rounds.append(round_index)
            current_bits += bits
        if current_rounds:
            chunks.append(Chunk(index=len(chunks) + 1, round_indices=tuple(current_rounds), is_padding=False))
        if not chunks:
            # A silent protocol still gets one (empty) real chunk so that the
            # machinery has something to simulate.
            chunks.append(Chunk(index=1, round_indices=(), is_padding=False))
        for _ in range(self.padding_chunks):
            chunks.append(Chunk(index=len(chunks) + 1, round_indices=(), is_padding=True))
        return chunks

    def _precompute(self) -> None:
        link_slots: Dict[Tuple[int, Tuple[int, int]], List[LinkSlot]] = {}
        for chunk in self.chunks:
            per_round = tuple(tuple(self.schedule[round_index]) for round_index in chunk.round_indices)
            for offset, (round_index, links) in enumerate(zip(chunk.round_indices, per_round)):
                for sender, receiver in links:
                    key = (chunk.index, edge_key(sender, receiver))
                    link_slots.setdefault(key, []).append(
                        LinkSlot(offset=offset, round_index=round_index, sender=sender, receiver=receiver)
                    )
            self._chunk_round_links[chunk.index] = per_round
            self._chunk_round_sets[chunk.index] = tuple(frozenset(links) for links in per_round)
        self._link_slots = {key: tuple(slots) for key, slots in link_slots.items()}

    # -- queries ----------------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        """Total number of chunks including padding (the scheme's |Π| plus padding)."""
        return len(self.chunks)

    def chunk(self, chunk_index: int) -> Chunk:
        """The chunk with 1-based index ``chunk_index`` (padding chunks beyond the
        precomputed ones are synthesised on demand, so the simulation can always
        "simulate the next chunk" even late in the iteration budget)."""
        if chunk_index < 1:
            raise ValueError("chunk indices are 1-based")
        if chunk_index <= len(self.chunks):
            return self.chunks[chunk_index - 1]
        return Chunk(index=chunk_index, round_indices=(), is_padding=True)

    def chunk_round_links(self, chunk_index: int) -> Tuple[Tuple[DirectedEdge, ...], ...]:
        """Per round offset, the directed links scheduled in that round of the
        chunk, in schedule order."""
        return self._chunk_round_links.get(chunk_index, ())

    def chunk_round_sets(self, chunk_index: int) -> Tuple[FrozenSet[DirectedEdge], ...]:
        """:meth:`chunk_round_links` as one set per round, for membership tests."""
        return self._chunk_round_sets.get(chunk_index, ())

    def link_slots(self, chunk_index: int, u: int, v: int) -> Tuple[LinkSlot, ...]:
        """Ordered transmissions on link {u, v} within the chunk (both directions)."""
        return self._link_slots.get((chunk_index, edge_key(u, v)), ())

    def max_chunk_rounds(self) -> int:
        """The fixed length of the simulation window (longest chunk, in rounds)."""
        return max((chunk.num_rounds for chunk in self.chunks), default=0)

    def chunk_bits(self, chunk_index: int) -> int:
        """Number of transmissions scheduled inside the chunk."""
        return sum(len(links) for links in self.chunk_round_links(chunk_index))

    def communication_complexity(self) -> int:
        """CC(Π) — communication of the underlying protocol."""
        return sum(len(transmissions) for transmissions in self.schedule)
