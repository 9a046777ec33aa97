"""The noiseless multiparty protocol model Π.

The paper (§2.1) assumes an underlying protocol with a *fixed speaking
order*: which directed link carries a transmission in which round is known in
advance and independent of inputs; only the transmitted contents depend on
inputs and on previously received bits.  The coding scheme needs exactly two
capabilities from Π:

* the fixed schedule (to partition Π into chunks and to know, while
  simulating chunk ``c``, which link speaks at which round), and
* the ability to recompute "the bit party ``u`` sends on link ``(u, v)`` in
  round ``r``" from the bits ``u`` has received so far — because after a
  rewind the scheme re-simulates chunks from whatever (possibly corrupted)
  partial transcripts the party holds.

``PartyLogic.send_bit`` is therefore written as a *pure function of the
received map*, which makes replay after rewinds trivial and keeps party
implementations honest about using only causally available information
(the engine only ever passes receptions from earlier rounds).

Everything a protocol derives from its graph and inputs alone — the schedule,
the chunk plans, the flag-passing spanning tree and the noiseless reference
run — is built once and cached in ``_``-prefixed attributes, so every trial
over the same protocol object reuses it.
No cached value refers back to the protocol, so a discarded workload is
freed by reference counting, not left to the cycle collector.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.graph import DirectedEdge, Graph
from repro.network.spanning_tree import SpanningTree

if TYPE_CHECKING:
    from repro.core.chunking import ChunkedProtocol

#: (round_index, sender) -> received bit.
ReceivedMap = Dict[Tuple[int, int], int]


class PartyLogic(abc.ABC):
    """The local program of one party in the noiseless protocol."""

    def __init__(self, party: int) -> None:
        self.party = party

    @abc.abstractmethod
    def send_bit(self, round_index: int, receiver: int, received: ReceivedMap) -> int:
        """The bit this party sends to ``receiver`` in ``round_index``.

        ``received`` only contains receptions from rounds strictly before
        ``round_index``.  Must be deterministic.
        """

    @abc.abstractmethod
    def compute_output(self, received: ReceivedMap) -> object:
        """The party's protocol output, computed from everything it received."""


class Protocol(abc.ABC):
    """A noiseless protocol with a fixed speaking order over a graph."""

    def __init__(self, graph: Graph) -> None:
        graph.validate_connected_simple()
        self.graph = graph
        self._schedule: List[List[DirectedEdge]] | None = None
        self._chunk_plans: Dict[int, "ChunkedProtocol"] = {}
        self._spanning_tree: Optional[SpanningTree] = None
        self._noiseless: Optional["NoiselessExecution"] = None

    # -- schedule -----------------------------------------------------------------

    @abc.abstractmethod
    def build_schedule(self) -> List[List[DirectedEdge]]:
        """The fixed speaking order: one list of directed links per round."""

    def schedule(self) -> List[List[DirectedEdge]]:
        """Cached, validated speaking order."""
        if self._schedule is None:
            schedule = self.build_schedule()
            for round_index, transmissions in enumerate(schedule):
                seen = set()
                for sender, receiver in transmissions:
                    if not self.graph.has_edge(sender, receiver):
                        raise ValueError(
                            f"round {round_index} schedules ({sender}, {receiver}) "
                            "which is not a link of the graph"
                        )
                    if (sender, receiver) in seen:
                        raise ValueError(
                            f"round {round_index} schedules ({sender}, {receiver}) twice; "
                            "a link carries at most one symbol per direction per round"
                        )
                    seen.add((sender, receiver))
            self._schedule = schedule
        return self._schedule

    def chunk_plan(self, chunk_budget: int) -> "ChunkedProtocol":
        """Cached chunk decomposition of Π for one chunk budget."""
        plan = self._chunk_plans.get(chunk_budget)
        if plan is None:
            # The core imports this module, so the import waits for the call.
            from repro.core.chunking import ChunkedProtocol

            plan = self._chunk_plans[chunk_budget] = ChunkedProtocol(self, chunk_budget)
        return plan

    def spanning_tree(self) -> SpanningTree:
        """Cached BFS spanning tree of the graph rooted at node 0 (flag passing's tree)."""
        if self._spanning_tree is None:
            self._spanning_tree = SpanningTree(self.graph, root=0)
        return self._spanning_tree

    @abc.abstractmethod
    def create_party(self, party: int) -> PartyLogic:
        """Instantiate the local program of ``party`` (bound to its input)."""

    # -- derived quantities ----------------------------------------------------------

    @property
    def num_rounds(self) -> int:
        return len(self.schedule())

    def communication_complexity(self) -> int:
        """CC(Π): the total number of transmissions (= bits, since Σ = {0,1})."""
        return sum(len(transmissions) for transmissions in self.schedule())

    # -- reference execution ------------------------------------------------------------

    def run_noiseless(self) -> "NoiselessExecution":
        """Execute Π over a perfect network; the ground truth for experiments.

        Cached: every call returns the same object, so callers must not
        mutate it (copy ``outputs`` before handing it on).
        """
        if self._noiseless is not None:
            return self._noiseless
        parties = {party: self.create_party(party) for party in self.graph.nodes}
        received: Dict[int, ReceivedMap] = {party: {} for party in self.graph.nodes}
        sent: Dict[int, ReceivedMap] = {party: {} for party in self.graph.nodes}
        for round_index, transmissions in enumerate(self.schedule()):
            outgoing: List[Tuple[int, int, int]] = []
            for sender, receiver in transmissions:
                bit = parties[sender].send_bit(round_index, receiver, received[sender])
                if bit not in (0, 1):
                    raise ValueError(
                        f"party {sender} produced a non-binary bit {bit!r} in round {round_index}"
                    )
                outgoing.append((sender, receiver, bit))
            for sender, receiver, bit in outgoing:
                received[receiver][(round_index, sender)] = bit
                sent[sender][(round_index, receiver)] = bit
        outputs = {
            party: parties[party].compute_output(received[party]) for party in self.graph.nodes
        }
        self._noiseless = NoiselessExecution(outputs=outputs, received=received, sent=sent)
        return self._noiseless


@dataclass
class NoiselessExecution:
    """The result of running Π over a noiseless network."""

    outputs: Dict[int, object]
    received: Dict[int, ReceivedMap]
    sent: Dict[int, ReceivedMap]
