"""The progress measures of the analysis (paper §4.1, Figure 1).

The correctness proof tracks, per link, the length ``G_{u,v}`` of the longest
agreeing transcript prefix and the divergence ``B_{u,v}``, and globally the
fully-agreed prefix ``G*``, the most optimistic simulated length ``H*`` and
their gap ``B* = H* - G*``.  The full potential φ additionally contains the
meeting-points potential ``ϕ_{u,v}`` and the error/hash-collision count, with
proof constants C₁…C₇ that the paper never instantiates.

This module computes the *measurable* part of that potential from the ground
truth the simulator has (it can see both endpoints' transcripts), which is
what the flight recorder's per-iteration ``potential`` events carry:

* per-link ``G_{u,v}`` and ``B_{u,v}``,
* global ``G*``, ``H*``, ``B*``,
* a simplified potential ``φ̂ = (K/m)·Σ G_{u,v} − C₁·K·B*`` that must grow
  roughly linearly with the iteration count in successful runs.

These quantities are diagnostics; the coding scheme itself never looks at
them (parties cannot see each other's transcripts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.transcript import LinkTranscript
from repro.network.graph import Graph

#: Default value of the proof constant C1 used by the simplified potential.
DEFAULT_C1 = 2.0


@dataclass(frozen=True)
class PotentialSnapshot:
    """The progress measures of one instant of the simulation."""

    iteration: int
    link_agreement: Dict[Tuple[int, int], int]
    link_divergence: Dict[Tuple[int, int], int]
    global_agreement: int
    global_longest: int
    global_divergence: int
    simplified_potential: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "iteration": self.iteration,
            "G_star": self.global_agreement,
            "H_star": self.global_longest,
            "B_star": self.global_divergence,
            "phi": self.simplified_potential,
        }


def link_agreement(transcripts: Mapping[Tuple[int, int], LinkTranscript], u: int, v: int) -> int:
    """G_{u,v}: chunks of agreeing prefix between T_{u,v} and T_{v,u}."""
    mine = transcripts[(u, v)]
    theirs = transcripts[(v, u)]
    return mine.common_prefix_chunks(theirs)


def link_divergence(transcripts: Mapping[Tuple[int, int], LinkTranscript], u: int, v: int) -> int:
    """B_{u,v} = max(|T_{u,v}|, |T_{v,u}|) - G_{u,v}."""
    mine = transcripts[(u, v)]
    theirs = transcripts[(v, u)]
    return max(mine.num_chunks, theirs.num_chunks) - link_agreement(transcripts, u, v)


def compute_snapshot(
    graph: Graph,
    transcripts: Mapping[Tuple[int, int], LinkTranscript],
    iteration: int,
    scale_k: int,
    c1: float = DEFAULT_C1,
) -> PotentialSnapshot:
    """Compute all progress measures for the current state of the network."""
    agreement: Dict[Tuple[int, int], int] = {}
    divergence: Dict[Tuple[int, int], int] = {}
    longest = 0
    for u, v in graph.edges:
        agreement[(u, v)] = link_agreement(transcripts, u, v)
        divergence[(u, v)] = link_divergence(transcripts, u, v)
        longest = max(longest, transcripts[(u, v)].num_chunks, transcripts[(v, u)].num_chunks)
    g_star = min(agreement.values()) if agreement else 0
    b_star = longest - g_star
    m = max(1, graph.num_edges)
    phi = (scale_k / m) * sum(agreement.values()) - c1 * scale_k * b_star
    return PotentialSnapshot(
        iteration=iteration,
        link_agreement=agreement,
        link_divergence=divergence,
        global_agreement=g_star,
        global_longest=longest,
        global_divergence=b_star,
        simplified_potential=phi,
    )
