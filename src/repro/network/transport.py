"""The synchronous noisy transport layer.

``NoisyNetwork`` is the single place where symbols cross from a sender to a
receiver.  It

* validates the planes it sends and the planes the adversary delivers,
* hands the traffic to the adversary,
* keeps the global round counter and all communication / corruption
  statistics (:class:`~repro.network.channel.ChannelStats`).

Traffic travels as one ``(bits, present)`` integer plane per exchange (the
:func:`~repro.utils.bitstring.pack_symbols` convention: slot ``i`` carries
bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set, and is silent
otherwise).  In the paper's model (§2.1) every directed link carries one slot
per round, so every exchange has one shape, a window of links × rounds, and
one method carries it: ``exchange_window`` lays the plane out link-major
over ``graph.directed_edges()`` (position ``j * rounds + t`` is link ``j`` in
round ``current_round + t``), makes one
:meth:`~repro.adversary.base.Adversary.corrupt_window` call, accounts it
with one popcount pass
(:meth:`~repro.network.channel.ChannelStats.record_window`); only a flight
recorder makes it visit the corrupted links.  A lockstep round (flag
passing, simulation, rewind) is the case
``rounds = 1``; the meeting-points exchange and the randomness exchange use
wider windows.  The baselines send one window of ``repetitions`` rounds per
protocol round; the uncoded baseline is repetition with one copy, so it
sends one-round windows.

The engine never talks to the adversary directly; everything goes through
this class so the accounting cannot be bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.network.channel import ChannelStats, WindowContext
from repro.network.graph import Graph
from repro.obs.context import get_obs
from repro.obs.recorder import link_label
from repro.utils.bitstring import unpack_symbols


def _check_plane(bits: int, present: int, width: int, what: str) -> None:
    if bits & ~present:
        raise ValueError(f"{what} sets bits outside its present mask")
    if present >> width:
        raise ValueError(f"{what} has symbols beyond its {width} slots")


@dataclass
class NoisyNetwork:
    """Synchronous message transport over a graph with an adversary attached."""

    graph: Graph
    adversary: Adversary = field(default_factory=NoiselessAdversary)
    stats: ChannelStats = field(default_factory=ChannelStats)
    current_round: int = 0

    #: Dispatch accounting for ``repro.obs``: plain integers kept hot-path
    #: cheap (one add per exchange) and flushed into the ambient metrics
    #: registry once per trial by the engine.  ``idle_rounds_collapsed`` is
    #: credited by the engine at its window-collapse sites, not by
    #: ``advance_rounds`` itself.
    windows_exchanged: int = 0
    idle_rounds_collapsed: int = 0

    def __post_init__(self) -> None:
        # Construction-time capture of the ambient flight recorder (mirrors
        # the engine's obs capture): a plain attribute, not a dataclass field,
        # so it stays invisible to fingerprints, ``repr`` and equality.  The
        # recorder only ever *reads* traffic the stats already account, so it
        # cannot perturb deliveries, budgets or the round clock.
        self.recorder = get_obs().recorder

    # -- round bookkeeping --------------------------------------------------

    def advance_rounds(self, count: int) -> None:
        """Advance the global clock by ``count`` silent rounds."""
        if count < 0:
            raise ValueError("cannot advance by a negative number of rounds")
        self.current_round += count

    # -- transmission -------------------------------------------------------

    def exchange_window(
        self,
        bits: int,
        present: int,
        rounds: int,
        phase: str,
        iteration: int = -1,
    ) -> Tuple[int, int]:
        """Run ``rounds`` synchronous rounds over every directed link as one plane.

        ``(bits, present)`` is link-major over ``graph.directed_edges()``:
        position ``j * rounds + t`` is link ``j`` in round
        ``current_round + t``.  Every directed link takes part in every round,
        even if its sender stays silent: this is what allows the adversary to
        *insert* symbols on idle links, exactly as in the paper's noise
        model.  The adversary sees the whole plane in one
        :meth:`~repro.adversary.base.Adversary.corrupt_window` call; totals
        and per-phase counts are popcounts, and only a flight recorder makes
        the transport visit the corrupted links (one ``record_window`` event
        batch per link, in link order).  Returns the delivered plane and
        advances the clock by ``rounds``.

        Deliveries, statistics, recorder events and clock are those of
        per-slot delivery in plane order (``tests/test_transport.py`` pins
        them against the oracle in ``tests/oracle.py``).
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        links = self.graph.directed_edges()
        width = len(links) * rounds
        _check_plane(bits, present, width, "window")
        base_round = self.current_round
        ctx = WindowContext(
            links, self.graph.directed_edge_index(), rounds, phase, iteration, base_round
        )
        dbits, dpresent = self.adversary.corrupt_window(ctx, bits, present)
        _check_plane(dbits, dpresent, width, "adversary delivered a window that")
        self.windows_exchanged += 1
        corrupted = self.stats.record_window(ctx, bits, present, dbits, dpresent)
        recorder = self.recorder
        if corrupted and recorder is not None:
            sent = unpack_symbols(bits, present, width)
            received = unpack_symbols(dbits, dpresent, width)
            for position in ctx.link_positions(corrupted):
                start = position * rounds
                recorder.record_window(
                    link_label(*links[position]), phase, iteration, base_round,
                    sent[start:start + rounds], received[start:start + rounds],
                )
        self.current_round += rounds
        return dbits, dpresent

    # -- convenience ----------------------------------------------------------

    def communication(self) -> int:
        """Total number of transmissions so far (= communication in bits)."""
        return self.stats.transmissions
