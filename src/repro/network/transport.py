"""The synchronous noisy transport layer.

``NoisyNetwork`` is the single place where symbols cross from a sender to a
receiver.  It

* validates that transmissions only use existing links,
* hands the traffic to the adversary,
* keeps the global round counter and all communication / corruption
  statistics (:class:`~repro.network.channel.ChannelStats`).

Traffic travels as ``(bits, present)`` integer planes (the
:func:`~repro.utils.bitstring.pack_symbols` convention: slot ``i`` carries
bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set, and is silent
otherwise).  Two methods carry it:

* ``exchange_window_packed`` runs a window of consecutive rounds in which
  each directed link carries its own plane pair: one
  :meth:`~repro.adversary.base.Adversary.corrupt_window_packed` call and one
  O(1)-popcount :meth:`~repro.network.channel.ChannelStats.record_window_packed`
  pass per link.  The meeting-points exchange, the randomness exchange and
  the repetition baseline use it.
* ``exchange_round`` runs one lockstep round over *every* directed link as
  one plane, bit ``j`` being link ``graph.directed_edges()[j]``: one
  :meth:`~repro.adversary.base.Adversary.corrupt_round_packed` call per
  round, popcount accounting, and only corrupted links visited.  The
  flag-passing, simulation and rewind phases and the uncoded baseline use
  it.

The engine never talks to the adversary directly; everything goes through
this class so the accounting cannot be bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.network.channel import ChannelStats, RoundContext, Symbol, WindowContext
from repro.network.graph import Graph
from repro.obs.context import get_obs
from repro.obs.recorder import link_label
from repro.utils.bitstring import plane_digits, unpack_symbols


def _frame_reader(bits: int, present: int, count: int) -> Callable[[int], Symbol]:
    """Symbol lookup by slot for a ``(bits, present)`` plane, O(1) per read."""
    bit_digits = plane_digits(bits, count)
    present_digits = plane_digits(present, count)

    def read(position: int) -> Symbol:
        if present_digits[position] != "1":
            return None
        return 1 if bit_digits[position] == "1" else 0

    return read


@dataclass
class NoisyNetwork:
    """Synchronous message transport over a graph with an adversary attached."""

    graph: Graph
    adversary: Adversary = field(default_factory=NoiselessAdversary)
    stats: ChannelStats = field(default_factory=ChannelStats)
    current_round: int = 0

    #: Dispatch accounting for ``repro.obs``: plain integers kept hot-path
    #: cheap (one add per window) and flushed into the ambient metrics
    #: registry once per trial by the engine.  ``idle_rounds_collapsed`` is
    #: credited by the engine at its window-collapse sites, not by
    #: ``advance_rounds`` itself (which every window exchange also calls).
    windows_exchanged: int = 0
    sparse_dispatches: int = 0
    dense_dispatches: int = 0
    packed_dispatches: int = 0
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

    # -- window transmission --------------------------------------------------

    def exchange_window_packed(
        self,
        messages: Dict[Tuple[int, int], Tuple[int, int]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Run ``window_rounds`` synchronous rounds in which each directed link
        ``(u, v)`` carries the plane pair ``messages[(u, v)]``.

        Every directed link of the graph participates in every round of the
        window, even if its sender stays silent: this is what allows the
        adversary to *insert* symbols on idle links, exactly as in the paper's
        noise model.  A link missing from ``messages`` is silent; under an
        adversary that cannot insert it delivers ``(0, 0)`` without a kernel
        call.  Message keys must be directed links of the network.  Returns
        the delivered planes of every directed link.

        ``tests/test_transport.py`` pins deliveries, statistics, recorder
        events and clock against the per-slot oracle in ``tests/oracle.py``.
        """
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        adversary = self.adversary
        corrupt_window_packed = adversary.corrupt_window_packed
        may_insert = adversary.may_insert
        stats = self.stats
        recorder = self.recorder
        base_round = self.current_round
        self.windows_exchanged += 1
        self.packed_dispatches += 1
        self.dense_dispatches += 1
        if messages:
            edge_set = self.graph.directed_edge_set()
            for link, (bits, present) in messages.items():
                if link not in edge_set:
                    raise ValueError(
                        f"message keyed on unknown link {link}: not a directed edge of the network"
                    )
                if bits & ~present:
                    raise ValueError(
                        f"message on link {link} sets bits outside its present mask"
                    )
                if present >> window_rounds:
                    sender, receiver = link
                    raise ValueError(
                        f"message on link ({sender}, {receiver}) has symbols beyond "
                        f"the {window_rounds}-round window"
                    )
        received: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for link in self.graph.directed_edges():
            outgoing = messages.get(link)
            if outgoing is None:
                if not may_insert:
                    received[link] = (0, 0)
                    continue
                bits = present = 0
            else:
                bits, present = outgoing
            ctx = WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)
            dbits, dpresent = corrupt_window_packed(ctx, bits, present, window_rounds)
            if dbits == bits and dpresent == present:
                # Untouched window: only the transmission counters can
                # change, and an all-silent window cannot even do that.
                if present:
                    stats.record_window_packed(ctx, bits, present, dbits, dpresent)
            else:
                if dbits & ~dpresent:
                    raise ValueError(
                        f"adversary delivered bits outside the present mask on link {link}"
                    )
                if dpresent >> window_rounds:
                    raise ValueError(
                        f"adversary delivered symbols beyond the "
                        f"{window_rounds}-round window on link {link}"
                    )
                stats.record_window_packed(ctx, bits, present, dbits, dpresent)
                if recorder is not None:
                    recorder.record_window(
                        link_label(*link), phase, iteration, base_round,
                        unpack_symbols(bits, present, window_rounds),
                        unpack_symbols(dbits, dpresent, window_rounds),
                    )
            received[link] = (dbits, dpresent)
        self.advance_rounds(window_rounds)
        return received

    def exchange_round(
        self,
        bits: int,
        present: int,
        phase: str,
        iteration: int = -1,
    ) -> Tuple[int, int]:
        """Run one lockstep round over every directed link as one round frame.

        ``(bits, present)`` is a plane over the links: bit ``j`` is the slot
        of ``graph.directed_edges()[j]``, with the
        :func:`~repro.utils.bitstring.pack_symbols` convention.  The
        adversary sees the whole frame in one
        :meth:`~repro.adversary.base.Adversary.corrupt_round_packed` call;
        totals and per-phase counts are popcounts, and only corrupted links
        are visited for ``corruptions_by_link`` and the flight recorder, in
        link order.  Returns the delivered frame.

        Deliveries, statistics, recorder events and clock are those of one
        round of per-slot delivery in link order (``tests/test_transport.py``
        replays a trial's rounds through the oracle in ``tests/oracle.py``).
        """
        links = self.graph.directed_edges()
        count = len(links)
        if bits & ~present:
            raise ValueError("round frame sets bits outside its present mask")
        if present >> count:
            raise ValueError(f"round frame has symbols beyond the {count} directed links")
        adversary = self.adversary
        ctx = RoundContext(
            links, phase, iteration, self.current_round, self.graph.directed_edge_index()
        )
        dbits, dpresent = adversary.corrupt_round_packed(ctx, bits, present)
        if dbits & ~dpresent:
            raise ValueError("adversary delivered a round frame with bits outside its present mask")
        if dpresent >> count:
            raise ValueError(
                f"adversary delivered a round frame with symbols beyond the {count} directed links"
            )
        self.windows_exchanged += 1
        self.packed_dispatches += 1
        if adversary.may_insert:
            self.dense_dispatches += 1
        else:
            self.sparse_dispatches += 1
        corrupted = self.stats.record_round_packed(ctx, bits, present, dbits, dpresent)
        recorder = self.recorder
        if corrupted and recorder is not None:
            sent = _frame_reader(bits, present, count)
            received = _frame_reader(dbits, dpresent, count)
            for position in corrupted:
                recorder.record_window(
                    link_label(*links[position]), phase, iteration, ctx.round_index,
                    (sent(position),), (received(position),),
                )
        self.current_round += 1
        return dbits, dpresent

    # -- convenience ----------------------------------------------------------

    def noise_fraction(self) -> float:
        return self.stats.noise_fraction()

    def communication(self) -> int:
        """Total number of transmissions so far (= communication in bits)."""
        return self.stats.transmissions
