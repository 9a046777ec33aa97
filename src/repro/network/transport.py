"""The synchronous noisy transport layer.

``NoisyNetwork`` is the single place where symbols cross from a sender to a
receiver.  It

* validates that transmissions only use existing links,
* hands the traffic to the adversary,
* keeps the global round counter and all communication / corruption
  statistics (:class:`~repro.network.channel.ChannelStats`), and
* exposes window-oriented helpers (``exchange_window``) because every phase
  of the coding scheme transmits a fixed-length burst of symbols on many
  links in parallel, one symbol per round per direction.

Four transmission paths exist:

* the **round-frame path** (default for the engine's lockstep phases: flag
  passing, simulation and rewind): ``exchange_round`` carries one round
  over *every* directed link as one ``(bits, present)`` plane, bit ``j``
  being link ``graph.directed_edges()[j]`` — one
  :meth:`~repro.adversary.base.Adversary.corrupt_round_packed` call per
  round, popcount accounting, and only corrupted links visited;
* the **packed window path** (default for the meeting-points exchange):
  ``exchange_window_packed`` carries each directed link's window as a
  ``(bits, present)`` integer plane pair (the
  :func:`~repro.utils.bitstring.pack_symbols` convention) end to end — one
  :meth:`~repro.adversary.base.Adversary.corrupt_window_packed` call and one
  O(1)-popcount :meth:`~repro.network.channel.ChannelStats.record_window_packed`
  pass per link, with no per-slot symbol objects anywhere;
* the **batched path**: ``exchange_window`` makes one
  :meth:`~repro.adversary.base.Adversary.corrupt_window` call per directed
  link and one :meth:`~repro.network.channel.ChannelStats.record_window`
  bookkeeping pass per window — no per-slot contexts, calls or dictionary
  updates;
* the **single-slot compatibility path**: ``transmit`` carries one symbol
  through the classic ``TransmissionContext`` → ``corrupt`` → ``record`` →
  ``notify_delivery`` pipeline, and ``exchange_window_per_slot`` runs a whole
  window through it.  The two paths are bit-identical for every adversary
  honouring the ``corrupt_window`` contract (the equivalence suite in
  ``tests/test_transport.py`` pins this for all stock adversaries).

The engine never talks to the adversary directly; everything goes through
this class so the accounting cannot be bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.network.channel import (
    ChannelStats,
    RoundContext,
    Symbol,
    TransmissionContext,
    WindowContext,
)
from repro.network.graph import Graph
from repro.obs.context import get_obs
from repro.obs.recorder import link_label
from repro.utils.bitstring import plane_digits, unpack_symbols

_VALID_SYMBOLS = (0, 1, None)


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
    #: When ``False``, ``exchange_window`` routes through the single-slot
    #: compatibility path instead of the batched one.  The two are
    #: bit-identical; the flag exists for equivalence tests and benchmarks.
    batched: bool = True

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
        self._check_notify_contract(self.adversary)
        # Construction-time capture of the ambient flight recorder (mirrors
        # the engine's obs capture): a plain attribute, not a dataclass field,
        # so it stays invisible to fingerprints, ``repr`` and equality.  The
        # recorder only ever *reads* traffic the stats already account, so it
        # cannot perturb deliveries, budgets or the round clock.
        self.recorder = get_obs().recorder

    @staticmethod
    def _check_notify_contract(adversary: Adversary) -> None:
        """Reject adversaries whose batch path would silently skip notifications.

        The stock native ``corrupt_window`` overrides never call
        ``notify_delivery`` (it is a no-op for every stock adversary).  A
        subclass that overrides ``notify_delivery`` while *inheriting* such an
        override would therefore record different state on the batched and
        per-slot paths — the exact silent divergence the bit-identity
        guarantee forbids.  The hazard exists precisely when the class
        providing ``corrupt_window`` is unrelated to (not a subclass of, and
        not the base fallback seen by) the class providing
        ``notify_delivery``; overriding ``corrupt_window`` alongside (or
        below) the notify override, or restoring the base fallback with
        ``corrupt_window = Adversary.corrupt_window``, declares the pairing
        intentional.
        """
        adversary_type = type(adversary)
        if adversary_type.notify_delivery is Adversary.notify_delivery:
            return
        corrupt_window_owner = next(
            klass for klass in adversary_type.__mro__ if "corrupt_window" in klass.__dict__
        )
        notify_owner = next(
            klass for klass in adversary_type.__mro__ if "notify_delivery" in klass.__dict__
        )
        if corrupt_window_owner is Adversary:
            return  # the base fallback interleaves notify_delivery per slot
        if issubclass(corrupt_window_owner, notify_owner):
            return  # whoever wrote corrupt_window knew about the notify hook
        raise ValueError(
            f"{adversary_type.__name__} overrides notify_delivery but inherits "
            f"corrupt_window from {corrupt_window_owner.__name__}, whose batch path "
            "never notifies: override corrupt_window too, or restore the per-slot "
            "fallback with `corrupt_window = Adversary.corrupt_window`"
        )

    # -- round bookkeeping --------------------------------------------------

    def advance_rounds(self, count: int) -> None:
        """Advance the global clock by ``count`` silent rounds."""
        if count < 0:
            raise ValueError("cannot advance by a negative number of rounds")
        self.current_round += count

    # -- single-slot transmission -------------------------------------------

    def transmit(
        self,
        sender: int,
        receiver: int,
        symbol: Symbol,
        phase: str,
        iteration: int = -1,
        round_offset: int = 0,
        slot_index: int = 0,
    ) -> Symbol:
        """Send one symbol (or silence) over a directed link and return what arrives."""
        if not self.graph.has_edge(sender, receiver):
            raise ValueError(f"({sender}, {receiver}) is not a link of the network")
        if symbol not in _VALID_SYMBOLS:
            raise ValueError(f"invalid channel symbol {symbol!r}")
        ctx = TransmissionContext(
            round_index=self.current_round + round_offset,
            sender=sender,
            receiver=receiver,
            phase=phase,
            iteration=iteration,
            slot_index=slot_index,
        )
        received = self.adversary.corrupt(ctx, symbol)
        if received not in _VALID_SYMBOLS:
            raise ValueError(f"adversary produced invalid symbol {received!r}")
        self.stats.record(ctx, symbol, received)
        recorder = self.recorder
        if recorder is not None and received != symbol:
            recorder.record_window(
                link_label(sender, receiver), phase, iteration, ctx.round_index,
                (symbol,), (received,),
            )
        self.adversary.notify_delivery(ctx, symbol, received)
        return received

    # -- window transmission --------------------------------------------------

    def exchange_window(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], List[Symbol]]:
        """Run ``window_rounds`` synchronous rounds in which each directed link
        ``(u, v)`` carries the symbol sequence ``messages[(u, v)]`` (padded with
        silence up to the window length).

        Every directed link of the graph participates in every round of the
        window, even if its sender stays silent: this is what allows the
        adversary to *insert* symbols on idle links, exactly as in the paper's
        noise model.  Message keys must be directed links of the network.
        Returns the symbols delivered on every directed link.

        ``sparse=True`` permits (but does not guarantee) omitting silent links
        from the result when the adversary cannot insert — a silent link under
        a non-inserting adversary always delivers pure silence, so the caller
        loses nothing by treating a missing key as an all-``None`` window.
        The wire behaviour (adversary calls, statistics, clock) is identical;
        only the shape of the returned mapping changes.  Engine phases that
        transmit on a handful of links per round use this to skip the
        O(links) result-building work entirely.
        """
        self._validate_window(messages, window_rounds)
        if not self.batched:
            return self._exchange_window_per_slot(messages, window_rounds, phase, iteration, sparse)

        adversary = self.adversary
        corrupt_window = adversary.corrupt_window
        may_insert = adversary.may_insert
        stats = self.stats
        base_round = self.current_round
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        if omit_silent:
            self.sparse_dispatches += 1
        else:
            self.dense_dispatches += 1
        # The adversary sees the window as an immutable tuple, so the sent
        # record used for corruption accounting below cannot be mutated in
        # place — the accounting structurally cannot be bypassed.  The
        # all-silent window is shared across links (it is never writable).
        silence_tuple = (None,) * window_rounds
        silence_list = [None] * window_rounds
        received: Dict[Tuple[int, int], List[Symbol]] = {}
        if omit_silent:
            # Silent links are skipped entirely, so only the message links are
            # visited — in canonical directed-edge order, because stateful
            # adversaries must see corrupt_window calls in the same sequence
            # as a full scan would produce.
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            links = self.graph.directed_edges()
        for link in links:
            outgoing = messages.get(link)
            if outgoing is None:
                if not may_insert:
                    # A non-inserting adversary maps silence to silence; skip
                    # the whole window (the slots carry no bits).
                    if not omit_silent:
                        received[link] = [None] * window_rounds
                    continue
                window_tuple = silence_tuple
                window = silence_list  # read-only: compared and counted, never handed out
            else:
                window = list(outgoing)
                if len(window) < window_rounds:
                    window.extend([None] * (window_rounds - len(window)))
                window_tuple = tuple(window)
            ctx = WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)
            delivered = corrupt_window(ctx, window_tuple)
            if type(delivered) is not list:
                delivered = list(delivered)
            if delivered == window:
                # Untouched window: the input was already validated, so only
                # the transmission counters can change — and an all-silent
                # window cannot even do that.
                if outgoing is not None:
                    stats.record_window(ctx, window, delivered)
            else:
                if len(delivered) != window_rounds:
                    raise ValueError(
                        f"adversary delivered {len(delivered)} symbols for a "
                        f"{window_rounds}-round window on link {link}"
                    )
                for value in delivered:
                    if value not in _VALID_SYMBOLS:
                        raise ValueError(f"adversary produced invalid symbol {value!r}")
                stats.record_window(ctx, window, delivered)
                if self.recorder is not None:
                    self.recorder.record_window(
                        link_label(*link), phase, iteration, base_round, window, delivered
                    )
            received[link] = delivered
        self.advance_rounds(window_rounds)
        return received

    def exchange_window_packed(
        self,
        messages: Dict[Tuple[int, int], Tuple[int, int]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Packed-plane variant of :meth:`exchange_window`.

        Each directed link's window travels as one ``(bits, present)``
        integer plane pair following the
        :func:`~repro.utils.bitstring.pack_symbols` convention — slot ``i``
        carries bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set —
        instead of a symbol sequence.  Wire behaviour, statistics, clock and
        the ``sparse`` contract are identical to :meth:`exchange_window`
        (``tests/test_transport.py`` pins the bit-identity for all stock
        adversaries); what changes is the cost model: validation is two mask
        checks per link, corruption is one
        :meth:`~repro.adversary.base.Adversary.corrupt_window_packed` call,
        and accounting is O(1) popcounts.
        """
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        adversary = self.adversary
        corrupt_window_packed = adversary.corrupt_window_packed
        may_insert = adversary.may_insert
        stats = self.stats
        recorder = self.recorder
        base_round = self.current_round
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        self.packed_dispatches += 1
        if omit_silent:
            self.sparse_dispatches += 1
        else:
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
        if omit_silent:
            # Same canonical directed-edge order as the batched sparse
            # dispatch, for the same reason: stateful adversaries must see
            # the corruption calls in the sequence a full scan would produce.
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            links = self.graph.directed_edges()
        for link in links:
            outgoing = messages.get(link)
            if outgoing is None:
                if not may_insert:
                    if not omit_silent:
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

        Deliveries, statistics, recorder events and clock are those of a
        width-1 :meth:`exchange_window` with ``sparse=True`` carrying the
        same symbols (``tests/test_transport.py`` replays a trial's rounds
        through both).
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

    def exchange_window_per_slot(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], List[Symbol]]:
        """The single-slot reference implementation of :meth:`exchange_window`.

        Every slot goes through :meth:`transmit` individually.  This is the
        semantics the batched path must reproduce bit for bit; it is kept as
        a first-class method so equivalence tests and benchmarks can run both
        paths side by side.  ``sparse`` has the same meaning (and the same
        wire-identical guarantee) as on :meth:`exchange_window`.
        """
        self._validate_window(messages, window_rounds)
        return self._exchange_window_per_slot(messages, window_rounds, phase, iteration, sparse)

    def _exchange_window_per_slot(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
        phase: str,
        iteration: int,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], List[Symbol]]:
        received: Dict[Tuple[int, int], List[Symbol]] = {}
        may_insert = self.adversary.may_insert
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        if omit_silent:
            # Same canonical order and same result shape as the batched
            # sparse dispatch: silent links carry no bits for a non-inserting
            # adversary, so they are omitted from the scan and the result.
            self.sparse_dispatches += 1
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            self.dense_dispatches += 1
            links = self.graph.directed_edges()
        for sender, receiver in links:
            outgoing = list(messages.get((sender, receiver), ()))
            delivered: List[Symbol] = []
            for offset in range(window_rounds):
                symbol = outgoing[offset] if offset < len(outgoing) else None
                if symbol is None and not may_insert:
                    delivered.append(None)
                    continue
                delivered.append(
                    self.transmit(
                        sender,
                        receiver,
                        symbol,
                        phase=phase,
                        iteration=iteration,
                        round_offset=offset,
                        slot_index=offset,
                    )
                )
            received[(sender, receiver)] = delivered
        self.advance_rounds(window_rounds)
        return received

    def _validate_window(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
    ) -> None:
        """Shared validation: window length, message keys and symbol values."""
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        if not messages:
            return
        links = self.graph.directed_edge_set()
        for link, symbols in messages.items():
            if link not in links:
                raise ValueError(f"message keyed on unknown link {link}: not a directed edge of the network")
            if len(symbols) > window_rounds:
                sender, receiver = link
                raise ValueError(
                    f"message on link ({sender}, {receiver}) has {len(symbols)} symbols "
                    f"but the window only has {window_rounds} rounds"
                )
            for symbol in symbols:
                if symbol not in _VALID_SYMBOLS:
                    raise ValueError(f"invalid channel symbol {symbol!r}")

    # -- convenience ----------------------------------------------------------

    def noise_fraction(self) -> float:
        return self.stats.noise_fraction()

    def communication(self) -> int:
        """Total number of transmissions so far (= communication in bits)."""
        return self.stats.transmissions
