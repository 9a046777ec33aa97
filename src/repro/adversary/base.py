"""Adversary interface and noise-budget bookkeeping.

The paper distinguishes:

* **oblivious** adversaries — the noise pattern is fixed before the protocol
  starts, independently of the parties' randomness (the *additive* adversary
  of §2.1 and the *fixing* adversary of Remark 1);
* **non-oblivious** adversaries — the noise may adapt to everything observed
  on the wire (but not to private coins tossed later).

All of them implement :class:`Adversary`.  The single-slot contract is
``corrupt``: the transport consults the adversary for one channel slot (one
round, one directed link) and the adversary returns what the receiver should
see.  The batched hot path is ``corrupt_window``: the transport hands the
adversary one whole window of slots on one directed link and gets the full
delivered sequence back.  The base implementation of ``corrupt_window``
falls back to per-slot ``corrupt`` calls, and every override is required to
be bit-identical to that fallback.  Corruption accounting is done by the
transport, not by the adversary, so an adversary cannot under-report its own
noise.

On top of both sits the opt-in **slot-addressed contract**
(``Adversary.slot_addressed`` + ``corruption_schedule``): corruption as a
pure function of ``(round, link, symbol)`` with no cross-slot state, which
is what lets the engine merge a whole phase's rounds into a single
transport dispatch.  See :meth:`Adversary.corruption_schedule` for the laws
and ``repro.adversary.check_contract`` for the conformance probe.

The theorems bound the noise as a *fraction of the actual communication* of
the executed instance, which is not known in advance.  :class:`NoiseBudget`
implements that accounting: adaptive adversaries ask it whether another
corruption would keep them within ``fraction * transmissions_so_far`` (plus
an optional absolute allowance), mirroring the "relative noise fraction" of
adaptive-length settings discussed in §2.1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.network.channel import RoundContext, Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import (
    pack_symbols,
    plane_digits,
    positions_to_int,
    set_positions,
    unpack_symbols,
)


@dataclass
class NoiseBudget:
    """Tracks how many corruptions an adversary may still inject.

    Parameters
    ----------
    fraction:
        Maximum allowed ratio ``corruptions / transmissions``.
    absolute_allowance:
        Extra corruptions allowed regardless of the fraction (useful for
        experiments that want "exactly k errors").
    """

    fraction: float = 0.0
    absolute_allowance: int = 0
    transmissions_seen: int = 0
    corruptions_spent: int = 0

    def observe_transmission(self) -> None:
        """Record that one symbol was actually transmitted."""
        self.transmissions_seen += 1

    def observe_transmissions(self, count: int) -> None:
        """Bulk path: record ``count`` transmissions in one update.

        Equivalent to ``count`` calls to :meth:`observe_transmission`.  Batch
        adversaries use it when they know no spending decision falls inside
        the observed window (e.g. the whole window is off-target), so the
        intermediate counter values are unobservable.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.transmissions_seen += count

    @staticmethod
    def allowance_at(fraction: float, transmissions_seen: int, absolute_allowance: int) -> int:
        """The :attr:`allowed` value at a hypothetical counter state.

        The single source of truth for the allowance formula: batch
        adversaries that mirror the counters in local variables for one
        window use this to make spend decisions identical to the per-slot
        path.
        """
        return int(fraction * transmissions_seen) + absolute_allowance

    @property
    def allowed(self) -> int:
        """Corruptions permitted so far (floor of fraction * transmissions + allowance)."""
        return self.allowance_at(self.fraction, self.transmissions_seen, self.absolute_allowance)

    @property
    def remaining(self) -> int:
        return max(0, self.allowed - self.corruptions_spent)

    def can_spend(self, amount: int = 1) -> bool:
        return self.corruptions_spent + amount <= self.allowed

    def spend(self, amount: int = 1) -> None:
        if not self.can_spend(amount):
            raise RuntimeError(
                f"noise budget exceeded: spent {self.corruptions_spent}, "
                f"requested {amount}, allowed {self.allowed}"
            )
        self.corruptions_spent += amount


#: The methods a native round kernel stands in for (see
#: :meth:`Adversary.__init_subclass__`).
_ROUND_KERNEL_INPUTS = ("corrupt", "corrupt_window", "corrupt_window_packed", "notify_delivery")


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    return next(klass for klass in cls.__mro__ if name in klass.__dict__)


class Adversary(abc.ABC):
    """Base class for all noise models.

    The entry points, by the transport path that calls them:

    * :meth:`corrupt` — one slot (``transmit``, the per-slot reference path);
    * :meth:`corrupt_window` — one window of symbols on one link
      (``exchange_window``);
    * :meth:`corrupt_window_packed` — one window as a ``(bits, present)``
      plane on one link (``exchange_window_packed``: meeting points);
    * :meth:`corrupt_round_packed` — one lockstep round over every directed
      link as a round frame (``exchange_round``: flag passing, simulation
      and rewind);
    * :meth:`corruption_schedule` — the pure slot-addressed schedule
      (``exchange_phase``).

    Each base implementation is built on the entry point above it, so an
    adversary that only writes :meth:`corrupt` works on every path.
    """

    #: Human-readable name used by experiment reports.
    name: str = "adversary"

    #: Whether the adversary commits to its noise before seeing the execution.
    oblivious: bool = True

    #: The slot-addressed contract flag.  ``True`` declares that this
    #: adversary's corruption decision for every channel slot is a *pure
    #: function of (absolute round, directed link, sent symbol)* — no
    #: sequential RNG streams, no budgets fed by realised communication, no
    #: cross-slot state of any kind — and that :meth:`corruption_schedule`
    #: implements exactly that function.  Under the contract the engine may
    #: legally precompute a whole phase's delivery schedule and merge the
    #: phase's rounds into one transport dispatch
    #: (:meth:`~repro.network.transport.NoisyNetwork.exchange_phase`):
    #: evaluating a slot early, twice, or grouped into a different window is
    #: guaranteed to be unobservable.  Stateful adversaries must truthfully
    #: report ``False`` and keep the lockstep round-by-round path.
    #: ``repro.adversary.check_contract`` probes the laws below.
    slot_addressed: bool = False

    #: Whether the adversary may deliver symbols on slots where the sender was
    #: silent (insertions).  This is a real, load-bearing attribute of the
    #: adversary contract (not duck typing): every adversary must set it, and
    #: transports skip consulting the adversary on silent slots when it is
    #: ``False``.  A non-inserting adversary must therefore treat a silent
    #: slot as a pure no-op — no RNG draws, no budget updates — because it is
    #: not guaranteed to see silent slots at all.
    may_insert: bool = True

    @abc.abstractmethod
    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        """Return the symbol delivered to the receiver for this slot.

        ``sent`` is the symbol the sender put on the wire (``None`` if the
        sender stayed silent).  Returning ``sent`` unchanged means "no
        corruption"; any other value is an insertion, deletion or
        substitution and will be charged by the transport's statistics.
        """

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        """Return the symbols delivered for one whole window on one link.

        ``symbols`` is the dense window the sender put on the wire (``None``
        entries are silent slots); slot ``i`` occurs in absolute round
        ``ctx.base_round + i``.  The batched transport calls this once per
        directed link instead of calling :meth:`corrupt` once per slot, and
        hands the window over as an *immutable tuple* — the sent record is
        what the transport charges corruptions against, so it cannot be
        mutated in place.  Return the delivered window as a new sequence
        (conventionally a list; the transport normalises).

        This base implementation is the per-slot compatibility fallback: it
        replays exactly what a sequence of single-slot transmissions would do
        — :meth:`corrupt` then :meth:`notify_delivery` per slot, in offset
        order, skipping silent slots when :attr:`may_insert` is ``False`` —
        so any adversary that only implements ``corrupt`` behaves
        bit-identically under both transmission paths.

        Overrides MUST preserve that bit-identity: same delivered symbols,
        same RNG stream consumption, same budget accounting as the per-slot
        path, for every input window.  (All stock adversaries ship such
        vectorized overrides; if you subclass one and change ``corrupt`` or
        ``notify_delivery``, you must override ``corrupt_window`` as well —
        e.g. restore this fallback with
        ``corrupt_window = Adversary.corrupt_window``.)
        """
        delivered: List[Symbol] = []
        append = delivered.append
        may_insert = self.may_insert
        corrupt = self.corrupt
        notify = self.notify_delivery
        slot_ctx = ctx.slot
        for offset, sent in enumerate(symbols):
            if sent is None and not may_insert:
                append(None)
                continue
            slot = slot_ctx(offset)
            received = corrupt(slot, sent)
            notify(slot, sent, received)
            append(received)
        return delivered

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        """Packed-plane variant of :meth:`corrupt_window`.

        ``(bits, present)`` follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention: slot ``i``
        carries bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set,
        and is silent otherwise; ``count`` is the window length in rounds.
        Returns the delivered window as the same kind of plane pair.

        This base implementation is the compatibility fallback: it unpacks
        the planes, runs :meth:`corrupt_window` (itself falling back to
        per-slot :meth:`corrupt` calls unless overridden) and re-packs — so
        every adversary is automatically bit-identical across the packed and
        symbol-sequence transports.  Native overrides must preserve exactly
        that equivalence: same delivered planes, same RNG stream
        consumption, same budget accounting, for every input window
        (``tests/test_adversaries.py`` pins this for all stock adversaries).
        """
        delivered = self.corrupt_window(ctx, tuple(unpack_symbols(bits, present, count)))
        return pack_symbols(delivered)

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        """Corrupt one lockstep round over every directed link in one call.

        ``(bits, present)`` is a *round frame*: bit ``j`` is the slot of link
        ``ctx.links[j]`` in round ``ctx.round_index``, with the
        :func:`~repro.utils.bitstring.pack_symbols` convention.  Returns the
        delivered frame.

        This base implementation is the per-link loop: for each link in
        ``ctx.links`` order, one width-1
        :meth:`corrupt_window_packed` call, skipping silent links when
        :attr:`may_insert` is ``False``.  Native overrides must be
        bit-identical to it: same delivered frame, same RNG stream
        consumption, same budget counters (``check_contract``'s round-frame
        law).  They must also stay linear in the frame: no per-slot shift or
        mask of a whole-frame integer.

        A native kernel is only trusted by the class that wrote it (or its
        subclasses that leave ``corrupt``, ``corrupt_window``,
        ``corrupt_window_packed`` and ``notify_delivery`` alone).  A subclass
        that overrides one of those falls back to this loop automatically;
        see :meth:`__init_subclass__`.
        """
        links = ctx.links
        count = len(links)
        kernel = self.corrupt_window_packed
        window = ctx.window
        present_digits = plane_digits(present, count)
        bit_digits = plane_digits(bits, count)
        ones: List[int] = []
        delivered: List[int] = []
        for position in range(count) if self.may_insert else set_positions(present):
            if present_digits[position] == "1":
                sent_bits, sent_present = (1 if bit_digits[position] == "1" else 0), 1
            else:
                sent_bits = sent_present = 0
            got_bits, got_present = kernel(window(position), sent_bits, sent_present, 1)
            if got_bits & ~got_present or got_present >> 1:
                raise ValueError(
                    f"adversary delivered planes ({got_bits}, {got_present}) for a "
                    f"1-round window on link {links[position]}"
                )
            if got_present:
                delivered.append(position)
                if got_bits:
                    ones.append(position)
        return positions_to_int(ones, count), positions_to_int(delivered, count)

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Demote a native round kernel the subclass may have outgrown.

        A native :meth:`corrupt_round_packed` encodes what the per-slot and
        per-window methods of the class that wrote it do.  If a subclass
        overrides one of those (or ``notify_delivery``) but inherits the
        round kernel, the kernel would silently keep the old behaviour, so
        the subclass gets the per-link base loop instead, which calls the
        overridden methods.
        """
        super().__init_subclass__(**kwargs)
        kernel_owner = _owner(cls, "corrupt_round_packed")
        if kernel_owner is Adversary:
            return
        # An MRO walk, not issubclass: ABC subclass checks are not ready
        # while the class is still being created.
        if all(_owner(cls, name) in kernel_owner.__mro__ for name in _ROUND_KERNEL_INPUTS):
            return
        cls.corrupt_round_packed = Adversary.corrupt_round_packed  # type: ignore[method-assign]

    def corruption_schedule(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        """Pure evaluation of the delivery schedule for one window on one link.

        Only available when :attr:`slot_addressed` is ``True``.  Returns the
        delivered window, like :meth:`corrupt_window`, but under much stronger
        laws — the *slot-addressed contract*:

        * **purity** — the call reads and writes no mutable state: two
          independent evaluations of the same ``(ctx, symbols)`` return the
          same schedule, and the adversary's observable state (RNG streams,
          budgets, counters) is identical before and after;
        * **slot decomposability** — slot ``i`` of a window evaluation equals
          the single-slot evaluation at the same absolute round:
          ``corruption_schedule(ctx, symbols)[i] ==
          corruption_schedule(ctx_at(base_round + i), (symbols[i],))[0]``;
        * **path agreement** — while ``slot_addressed`` holds,
          :meth:`corrupt` and :meth:`corrupt_window` delegate to (or agree
          bit for bit with) this function, so the per-slot, batched-window
          and merged-phase transmission paths all deliver the same symbols.

        These laws are what make whole-phase round merging legal: the engine
        evaluates slots the moment it knows the sent symbol (data-dependent,
        out of dispatch order) and the transport accounts the whole phase in
        one pass, with no way for the grouping to change the outcome.
        ``repro.adversary.check_contract`` probes all three laws.
        """
        if not self.slot_addressed:
            raise RuntimeError(
                f"{type(self).__name__} is not slot-addressed: corruption_schedule is only "
                "defined when slot_addressed is True"
            )
        raise NotImplementedError(
            f"{type(self).__name__} declares slot_addressed=True but does not "
            "implement corruption_schedule"
        )

    def notify_delivery(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        """Hook called after every slot; adaptive adversaries may record state."""

    def reset(self) -> None:
        """Reset mutable state so the same adversary object can be reused."""


class NoiselessAdversary(Adversary):
    """The identity channel: never corrupts anything."""

    name = "noiseless"
    oblivious = True
    may_insert = False
    slot_addressed = True  # the identity channel is trivially pure

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        return sent

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        return list(symbols)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        return bits, present

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        return bits, present

    def corruption_schedule(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        return list(symbols)
