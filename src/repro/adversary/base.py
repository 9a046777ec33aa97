"""Adversary interface and noise-budget bookkeeping.

The paper distinguishes:

* **oblivious** adversaries — the noise pattern is fixed before the protocol
  starts, independently of the parties' randomness (the *additive* adversary
  of §2.1 and the *fixing* adversary of Remark 1);
* **non-oblivious** adversaries — the noise may adapt to everything observed
  on the wire (but not to private coins tossed later).

All of them implement :class:`Adversary`.  The semantic contract is
``corrupt``: what the receiver sees on one channel slot (one round, one
directed link), followed by ``notify_delivery``.  The transport calls two
kernels on top of it: ``corrupt_window_packed`` takes one link's window as a
``(bits, present)`` plane, and ``corrupt_round_packed`` takes one lockstep
round over every directed link as a round frame.  The base window kernel is
the per-slot ``corrupt`` + ``notify_delivery`` loop and the base round
kernel is the per-link loop of width-1 window kernels, so an adversary that
only writes ``corrupt`` works everywhere.  A native kernel must be
bit-identical to the base one it replaces; ``repro.adversary.check_contract``
probes that.  Corruption accounting is done by the transport, not by the
adversary, so an adversary cannot under-report its own noise.

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
from typing import List, Tuple

from repro.network.channel import RoundContext, Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import plane_digits, positions_to_int, set_positions


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


#: The per-slot methods a native window kernel stands in for, and the
#: methods a native round kernel stands in for (see
#: :meth:`Adversary.__init_subclass__`).
_WINDOW_KERNEL_INPUTS = ("corrupt", "notify_delivery")
_ROUND_KERNEL_INPUTS = _WINDOW_KERNEL_INPUTS + ("corrupt_window_packed",)


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    return next(klass for klass in cls.__mro__ if name in klass.__dict__)


def _demote_stale_kernel(cls: type, kernel: str, inputs: Tuple[str, ...]) -> None:
    """Restore :class:`Adversary`'s ``kernel`` on ``cls`` when ``cls``
    overrides one of ``inputs`` below the class that wrote the kernel."""
    kernel_owner = _owner(cls, kernel)
    if kernel_owner is Adversary:
        return
    # An MRO walk, not issubclass: ABC subclass checks are not ready while
    # the class is still being created.
    if all(_owner(cls, name) in kernel_owner.__mro__ for name in inputs):
        return
    setattr(cls, kernel, getattr(Adversary, kernel))


class Adversary(abc.ABC):
    """Base class for all noise models.

    The entry points:

    * :meth:`corrupt` — one slot, the semantics every kernel must follow;
    * :meth:`corrupt_window_packed` — one window as a ``(bits, present)``
      plane on one link (``exchange_window_packed``: meeting points, the
      randomness exchange and the repetition baseline);
    * :meth:`corrupt_round_packed` — one lockstep round over every directed
      link as a round frame (``exchange_round``: flag passing, simulation,
      rewind and the uncoded baseline).

    Each base kernel is built on the entry point above it, so an adversary
    that only writes :meth:`corrupt` works on every path.
    """

    #: Human-readable name used by experiment reports.
    name: str = "adversary"

    #: Whether the adversary commits to its noise before seeing the execution.
    oblivious: bool = True

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

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        """Return the delivered planes of one whole window on one link.

        ``(bits, present)`` follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention: slot ``i``
        carries bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set,
        and is silent otherwise; ``count`` is the window length in rounds and
        slot ``i`` occurs in absolute round ``ctx.base_round + i``.  Returns
        the delivered window as the same kind of plane pair.

        This base implementation is the per-slot fallback: :meth:`corrupt`
        then :meth:`notify_delivery` per slot, in offset order, skipping
        silent slots when :attr:`may_insert` is ``False``.  Native overrides
        must be bit-identical to it: same delivered planes, same RNG stream
        consumption, same budget accounting, for every input window
        (``check_contract``'s packed law).  A native kernel is only trusted
        by the class that wrote it; see :meth:`__init_subclass__`.
        """
        present_digits = plane_digits(present, count)
        bit_digits = plane_digits(bits, count)
        corrupt = self.corrupt
        notify = self.notify_delivery
        slot_ctx = ctx.slot
        ones: List[int] = []
        delivered: List[int] = []
        for offset in range(count) if self.may_insert else set_positions(present):
            if present_digits[offset] == "1":
                sent: Symbol = 1 if bit_digits[offset] == "1" else 0
            else:
                sent = None
            slot = slot_ctx(offset)
            received = corrupt(slot, sent)
            if received not in (0, 1, None):
                raise ValueError(f"adversary produced invalid symbol {received!r}")
            notify(slot, sent, received)
            if received is not None:
                delivered.append(offset)
                if received:
                    ones.append(offset)
        return positions_to_int(ones, count), positions_to_int(delivered, count)

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
        subclasses that leave ``corrupt``, ``corrupt_window_packed`` and
        ``notify_delivery`` alone).  A subclass that overrides one of those
        falls back to this loop automatically; see :meth:`__init_subclass__`.
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
        """Demote native kernels the subclass may have outgrown.

        A native kernel encodes what the methods below it do in the class
        that wrote it: :meth:`corrupt` and :meth:`notify_delivery` for the
        window kernel, those plus the window kernel for the round kernel.  If
        a subclass overrides one of those but inherits the kernel, the kernel
        would silently keep the old behaviour, so the subclass gets the base
        loop instead, which calls the overridden methods.  The window kernel
        is checked first, so a demoted window kernel demotes the round
        kernel too.
        """
        super().__init_subclass__(**kwargs)
        _demote_stale_kernel(cls, "corrupt_window_packed", _WINDOW_KERNEL_INPUTS)
        _demote_stale_kernel(cls, "corrupt_round_packed", _ROUND_KERNEL_INPUTS)

    def notify_delivery(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        """Hook called after every slot; adaptive adversaries may record state."""

    def reset(self) -> None:
        """Reset mutable state so the same adversary object can be reused."""


class NoiselessAdversary(Adversary):
    """The identity channel: never corrupts anything."""

    name = "noiseless"
    oblivious = True
    may_insert = False

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        return sent

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        return bits, present

    def corrupt_round_packed(self, ctx: RoundContext, bits: int, present: int) -> Tuple[int, int]:
        return bits, present
