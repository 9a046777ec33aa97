"""Adversary interface and noise-budget bookkeeping.

The paper distinguishes:

* **oblivious** adversaries — the noise pattern is fixed before the protocol
  starts, independently of the parties' randomness (the *additive* adversary
  of §2.1; the *fixing* adversary of Remark 1 lives in the test suite,
  ``tests/adversaries.py``);
* **non-oblivious** adversaries — the noise may adapt to everything observed
  on the wire (but not to private coins tossed later).

All of them implement :class:`Adversary`.  The semantic contract is
``corrupt``: what the receiver sees on one channel slot (one round, one
directed link).  The transport calls one kernel on top of it:
``corrupt_window`` takes one exchange, a window of links × rounds, as a
link-major ``(bits, present)`` plane.  The base kernel is the per-slot
``corrupt`` loop in plane order, so an adversary that only writes
``corrupt`` works everywhere.  A native kernel must be bit-identical to the
base one it replaces; ``check_contract`` in ``tests/adversaries.py`` probes
that.  Corruption accounting is done by the transport, not by the
adversary, so an adversary cannot under-report its own noise.

An adversary class may declare itself **symbol-blind**
(:attr:`Adversary.symbol_blind`): what it does to a plane depends on which
slots are present, never on the bits they carry.  Fed two planes with the
same ``present`` from the same state, it delivers the same ``present``, the
delivered bits differ exactly by the sent-bit difference on the slots that
were sent and delivered, and it ends in the same state.  The engine then
lets the two endpoints of a link that would send each other the same
meeting-points message send a placeholder instead and read the noise off
the delivered placeholder (:mod:`repro.core.meeting_points`).  Every stock
class but the additive adversary declares it.

The flag is read from the instance, so an instance may narrow its class's
declaration.  :class:`~repro.adversary.strategies.CompositeAdversary` does:
a chain obeys the law when every component does and no component after the
first may insert, since a deletion followed by an insertion fixes the
slot's symbol whatever was sent.  ``check_contract`` in
``tests/adversaries.py`` probes this law for every adversary that declares
it.

The theorems bound the noise as a *fraction of the actual communication* of
the executed instance, which is not known in advance.  :class:`NoiseBudget`
implements that accounting: adaptive adversaries ask it whether another
corruption would keep them within ``fraction * transmissions_so_far`` (plus
an optional absolute allowance), mirroring the "relative noise fraction" of
adaptive-length settings discussed in §2.1.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.network.channel import Symbol, TransmissionContext, WindowContext
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

    @staticmethod
    def next_spend(fraction: float, absolute_allowance: int, spent: int, seen: int, last: int) -> Optional[int]:
        """The least transmission count ``n`` in ``(seen, last]`` at which
        one more corruption is affordable after ``spent``, or ``None``.

        The allowance never falls as ``n`` grows (a float product is
        monotone in ``n`` for ``fraction >= 0``), so one test at ``last``
        rules a range out.  Otherwise ``ceil(need / fraction)`` seeds the
        search within a step of the answer and :meth:`allowance_at` settles
        it, so the seed's rounding cannot move a spend.
        """
        allowance_at = NoiseBudget.allowance_at
        target = spent + 1
        if seen >= last or allowance_at(fraction, last, absolute_allowance) < target:
            return None
        low = seen + 1
        need = target - absolute_allowance
        count = low if need <= 0 else min(last, max(low, math.ceil(need / fraction)))
        while count > low and allowance_at(fraction, count - 1, absolute_allowance) >= target:
            count -= 1
        while allowance_at(fraction, count, absolute_allowance) < target:
            count += 1
        return count

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

    def reset(self) -> None:
        """Forget every observed transmission and spent corruption (the limits stay)."""
        self.transmissions_seen = 0
        self.corruptions_spent = 0


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    return next(klass for klass in cls.__mro__ if name in klass.__dict__)


def corrupt_slots(
    adversary: "Adversary", ctx: WindowContext, bits: int, present: int, start: int, stop: int
) -> Tuple[int, int]:
    """The per-slot loop over plane positions ``[start, stop)``.

    :meth:`Adversary.corrupt` per slot, in position order, skipping silent
    slots when the adversary cannot insert.  Returns the planes with that
    range replaced by what was delivered; every other position passes
    through.
    """
    width = stop - start
    mask = ((1 << width) - 1) << start
    window_present = (present & mask) >> start
    present_digits = plane_digits(window_present, width)
    bit_digits = plane_digits((bits & mask) >> start, width)
    corrupt = adversary.corrupt
    slot_ctx = ctx.slot
    ones: List[int] = []
    delivered: List[int] = []
    for offset in range(width) if adversary.may_insert else set_positions(window_present):
        if present_digits[offset] == "1":
            sent: Symbol = 1 if bit_digits[offset] == "1" else 0
        else:
            sent = None
        received = corrupt(slot_ctx(start + offset), sent)
        if received not in (0, 1, None):
            raise ValueError(f"adversary produced invalid symbol {received!r}")
        if received is not None:
            delivered.append(offset)
            if received:
                ones.append(offset)
    return (
        (bits & ~mask) | (positions_to_int(ones, width) << start),
        (present & ~mask) | (positions_to_int(delivered, width) << start),
    )


class Adversary(abc.ABC):
    """Base class for all noise models.

    Two entry points: :meth:`corrupt`, one slot, the semantics every kernel
    must follow, and :meth:`corrupt_window`, one exchange of the transport
    as a plane.  The base :meth:`corrupt_window` is built on :meth:`corrupt`,
    so an adversary that only writes :meth:`corrupt` works on every
    exchange.
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

    #: Whether the adversary obeys the symbol-blind law of the module
    #: docstring.  Declared as a class attribute, never a field: it is a
    #: property of the class's :meth:`corrupt`, so a subclass that overrides
    #: :meth:`corrupt` is demoted to ``False`` unless it declares it again
    #: (:meth:`__init_subclass__`).  Readers take it from the instance,
    #: which may narrow it (a composite, by its components).
    symbol_blind: ClassVar[bool] = False

    @abc.abstractmethod
    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        """Return the symbol delivered to the receiver for this slot.

        ``sent`` is the symbol the sender put on the wire (``None`` if the
        sender stayed silent).  Returning ``sent`` unchanged means "no
        corruption"; any other value is an insertion, deletion or
        substitution and will be charged by the transport's statistics.
        """

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        """Return the delivered plane of one exchange.

        ``(bits, present)`` follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention and are
        link-major: position ``j * ctx.rounds + t`` is link ``ctx.links[j]``
        in absolute round ``ctx.base_round + t`` (``ctx.slot`` gives its
        per-slot context).  Returns the delivered plane as the same kind of
        plane pair.

        This base implementation is the per-slot loop
        (:func:`corrupt_slots` over the whole plane): :meth:`corrupt` per
        slot, in position order, skipping silent slots when
        :attr:`may_insert` is ``False``.  Native overrides must be
        bit-identical to it: same delivered plane, same RNG stream
        consumption, same budget accounting, for every input (the window
        law that ``check_contract`` in ``tests/adversaries.py`` probes).
        They must also stay linear in the plane: no per-slot shift or mask
        of a whole-plane integer.  A native kernel is only trusted by the
        class that wrote it; see :meth:`__init_subclass__`.
        """
        return corrupt_slots(self, ctx, bits, present, 0, ctx.width)

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Demote what the subclass may have outgrown.

        A native :meth:`corrupt_window` encodes what :meth:`corrupt` does in
        the class that wrote it.  If a subclass overrides :meth:`corrupt` but
        inherits the kernel, the kernel would silently keep the old
        behaviour, so the subclass gets the base loop instead, which calls
        the overridden method.  The same override drops an inherited
        :attr:`symbol_blind` declaration.
        """
        super().__init_subclass__(**kwargs)
        if "corrupt" in cls.__dict__ and "symbol_blind" not in cls.__dict__:
            cls.symbol_blind = False
        kernel_owner = _owner(cls, "corrupt_window")
        if kernel_owner is Adversary:
            return
        # An MRO walk, not issubclass: ABC subclass checks are not ready while
        # the class is still being created.
        if _owner(cls, "corrupt") not in kernel_owner.__mro__:
            cls.corrupt_window = Adversary.corrupt_window

    def reset(self) -> None:
        """Reset mutable state so the same adversary object can be reused."""


class NoiselessAdversary(Adversary):
    """The identity channel: never corrupts anything."""

    name = "noiseless"
    oblivious = True
    may_insert = False
    symbol_blind = True

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        return sent

    def corrupt_window(self, ctx: WindowContext, bits: int, present: int) -> Tuple[int, int]:
        return bits, present
