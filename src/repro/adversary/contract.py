"""Conformance checking for the adversary contracts.

These guarantees hold the transport's transmission paths together:

* every adversary's ``corrupt_window`` must be **bit-identical** to the
  per-slot fallback (same delivered symbols, same RNG stream consumption,
  same budget accounting), which is what makes the batched fast path legal;
* every adversary's ``corrupt_window_packed`` must deliver the same planes
  (and leave the same state) as packing the ``corrupt_window`` output — the
  packed transport path is only legal because the corruption mask it applies
  is the one the symbol-sequence path would have produced;
* every adversary's ``corrupt_round_packed`` must deliver the same round
  frame (and leave the same state) as the per-link loop of width-1
  ``corrupt_window_packed`` calls in link order — the **round-frame law**,
  which is what makes one adversary call per lockstep round legal;
* a :attr:`~repro.adversary.base.Adversary.slot_addressed` adversary must
  additionally satisfy the slot-addressed laws — purity, slot
  decomposability, path agreement (see
  :meth:`~repro.adversary.base.Adversary.corruption_schedule`) — which is
  what makes whole-phase round merging legal.

:func:`check_contract` probes every law on deterministic fuzz windows and
raises :class:`ContractViolation` on the first broken law.  It is exported as
``repro.adversary.check_contract`` so third-party adversaries get the same
tool the stock ones are tested with (``tests/test_adversaries.py`` applies it
to every stock adversary).

The probe is behavioural, not static: it deep-copies the adversary per pass
(so a stateful adversary's streams/budgets cannot leak between passes),
replays the same window sequence through both paths, and compares delivered
symbols *and* a structural snapshot of all mutable state after every window.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.network.channel import RoundContext, Symbol, WindowContext
from repro.utils.bitstring import pack_symbols
from repro.utils.rng import make_rng

#: Default directed links the probe windows run over.  They intentionally
#: include both directions of one edge (echo/spoofing adversaries key on
#: that) and a third unrelated link (targeted adversaries must pass it
#: through untouched).
_DEFAULT_LINKS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (1, 2), (2, 1))

_DEFAULT_PHASES: Tuple[str, ...] = (
    "meeting_points",
    "flag_passing",
    "simulation",
    "rewind",
)


class ContractViolation(AssertionError):
    """An adversary broke one of the contract laws it declared."""

    def __init__(self, law: str, message: str) -> None:
        super().__init__(f"[{law}] {message}")
        self.law = law


@dataclass(frozen=True)
class ContractReport:
    """What :func:`check_contract` verified for one adversary."""

    adversary: str
    slot_addressed: bool
    windows_probed: int
    laws: Tuple[str, ...]


def _state_snapshot(value: object) -> object:
    """A comparable structural snapshot of an adversary's mutable state.

    Recurses through instance attributes; RNG streams collapse to
    ``getstate()`` and budgets to their counter tuple, so two snapshots are
    equal exactly when the two objects would behave identically from here on.
    """
    if isinstance(value, random.Random):
        return ("rng", value.getstate())
    if isinstance(value, NoiseBudget):
        return (
            "budget",
            value.fraction,
            value.absolute_allowance,
            value.transmissions_seen,
            value.corruptions_spent,
        )
    if isinstance(value, Adversary):
        return (
            type(value).__name__,
            tuple(
                (name, _state_snapshot(attr))
                for name, attr in sorted(vars(value).items(), key=lambda item: item[0])
            ),
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (key, _state_snapshot(item))
                for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return ("seq", tuple(_state_snapshot(item) for item in items))
    return value


def _probe_windows(
    links: Sequence[Tuple[int, int]],
    phases: Sequence[str],
    window_rounds: int,
    windows: int,
    seed: int,
) -> List[Tuple[WindowContext, Tuple[Symbol, ...]]]:
    """Deterministic fuzz windows: mixed symbols/silence over growing rounds."""
    rng = make_rng(seed)
    probes: List[Tuple[WindowContext, Tuple[Symbol, ...]]] = []
    for index in range(windows):
        link = links[index % len(links)]
        phase = phases[index % len(phases)]
        base_round = index * window_rounds
        if index == 0:
            symbols: Tuple[Symbol, ...] = (None,) * window_rounds  # all silence
        elif index == 1:
            symbols = tuple(rng.choice((0, 1)) for _ in range(window_rounds))  # all traffic
        else:
            symbols = tuple(rng.choice((0, 1, None)) for _ in range(window_rounds))
        ctx = WindowContext(link=link, phase=phase, iteration=index % 3, base_round=base_round)
        probes.append((ctx, symbols))
    return probes


def _check_batched_equivalence(
    adv: Adversary,
    probes: Sequence[Tuple[WindowContext, Tuple[Symbol, ...]]],
) -> None:
    """corrupt_window must replay the per-slot fallback bit for bit."""
    batched = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    batched.reset()
    reference.reset()
    for ctx, symbols in probes:
        got = list(batched.corrupt_window(ctx, symbols))
        expected = Adversary.corrupt_window(reference, ctx, symbols)
        if got != expected:
            raise ContractViolation(
                "batched-equivalence",
                f"{type(adv).__name__}.corrupt_window diverges from the per-slot "
                f"fallback on {ctx!r}: {got!r} != {expected!r}",
            )
        if _state_snapshot(batched) != _state_snapshot(reference):
            raise ContractViolation(
                "batched-equivalence",
                f"{type(adv).__name__}.corrupt_window left different state than the "
                f"per-slot fallback after {ctx!r} (RNG streams or budget counters "
                "diverged)",
            )


def _check_packed_equivalence(
    adv: Adversary,
    probes: Sequence[Tuple[WindowContext, Tuple[Symbol, ...]]],
) -> None:
    """corrupt_window_packed must apply the same corruption mask as
    corrupt_window: same delivered planes, same state afterwards."""
    packed = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    packed.reset()
    reference.reset()
    for ctx, symbols in probes:
        bits, present = pack_symbols(symbols)
        got = packed.corrupt_window_packed(ctx, bits, present, len(symbols))
        expected_symbols = reference.corrupt_window(ctx, symbols)
        expected = pack_symbols(expected_symbols)
        if got != expected:
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed delivers planes "
                f"{got!r} on {ctx!r} but corrupt_window delivers "
                f"{expected_symbols!r} (= planes {expected!r})",
            )
        delivered_bits, delivered_present = got
        if delivered_bits & ~delivered_present:
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed broke the plane "
                f"invariant on {ctx!r}: bits {delivered_bits:#x} outside the "
                f"present mask {delivered_present:#x}",
            )
        if _state_snapshot(packed) != _state_snapshot(reference):
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed left different state "
                f"than corrupt_window after {ctx!r} (RNG streams or budget "
                "counters diverged)",
            )


def _probe_frames(
    links: Sequence[Tuple[int, int]],
    phases: Sequence[str],
    frames: int,
    round_span: int,
    seed: int,
) -> List[Tuple[RoundContext, int, int]]:
    """Deterministic fuzz round frames over ``links``: all silence, all
    traffic, then random mixes, at rounds spread over ``[0, round_span)``."""
    rng = make_rng(seed)
    count = len(links)
    full = (1 << count) - 1
    probes: List[Tuple[RoundContext, int, int]] = []
    for index in range(frames):
        if index == 0:
            present = 0
        elif index == 1:
            present = full
        else:
            present = rng.getrandbits(count)
        bits = rng.getrandbits(count) & present
        ctx = RoundContext(
            tuple(links),
            phases[index % len(phases)],
            iteration=index % 3,
            round_index=index * round_span // frames,
        )
        probes.append((ctx, bits, present))
    return probes


def _check_round_equivalence(
    adv: Adversary,
    probes: Sequence[Tuple[RoundContext, int, int]],
) -> None:
    """corrupt_round_packed must equal the per-link corrupt_window_packed loop:
    same delivered frame, same state afterwards."""
    native = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    native.reset()
    reference.reset()
    for ctx, bits, present in probes:
        got = native.corrupt_round_packed(ctx, bits, present)
        expected = Adversary.corrupt_round_packed(reference, ctx, bits, present)
        if got != expected:
            raise ContractViolation(
                "round-frame",
                f"{type(adv).__name__}.corrupt_round_packed delivers {got!r} on "
                f"{ctx!r} with frame {(bits, present)!r} but the per-link loop "
                f"delivers {expected!r}",
            )
        if _state_snapshot(native) != _state_snapshot(reference):
            raise ContractViolation(
                "round-frame",
                f"{type(adv).__name__}.corrupt_round_packed left different state "
                f"than the per-link loop after {ctx!r} (RNG streams or budget "
                "counters diverged)",
            )


def _check_slot_addressed(
    adv: Adversary,
    probes: Sequence[Tuple[WindowContext, Tuple[Symbol, ...]]],
) -> None:
    """Purity, slot decomposability and path agreement of corruption_schedule."""
    subject = copy.deepcopy(adv)
    subject.reset()
    independent = copy.deepcopy(subject)
    for ctx, symbols in probes:
        before = _state_snapshot(subject)
        first = list(subject.corruption_schedule(ctx, symbols))
        second = list(subject.corruption_schedule(ctx, symbols))
        if first != second:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule is not deterministic on "
                f"{ctx!r}: {first!r} then {second!r}",
            )
        if _state_snapshot(subject) != before:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule mutated state on {ctx!r} "
                "(a slot-addressed adversary must not touch RNG streams, budgets or "
                "any other mutable state)",
            )
        # An independent probe object (never having seen the other windows)
        # must produce the same schedule: no hidden cross-window coupling.
        if list(independent.corruption_schedule(ctx, symbols)) != first:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule on {ctx!r} differs "
                "between two independently constructed probes",
            )
        slot_contexts = [
            WindowContext(
                link=ctx.link,
                phase=ctx.phase,
                iteration=ctx.iteration,
                base_round=ctx.base_round + offset,
            )
            for offset in range(len(symbols))
        ]
        for offset, symbol in enumerate(symbols):
            slot_ctx = slot_contexts[offset]
            single = subject.corruption_schedule(slot_ctx, (symbol,))
            if single[0] != first[offset]:
                raise ContractViolation(
                    "slot-decomposability",
                    f"{type(adv).__name__}: slot {offset} of the window schedule on "
                    f"{ctx!r} is {first[offset]!r} but the single-slot evaluation at "
                    f"round {slot_ctx.base_round} gives {single[0]!r}",
                )
        for offset, symbol in enumerate(symbols):
            if not adv.may_insert and symbol is None:
                continue  # the per-slot transport never consults corrupt here
            slot_ctx = slot_contexts[offset]
            direct = subject.corrupt(slot_ctx.slot(0), symbol)
            if direct != first[offset]:
                raise ContractViolation(
                    "path-agreement",
                    f"{type(adv).__name__}.corrupt at round {slot_ctx.base_round} "
                    f"on {ctx.link} delivers {direct!r} but corruption_schedule "
                    f"delivers {first[offset]!r}",
                )
        window_path = list(subject.corrupt_window(ctx, symbols))
        if window_path != first:
            raise ContractViolation(
                "path-agreement",
                f"{type(adv).__name__}.corrupt_window on {ctx!r} delivers "
                f"{window_path!r} but corruption_schedule delivers {first!r}",
            )


def check_contract(
    adv: Adversary,
    *,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    phases: Optional[Sequence[str]] = None,
    window_rounds: int = 12,
    windows: int = 8,
    seed: int = 2024,
) -> ContractReport:
    """Probe ``adv`` against every contract it declares.

    Always checks batched-vs-per-slot equivalence, packed-vs-batched
    equivalence (``corrupt_window_packed`` delivering the same corruption
    mask, plane invariant included) and the round-frame law
    (``corrupt_round_packed`` against the per-link loop, on ``2 * windows``
    random frames over ``links``).  When
    ``adv.slot_addressed`` is ``True``, additionally probes the slot-addressed
    laws (purity, slot decomposability, path agreement); when ``False``,
    verifies that :meth:`~repro.adversary.base.Adversary.corruption_schedule`
    refuses to run.  The probe windows are deterministic in ``seed`` and span
    absolute rounds ``[0, windows * window_rounds)`` — configure adversaries
    whose behaviour is round- or link-keyed (bursts, patterns, targets) to
    overlap that region and the default ``links`` so the interesting branches
    are exercised.

    Returns a :class:`ContractReport`; raises :class:`ContractViolation` on
    the first broken law.  The adversary object is never mutated (all probes
    run on deep copies).
    """
    probe_links = tuple(links) if links is not None else _DEFAULT_LINKS
    probe_phases = tuple(phases) if phases is not None else _DEFAULT_PHASES
    probes = _probe_windows(probe_links, probe_phases, window_rounds, windows, seed)
    laws: List[str] = ["batched-equivalence", "packed-equivalence", "round-frame"]
    _check_batched_equivalence(adv, probes)
    _check_packed_equivalence(adv, probes)
    _check_round_equivalence(
        adv, _probe_frames(probe_links, probe_phases, 2 * windows, windows * window_rounds, seed)
    )
    if adv.slot_addressed:
        _check_slot_addressed(adv, probes)
        laws += ["purity", "slot-decomposability", "path-agreement"]
    else:
        ctx, symbols = probes[0]
        try:
            copy.deepcopy(adv).corruption_schedule(ctx, symbols)
        except RuntimeError:
            pass
        else:
            raise ContractViolation(
                "truthful-flag",
                f"{type(adv).__name__} reports slot_addressed=False but "
                "corruption_schedule did not refuse to run",
            )
        laws.append("truthful-flag")
    return ContractReport(
        adversary=adv.name,
        slot_addressed=adv.slot_addressed,
        windows_probed=len(probes),
        laws=tuple(laws),
    )
