"""Conformance checking for the adversary contract.

One law ties an adversary's native kernel to its per-slot semantics: the
**window law**.  ``corrupt_window`` must deliver the same plane (and leave
the same state: RNG stream consumption, budget accounting) as the base
per-slot loop, ``corrupt`` then ``notify_delivery`` per slot in plane order.
The kernel is only legal because the corruption mask it applies is the one
per-slot delivery would have produced.

:func:`check_contract` probes the law on deterministic fuzz windows of
several widths (one round, as in a lockstep round, and wider, as in the
meeting-points exchange), ending with one 56-link × 32-round plane, the
shape of a meeting-points window on the 8-clique.  It raises
:class:`ContractViolation` on the first break.  It is exported as
``repro.adversary.check_contract`` so third-party adversaries get the same
tool the stock ones are tested with (``tests/test_adversaries.py`` applies it
to every stock adversary).

The probe is behavioural, not static: it deep-copies the adversary (so a
stateful adversary's streams/budgets cannot leak into the subject), replays
the same window sequence through both paths, and compares delivered planes
*and* a structural snapshot of all mutable state after every window.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.network.channel import WindowContext
from repro.network.topologies import complete_topology
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

#: The production-sized probe: a meeting-points window on the 8-clique
#: (56 directed links × 4τ = 32 rounds at τ = 8).
_CLIQUE_LINKS = complete_topology(8).directed_edges()
_CLIQUE_ROUNDS = 32

LAW = "window"


class ContractViolation(AssertionError):
    """An adversary broke the contract law."""

    def __init__(self, law: str, message: str) -> None:
        super().__init__(f"[{law}] {message}")
        self.law = law


@dataclass(frozen=True)
class ContractReport:
    """What :func:`check_contract` verified for one adversary."""

    adversary: str
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


def _probe_plane(
    rng: random.Random, links: Sequence[Tuple[int, int]], rounds: int, kind: int
) -> Tuple[int, int]:
    """All silence (kind 0), all traffic (kind 1) or a random mix."""
    width = len(links) * rounds
    if kind == 0:
        present = 0
    elif kind == 1:
        present = (1 << width) - 1
    else:
        present = rng.getrandbits(width)
    return rng.getrandbits(width) & present, present


def _probe_windows(
    links: Sequence[Tuple[int, int]],
    phases: Sequence[str],
    window_rounds: int,
    windows: int,
    seed: int,
) -> List[Tuple[WindowContext, int, int]]:
    """Deterministic fuzz windows over ``links``, alternating ``window_rounds``
    wide and one round wide, at base rounds ``index * window_rounds``; then
    one 8-clique meeting-points-sized plane."""
    rng = make_rng(seed)
    index = {link: position for position, link in enumerate(links)}
    probes: List[Tuple[WindowContext, int, int]] = []
    for number in range(windows):
        rounds = window_rounds if number % 2 == 0 else 1
        ctx = WindowContext(
            links, index, rounds, phases[number % len(phases)],
            iteration=number % 3, base_round=number * window_rounds,
        )
        probes.append((ctx, *_probe_plane(rng, links, rounds, number)))
    clique_index = {link: position for position, link in enumerate(_CLIQUE_LINKS)}
    ctx = WindowContext(_CLIQUE_LINKS, clique_index, _CLIQUE_ROUNDS, phases[0], iteration=0, base_round=0)
    probes.append((ctx, *_probe_plane(rng, _CLIQUE_LINKS, _CLIQUE_ROUNDS, 2)))
    return probes


def _check_window_law(adv: Adversary, probes: Sequence[Tuple[WindowContext, int, int]]) -> None:
    """corrupt_window must equal the per-slot loop: same delivered plane,
    same state afterwards."""
    native = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    native.reset()
    reference.reset()
    name = type(adv).__name__
    for ctx, bits, present in probes:
        got = native.corrupt_window(ctx, bits, present)
        expected = Adversary.corrupt_window(reference, ctx, bits, present)
        if got != expected:
            raise ContractViolation(
                LAW,
                f"{name}.corrupt_window delivers {got!r} on {ctx!r} with plane "
                f"{(bits, present)!r} but the per-slot loop delivers {expected!r}",
            )
        if _state_snapshot(native) != _state_snapshot(reference):
            raise ContractViolation(
                LAW,
                f"{name}.corrupt_window left different state than the per-slot "
                f"loop after {ctx!r} (RNG streams or budget counters diverged)",
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
    """Probe ``adv`` against the window law.

    ``windows`` probe windows over ``links`` alternate between
    ``window_rounds`` rounds and one round; they are deterministic in
    ``seed`` and span absolute rounds ``[0, windows * window_rounds)`` —
    configure adversaries whose behaviour is round- or link-keyed (bursts,
    patterns, targets) to overlap that region and the default ``links`` so
    the interesting branches are exercised.  A last probe is one 8-clique
    meeting-points plane (56 links × 32 rounds from round 0).

    Returns a :class:`ContractReport`; raises :class:`ContractViolation` on
    the first break.  The adversary object is never mutated (all probes run
    on deep copies).
    """
    probe_links = tuple(links) if links is not None else _DEFAULT_LINKS
    probe_phases = tuple(phases) if phases is not None else _DEFAULT_PHASES
    probes = _probe_windows(probe_links, probe_phases, window_rounds, windows, seed)
    _check_window_law(adv, probes)
    return ContractReport(adversary=adv.name, windows_probed=len(probes), laws=(LAW,))
