"""Unit tests for the adversary implementations."""

from __future__ import annotations

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from adversaries import (
    BurstAdversary,
    ContractViolation,
    DeletionAdversary,
    EchoSpoofingAdversary,
    FixingObliviousAdversary,
    RotatingLinkAdaptiveAdversary,
    _state_snapshot,
    check_contract,
)
from oracle import link_major_plane

from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary, corrupt_slots
from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.adversary.strategies import (
    CompositeAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)
from repro.experiments.factories import LinkTargetedFactory
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.network.topologies import line_topology, random_connected_topology
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import pack_symbols, unpack_symbols


def _ctx(round_index=0, sender=0, receiver=1, phase="simulation", iteration=0):
    return TransmissionContext(
        round_index=round_index, sender=sender, receiver=receiver, phase=phase, iteration=iteration
    )


def _links_ctx(links, rounds, phase="simulation", iteration=0, base_round=0):
    """A window context over ``links`` (link-major planes of ``rounds`` rounds)."""
    links = tuple(links)
    index = {link: position for position, link in enumerate(links)}
    return WindowContext(links, index, rounds, phase, iteration, base_round)


def _window_ctx(rounds, link=(0, 1), phase="simulation", iteration=0, base_round=0):
    """A window context over the single link ``link``."""
    return _links_ctx((link,), rounds, phase, iteration, base_round)


class TestNoiseBudget:
    def test_allowance_grows_with_transmissions(self):
        budget = NoiseBudget(fraction=0.1)
        assert not budget.can_spend()
        for _ in range(10):
            budget.observe_transmission()
        assert budget.allowed == 1
        budget.spend()
        assert not budget.can_spend()
        assert budget.remaining == 0

    def test_absolute_allowance(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=2)
        budget.spend()
        budget.spend()
        with pytest.raises(RuntimeError):
            budget.spend()

    def test_bulk_observe_matches_repeated_single_observes(self):
        bulk = NoiseBudget(fraction=0.1)
        single = NoiseBudget(fraction=0.1)
        bulk.observe_transmissions(37)
        for _ in range(37):
            single.observe_transmission()
        assert bulk == single
        assert bulk.allowed == single.allowed

    def test_bulk_observe_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            NoiseBudget(fraction=0.1).observe_transmissions(-1)

    def test_bulk_spend(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=5)
        budget.spend(3)
        assert budget.remaining == 2
        with pytest.raises(RuntimeError):
            budget.spend(3)


class TestNoiseless:
    def test_identity(self):
        adversary = NoiselessAdversary()
        assert adversary.corrupt(_ctx(), 1) == 1
        assert adversary.corrupt(_ctx(), None) is None
        assert adversary.may_insert is False


class TestAdditiveOblivious:
    def test_pattern_applies_only_on_listed_slots(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1})
        assert adversary.corrupt(_ctx(round_index=0), 0) == 1
        assert adversary.corrupt(_ctx(round_index=1), 0) == 0

    def test_pattern_can_delete_and_insert(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1, (1, 0, 1): 2})
        assert adversary.corrupt(_ctx(round_index=1), 0) is None  # 0 + 2 = 2 -> silence
        assert adversary.corrupt(_ctx(round_index=0), None) == 0  # silence + 1 -> 0

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            AdditiveObliviousAdversary(pattern={(0, 0, 1): 0})


class TestFixingOblivious:
    def test_fixes_output(self):
        adversary = FixingObliviousAdversary(pattern={(0, 0, 1): 1, (1, 0, 1): None})
        assert adversary.corrupt(_ctx(round_index=0), 0) == 1
        assert adversary.corrupt(_ctx(round_index=1), 1) is None
        assert adversary.corrupt(_ctx(round_index=2), 0) == 0

    def test_fixing_to_honest_value_is_not_a_corruption(self):
        adversary = FixingObliviousAdversary(pattern={(0, 0, 1): 1})
        assert adversary.corrupt(_ctx(round_index=0), 1) == 1


class TestRandomNoise:
    def test_zero_probability_never_corrupts(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.0, seed=1)
        assert all(adversary.corrupt(_ctx(round_index=i), 1) == 1 for i in range(50))

    def test_full_probability_always_corrupts(self):
        adversary = RandomNoiseAdversary(corruption_probability=1.0, seed=1)
        assert all(adversary.corrupt(_ctx(round_index=i), 1) != 1 for i in range(50))

    def test_reset_restores_stream(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=3)
        first = [adversary.corrupt(_ctx(round_index=i), 1) for i in range(20)]
        adversary.reset()
        second = [adversary.corrupt(_ctx(round_index=i), 1) for i in range(20)]
        assert first == second

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            RandomNoiseAdversary(corruption_probability=1.5)


class TestLinkTargeted:
    def test_only_target_link_is_hit(self):
        adversary = LinkTargetedAdversary(target=(0, 1), max_corruptions=100, seed=0)
        assert adversary.corrupt(_ctx(sender=1, receiver=0), 1) == 1
        assert adversary.corrupt(_ctx(sender=0, receiver=1), 1) != 1

    def test_phase_restriction(self):
        adversary = LinkTargetedAdversary(target=(0, 1), phases=("simulation",), max_corruptions=10, seed=0)
        assert adversary.corrupt(_ctx(phase="meeting_points"), 1) == 1
        assert adversary.corrupt(_ctx(phase="simulation"), 1) != 1

    def test_max_corruptions_cap_survives_reset(self):
        adversary = LinkTargetedAdversary(target=(0, 1), max_corruptions=1, seed=0)
        adversary.reset()
        hits = sum(1 for i in range(10) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert hits == 1

    def test_fraction_budget(self):
        adversary = LinkTargetedAdversary(target=(0, 1), fraction=0.5, seed=0)
        hits = sum(1 for i in range(20) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert 8 <= hits <= 10  # roughly half of the observed transmissions

    @pytest.mark.parametrize("fraction_budget", [False, True])
    def test_list_target_attacks_like_the_tuple_target(self, fraction_budget):
        """A list target used to compare unequal to every link, so it never fired."""
        limits = {"fraction": 0.5} if fraction_budget else {"max_corruptions": 50}

        def build(target):
            return LinkTargetedAdversary(target=target, seed=3, **limits)

        listed, paired = build([0, 1]), build((0, 1))
        assert listed.target == (0, 1)
        bits, present = 0b10011001, 0b11111011
        links = ((0, 1), (1, 0), (1, 2), (2, 1))
        delivered = {}
        for adversary in (listed, paired):
            delivered[id(adversary)] = [
                [adversary.corrupt(_ctx(round_index=r), 1) for r in range(8)],
                adversary.corrupt_window(_window_ctx(5, base_round=10), 0b11001, 0b11011),
                adversary.corrupt_window(_window_ctx(8, base_round=20), bits, present),
                [
                    adversary.corrupt_window(_links_ctx(links, 1, base_round=30 + r), 0b0111, 0b1111)
                    for r in range(8)
                ],
                adversary.corrupt_window(_links_ctx(links, 3, base_round=40), 0b11 << 3, 0b111 << 3),
            ]
        assert delivered[id(listed)] == delivered[id(paired)]
        assert delivered[id(listed)][0] != [1] * 8  # the attack really fires
        assert _state_snapshot(listed) == _state_snapshot(paired)

    @pytest.mark.parametrize("target", [(0, 1, 2), (0,), "01", 5, (0, "1"), None])
    def test_rejects_targets_that_are_not_links(self, target):
        with pytest.raises(ValueError, match="directed link"):
            LinkTargetedAdversary(target=target, max_corruptions=1)


#: Values that can never compare equal to a transport link ``(sender, receiver)``.
_NOT_LINKS = [(0, 1, 2), (0,), "01", 5, (0, "1"), None]


class TestLinkNormalisation:
    """Every adversary keyed on a link rejects values that are not links
    (they would silently never attack) and accepts lists as tuples."""

    @pytest.mark.parametrize("target", _NOT_LINKS)
    def test_echo_rejects_targets_that_are_not_links(self, target):
        with pytest.raises(ValueError, match="directed link"):
            EchoSpoofingAdversary(target=target, fraction=0.5)

    @pytest.mark.parametrize("link", _NOT_LINKS)
    def test_rotating_rejects_links_that_are_not_links(self, link):
        with pytest.raises(ValueError, match="directed link"):
            RotatingLinkAdaptiveAdversary(links=[(1, 0), link], fraction=0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda link: EchoSpoofingAdversary(target=link, fraction=0.5, seed=3),
            lambda link: RotatingLinkAdaptiveAdversary(links=[link, (1, 0)], fraction=0.5, seed=3),
        ],
        ids=["echo-spoofing", "rotating-link"],
    )
    def test_list_links_attack_like_tuple_links(self, build):
        listed, paired = build([0, 1]), build((0, 1))
        links = ((0, 1), (1, 0), (1, 2), (2, 1))
        delivered = {}
        for adversary in (listed, paired):
            delivered[id(adversary)] = [
                adversary.corrupt_window(_links_ctx(links, 4, base_round=4 * step), 0b1010 * 0x1111, 0x0FFF)
                for step in range(6)
            ]
        assert delivered[id(listed)] == delivered[id(paired)]
        assert any(got != (0b1010 * 0x1111 & 0x0FFF, 0x0FFF) for got in delivered[id(listed)])
        assert _state_snapshot(listed) == _state_snapshot(paired)


class TestBurst:
    def test_burst_window(self):
        adversary = BurstAdversary(start_round=5, end_round=7, max_corruptions=10, seed=0)
        assert adversary.corrupt(_ctx(round_index=4), 1) == 1
        assert adversary.corrupt(_ctx(round_index=5), 1) != 1
        assert adversary.corrupt(_ctx(round_index=8), 1) == 1

    def test_burst_cap(self):
        adversary = BurstAdversary(start_round=0, end_round=100, max_corruptions=2, seed=0)
        hits = sum(1 for i in range(50) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert hits == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BurstAdversary(start_round=5, end_round=1)

    def test_max_corruptions_must_be_an_int(self):
        with pytest.raises(TypeError, match="max_corruptions must be an int"):
            BurstAdversary(start_round=0, end_round=9, max_corruptions=None)


class TestDeletion:
    def test_only_deletes(self):
        adversary = DeletionAdversary(deletion_probability=1.0, seed=0)
        assert adversary.corrupt(_ctx(), 1) is None
        assert adversary.corrupt(_ctx(), None) is None


class TestAdaptive:
    def test_phase_targeted_respects_budget(self):
        adversary = PhaseTargetedAdaptiveAdversary(fraction=0.1, phases=("simulation",), seed=0)
        hits = 0
        for i in range(100):
            if adversary.corrupt(_ctx(round_index=i, phase="simulation"), 1) != 1:
                hits += 1
        assert 8 <= hits <= 11
        assert adversary.oblivious is False

    def test_rotating_link_requires_links(self):
        with pytest.raises(ValueError):
            RotatingLinkAdaptiveAdversary(links=(), fraction=0.1)

    def test_rotating_link_moves_across_links(self):
        adversary = RotatingLinkAdaptiveAdversary(links=((0, 1), (1, 0)), fraction=1.0, seed=0)
        corrupted_links = set()
        for i in range(40):
            sender, receiver = (0, 1) if i % 2 == 0 else (1, 0)
            result = adversary.corrupt(_ctx(round_index=i, sender=sender, receiver=receiver), 1)
            if result != 1:
                corrupted_links.add((sender, receiver))
        assert corrupted_links == {(0, 1), (1, 0)}

    def test_echo_spoofing_spends_in_pairs(self):
        adversary = EchoSpoofingAdversary(target=(0, 1), fraction=0.5, seed=0)
        # Build up budget by letting it observe unrelated traffic first.
        for i in range(10):
            assert adversary.corrupt(_ctx(round_index=i, sender=2, receiver=3), 1) == 1
        deleted = adversary.corrupt(_ctx(sender=0, receiver=1), 1)
        assert deleted is None
        spoofed = adversary.corrupt(_ctx(sender=1, receiver=0), None)
        assert spoofed in (0, 1)


class TestComposite:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            CompositeAdversary(components=())

    def test_applies_all_components(self):
        composite = CompositeAdversary(
            components=(
                DeletionAdversary(deletion_probability=0.0, seed=0),
                LinkTargetedAdversary(target=(0, 1), max_corruptions=100, seed=0),
            )
        )
        assert composite.corrupt(_ctx(sender=0, receiver=1), 1) != 1
        assert composite.oblivious is True

    def test_obliviousness_propagates(self):
        composite = CompositeAdversary(
            components=(
                PhaseTargetedAdaptiveAdversary(fraction=0.1, seed=0),
                NoiselessAdversary(),
            )
        )
        assert composite.oblivious is False


class TestMayInsertContract:
    """`may_insert` is a real, documented attribute of every stock adversary."""

    def test_every_stock_adversary_sets_may_insert(self):
        instances = [
            NoiselessAdversary(),
            AdditiveObliviousAdversary(pattern={(0, 0, 1): 1}),
            AdditiveObliviousAdversary(),
            FixingObliviousAdversary(pattern={(0, 0, 1): 1}),
            FixingObliviousAdversary(pattern={(0, 0, 1): None}),
            RandomNoiseAdversary(corruption_probability=0.1, seed=0),
            RandomNoiseAdversary(corruption_probability=0.1, insertion_probability=0.1, seed=0),
            LinkTargetedAdversary(target=(0, 1), fraction=0.1, seed=0),
            BurstAdversary(start_round=0, end_round=1, max_corruptions=1, seed=0),
            DeletionAdversary(deletion_probability=0.1, seed=0),
            CompositeAdversary(components=(NoiselessAdversary(),)),
            PhaseTargetedAdaptiveAdversary(fraction=0.1, seed=0),
            RotatingLinkAdaptiveAdversary(links=((0, 1),), fraction=0.1, seed=0),
            EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0),
        ]
        for adversary in instances:
            assert isinstance(adversary.may_insert, bool), adversary.name

    def test_may_insert_reflects_insertion_capability(self):
        assert NoiselessAdversary().may_insert is False
        assert AdditiveObliviousAdversary(pattern={(0, 0, 1): 1}).may_insert is True
        assert AdditiveObliviousAdversary().may_insert is False
        assert FixingObliviousAdversary(pattern={(0, 0, 1): None}).may_insert is False
        assert RandomNoiseAdversary(corruption_probability=0.5, seed=0).may_insert is False
        assert (
            RandomNoiseAdversary(
                corruption_probability=0.5, insertion_probability=0.1, seed=0
            ).may_insert
            is True
        )
        assert EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0).may_insert is True
        assert (
            CompositeAdversary(
                components=(
                    NoiselessAdversary(),
                    EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0),
                )
            ).may_insert
            is True
        )


class _PerSlotOnlyAdversary(Adversary):
    """A custom adversary that only implements `corrupt` (fallback coverage)."""

    name = "per-slot-only"
    may_insert = True

    def __init__(self):
        self.calls = []

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        self.calls.append((ctx.round_index, sent))
        if sent is None:
            return None
        return 1 - sent


class TestCorruptWindow:
    """The window contract: corrupt_window must mirror per-slot corrupt
    calls."""

    def _per_slot_reference(self, build, ctx, window):
        """Drive `corrupt` slot by slot the way the per-slot transport would."""
        adversary = build()
        delivered = []
        for offset, sent in enumerate(window):
            if sent is None and not adversary.may_insert:
                delivered.append(None)
                continue
            delivered.append(adversary.corrupt(ctx.slot(offset), sent))
        return adversary, delivered

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: NoiselessAdversary(),
            lambda: AdditiveObliviousAdversary(pattern={(2, 0, 1): 1, (4, 0, 1): 2}),
            lambda: FixingObliviousAdversary(pattern={(1, 0, 1): None, (3, 0, 1): 1}),
            lambda: RandomNoiseAdversary(
                corruption_probability=0.4, insertion_probability=0.2, seed=11
            ),
            lambda: LinkTargetedAdversary(target=(0, 1), fraction=0.5, seed=3),
            lambda: BurstAdversary(start_round=1, end_round=4, max_corruptions=2, seed=9),
            lambda: DeletionAdversary(deletion_probability=0.5, seed=7),
            lambda: DeletionAdversary(
                deletion_probability=0.9, seed=2, budget=NoiseBudget(fraction=0.25)
            ),
            lambda: PhaseTargetedAdaptiveAdversary(
                fraction=0.4, phases=("simulation",), seed=4
            ),
            lambda: RotatingLinkAdaptiveAdversary(links=((0, 1), (1, 0)), fraction=1.0, seed=6),
            lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.6, seed=8),
        ],
        ids=[
            "noiseless",
            "additive",
            "fixing",
            "random-noise",
            "link-targeted",
            "burst",
            "deletion",
            "deletion-budgeted",
            "phase-targeted",
            "rotating-link",
            "echo-spoofing",
        ],
    )
    def test_window_matches_slot_by_slot_reference(self, builder):
        window = [1, 0, None, 1, None, 0, 1, 1]
        ctx = _window_ctx(len(window), link=(0, 1), phase="simulation", base_round=0)
        reference_adversary, reference = self._per_slot_reference(builder, ctx, window)
        adversary = builder()
        delivered = adversary.corrupt_window(ctx, *pack_symbols(window))
        assert delivered == pack_symbols(reference)
        assert _state_snapshot(adversary) == _state_snapshot(reference_adversary)

    def test_fallback_covers_corrupt_only_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        ctx = _window_ctx(3, link=(0, 1), base_round=10)
        delivered = adversary.corrupt_window(ctx, *pack_symbols([1, None, 0]))
        assert unpack_symbols(*delivered, 3) == [0, None, 1]
        # the fallback materialised one per-slot context per slot, in order
        assert adversary.calls == [(10, 1), (11, None), (12, 0)]

    def test_fallback_skips_silent_slots_for_non_inserting_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        adversary.may_insert = False
        delivered = adversary.corrupt_window(_window_ctx(3), *pack_symbols([None, 1, None]))
        assert unpack_symbols(*delivered, 3) == [None, 0, None]
        assert adversary.calls == [(1, 1)]

    def test_fallback_rejects_invalid_symbols(self):
        class Sevens(_PerSlotOnlyAdversary):
            def corrupt(self, ctx, sent):
                return 7

        with pytest.raises(ValueError, match="invalid symbol 7"):
            Sevens().corrupt_window(_window_ctx(1), 1, 1)

    def test_window_context_slot_materialisation(self):
        """Planes are link-major: position ``j * rounds + t`` is link ``j``
        in round ``base_round + t``."""
        ctx = _links_ctx(((0, 1), (3, 5)), 6, phase="rewind", iteration=7, base_round=100)
        assert ctx.width == 12
        assert ctx.slot(6 + 4) == TransmissionContext(
            round_index=104, sender=3, receiver=5, phase="rewind", iteration=7
        )
        assert ctx.slot(5) == TransmissionContext(
            round_index=105, sender=0, receiver=1, phase="rewind", iteration=7
        )


#: Corruption probabilities for the bulk noise kernel: off, rare, exactly
#: and one float step either side of 3/256 (an edge of the kernel's
#: high-byte filter), frequent and certain.
_KERNEL_PROBABILITIES = (
    0.0, 1e-4, math.nextafter(3 / 256, 0.0), 3 / 256, math.nextafter(3 / 256, 1.0), 0.3, 1.0,
)


class TestRandomNoiseKernel:
    """The bulk kernel against the per-slot loop on windows of up to 25,000
    slots: several word blocks, re-alignment after each corruption's
    ``choice`` words and top-ups in the middle of one."""

    @settings(max_examples=40, deadline=None)
    @given(
        probability=st.sampled_from(_KERNEL_PROBABILITIES),
        insertion=st.sampled_from(("off", "quarter", "above")),
        widths=st.lists(
            st.one_of(st.integers(1, 64), st.integers(1000, 25_000)), min_size=1, max_size=3
        ),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        seed=st.integers(0, 2**16),
    )
    def test_bulk_kernel_matches_the_per_slot_loop(
        self, probability, insertion, widths, density, seed
    ):
        insertion_probability = {
            "off": 0.0,
            "quarter": probability / 4,
            "above": min(1.0, 2 * probability + 0.01),
        }[insertion]

        def build():
            return RandomNoiseAdversary(
                corruption_probability=probability,
                insertion_probability=insertion_probability,
                seed=seed,
            )

        kernel, reference = build(), build()
        planes = random.Random(seed)
        for width in widths:
            present = int("".join("01"[planes.random() < density] for _ in range(width)), 2)
            bits = planes.getrandbits(width) & present
            ctx = _window_ctx(width, base_round=planes.randrange(1000))
            delivered = kernel.corrupt_window(ctx, bits, present)
            assert delivered == corrupt_slots(reference, ctx, bits, present, 0, width)
            assert _state_snapshot(kernel) == _state_snapshot(reference)


#: Every stock adversary in every shipped mode, as fresh-instance builders.
#: The round-/link-keyed ones are configured to overlap the conformance
#: checker's default probe region so the interesting branches execute.
STOCK_CONTRACT_CASES = {
    "noiseless": lambda: NoiselessAdversary(),
    "additive": lambda: AdditiveObliviousAdversary(
        pattern={(3, 0, 1): 1, (17, 1, 0): 2, (40, 1, 2): 1}
    ),
    "fixing": lambda: FixingObliviousAdversary(
        pattern={(5, 0, 1): None, (20, 1, 2): 1, (33, 2, 1): 0}
    ),
    "random-noise": lambda: RandomNoiseAdversary(
        corruption_probability=0.3, insertion_probability=0.2, seed=1
    ),
    "deletion": lambda: DeletionAdversary(deletion_probability=0.3, seed=3),
    "link-targeted": lambda: LinkTargetedAdversary(
        target=(0, 1), fraction=0.3, corruption_probability=0.8, seed=4
    ),
    # What ``LinkTargetedFactory`` builds: a ``max_corruptions`` cap on the
    # simulation phase of ``(0, 1)``.
    "link-targeted-capped": lambda: LinkTargetedFactory(errors=4)(16),
    "burst": lambda: BurstAdversary(start_round=10, end_round=40, max_corruptions=6, seed=5),
    "composite-stateful": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.2, seed=6),
            BurstAdversary(start_round=20, end_round=50, max_corruptions=3, seed=7),
        )
    ),
    # Deletion then insertion fixes a slot's symbol, whatever was sent: a
    # composite of symbol-blind, inserting components is not symbol-blind.
    "composite-inserting": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.3, insertion_probability=0.3, seed=11),
            RandomNoiseAdversary(corruption_probability=0.3, insertion_probability=0.3, seed=12),
        )
    ),
    "echo-spoofing": lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.4, seed=8),
    "phase-targeted": lambda: PhaseTargetedAdaptiveAdversary(fraction=0.3, seed=9),
    "rotating-link": lambda: RotatingLinkAdaptiveAdversary(
        links=((0, 1), (1, 2)), fraction=0.3, seed=10
    ),
}


#: The composites the experiments build, which the kernels must also get
#: right on one-round planes: the two Table 1 composites, whose
#: ``LinkTargeted`` leg attacks ``(0, 1)`` in the simulation phase, and the
#: uncoded baseline's noise in ``theorem_validation.scheme_comparison``:
#: inserting random noise plus one additive error on ``(1, 0)`` in round 0.
ROUND_FRAME_EXTRA_CASES = {
    "table1-oblivious": lambda: _oblivious_factory(13, 0.3),
    "table1-adaptive": lambda: _adaptive_factory(14, 0.3),
    "theorem-uncoded": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.3, insertion_probability=0.075, seed=12),
            AdditiveObliviousAdversary(pattern={(0, 1, 0): 1}),
        )
    ),
}
ROUND_FRAME_CASES = {**STOCK_CONTRACT_CASES, **ROUND_FRAME_EXTRA_CASES}


def _random_windows(links, phases, windows, seed):
    """Random ``(ctx, bits, present)`` planes over ``links``: mostly one
    round wide (lockstep rounds), sometimes four (meeting-points shaped)."""
    rng = random.Random(seed)
    out = []
    base_round = 0
    for index in range(windows):
        rounds = rng.choice((1, 1, 4))
        width = len(links) * rounds
        present = rng.getrandbits(width)
        bits = rng.getrandbits(width) & present
        ctx = _links_ctx(links, rounds, phases[index % len(phases)], index % 3, base_round)
        out.append((ctx, bits, present))
        base_round += rounds
    return out


class TestRoundFrame:
    """Lockstep rounds are one-round planes: one adversary call per round."""

    @pytest.mark.parametrize(
        "builder", list(ROUND_FRAME_EXTRA_CASES.values()), ids=list(ROUND_FRAME_EXTRA_CASES)
    )
    def test_round_frame_law_holds(self, builder):
        # check_contract probes one-round planes; the stock configurations
        # run it in TestCheckContract.
        assert check_contract(builder()).laws == ("window",)

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from(sorted(ROUND_FRAME_CASES)),
        nodes=st.integers(min_value=2, max_value=9),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        frame_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_native_kernels_match_the_per_link_loop(self, case, nodes, graph_seed, frame_seed):
        links = random_connected_topology(nodes, edge_probability=0.5, seed=graph_seed).directed_edges()
        native = ROUND_FRAME_CASES[case]()
        reference = ROUND_FRAME_CASES[case]()
        phases = ("flag_passing", "simulation", "rewind", "meeting_points")
        for ctx, bits, present in _random_windows(links, phases, 12, frame_seed):
            got = native.corrupt_window(ctx, bits, present)
            assert got == Adversary.corrupt_window(reference, ctx, bits, present)
            assert got[0] & ~got[1] == 0 and got[1] >> ctx.width == 0
            assert _state_snapshot(native) == _state_snapshot(reference)

    def test_stock_kernels_are_native(self):
        for klass in (
            NoiselessAdversary,
            AdditiveObliviousAdversary,
            FixingObliviousAdversary,
            RandomNoiseAdversary,
            LinkTargetedAdversary,
            BurstAdversary,
            DeletionAdversary,
            CompositeAdversary,
            PhaseTargetedAdaptiveAdversary,
            RotatingLinkAdaptiveAdversary,
            EchoSpoofingAdversary,
        ):
            assert klass.corrupt_window is not Adversary.corrupt_window, klass

    def test_inherited_kernel_is_not_trusted_after_an_override(self):
        """A subclass that changes a per-slot method must not keep the
        parent's kernel, which encodes the parent's behaviour; neither may
        its own subclasses, until one of them writes a kernel again."""

        class DeletesEverything(RandomNoiseAdversary):
            def corrupt(self, ctx, sent):
                return None

        class Inherits(DeletesEverything):
            pass

        class Rewrites(DeletesEverything):
            def corrupt_window(self, ctx, bits, present):
                return 0, 0

        assert DeletesEverything.corrupt_window is Adversary.corrupt_window
        assert Inherits.corrupt_window is Adversary.corrupt_window
        assert Rewrites.corrupt_window is not Adversary.corrupt_window
        ctx = _links_ctx(((0, 1), (1, 0), (1, 2), (2, 1)), 1)
        adversary = Inherits(corruption_probability=0.0, seed=0)
        assert adversary.corrupt_window(ctx, 0b0101, 0b0111) == (0, 0)

    @pytest.mark.parametrize("override", ["corrupt"])
    def test_every_kernel_input_demotes(self, override):
        namespace = {override: getattr(Adversary, override)}
        subclass = type("Override", (PhaseTargetedAdaptiveAdversary,), namespace)
        assert subclass.corrupt_window is Adversary.corrupt_window

    def test_own_kernel_is_trusted(self):
        class Rewritten(RandomNoiseAdversary):
            def corrupt(self, ctx, sent):
                return sent

            def corrupt_window(self, ctx, bits, present):
                return bits, present

        assert Rewritten.corrupt_window is not Adversary.corrupt_window

    def test_rejects_round_kernel_divergence(self):
        class DivergentRoundAdversary(DeletionAdversary):
            def corrupt_window(self, ctx, bits, present):
                if ctx.rounds == 1:
                    return bits, present  # skips the per-slot RNG draws
                return super().corrupt_window(ctx, bits, present)

        divergent = DivergentRoundAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="window"):
            check_contract(divergent)


class TestStaleKernels:
    """A subclass that overrides ``corrupt`` of a stock adversary gets the
    base kernel, so its override is honoured on every transport path."""

    class AlwaysDelete(RandomNoiseAdversary):
        def corrupt(self, ctx, sent):
            return None

    def test_stock_kernels_are_demoted(self):
        assert self.AlwaysDelete.corrupt_window is Adversary.corrupt_window
        assert RandomNoiseAdversary.corrupt_window is not Adversary.corrupt_window

    def test_corrupt_override_deletes_on_both_plane_paths(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=self.AlwaysDelete(seed=0))
        window = link_major_plane(graph, {(0, 1): [1, 0, 1]}, 3)
        assert network.exchange_window(*window, 3, "meeting_points") == (0, 0)
        assert network.exchange_window(0b0011, 0b0111, 1, "simulation") == (0, 0)
        assert network.stats.deletions == 3 + 3
        assert network.stats.transmissions == 3 + 3


#: Every stock adversary with and without a budget, for the reset law.
RESET_CASES = {
    **ROUND_FRAME_CASES,
    "deletion-budgeted": lambda: DeletionAdversary(
        deletion_probability=0.5, seed=15, budget=NoiseBudget(fraction=0.2)
    ),
}


@pytest.mark.parametrize("case", sorted(RESET_CASES))
def test_reset_returns_a_used_adversary_to_its_fresh_state(case):
    """The engine and both baselines call ``reset()`` when a run starts, so
    a reused adversary must behave like a fresh one: RNG streams, budgets
    and counters all rewind."""
    links = line_topology(4).directed_edges()
    phases = ("flag_passing", "simulation", "rewind", "meeting_points", "baseline")
    adversary = RESET_CASES[case]()
    for ctx, bits, present in _random_windows(links, phases, 30, seed=21):
        adversary.corrupt_window(ctx, bits, present)
    adversary.reset()
    assert _state_snapshot(adversary) == _state_snapshot(RESET_CASES[case]())


class TestCheckContract:
    """`check_contract` (tests/adversaries.py) conformance over every stock and
    test-side adversary."""

    @pytest.mark.parametrize(
        "builder", list(STOCK_CONTRACT_CASES.values()), ids=list(STOCK_CONTRACT_CASES)
    )
    def test_every_stock_adversary_conforms(self, builder):
        adversary = builder()
        report = check_contract(adversary)
        assert report.adversary == adversary.name
        symbol_blind = ("symbol-blind",) if type(adversary).symbol_blind else ()
        assert report.laws == ("window", *symbol_blind)
        assert report.windows_probed == 9

    def test_only_random_noise_and_the_identity_declare_symbol_blindness(self):
        declared = {
            type(builder()).__name__
            for builder in ROUND_FRAME_CASES.values()
            if type(builder()).symbol_blind
        }
        assert declared == {"NoiselessAdversary", "RandomNoiseAdversary"}

    @pytest.mark.parametrize(
        "case",
        [
            # A Z3 offset turns a sent 0 into a flip and a sent 1 into a deletion.
            "additive",
            # Deletion then insertion fixes the symbol.
            "composite-inserting",
            # A fixed slot delivers the same symbol whatever was sent.
            "fixing",
        ],
    )
    def test_rejects_a_false_symbol_blind_declaration(self, case):
        adversary = STOCK_CONTRACT_CASES[case]()
        declared = type("Declared", (type(adversary),), {"symbol_blind": True})
        impostor = copy.deepcopy(adversary)
        impostor.__class__ = declared
        with pytest.raises(ContractViolation, match="symbol-blind"):
            check_contract(impostor)

    def test_overriding_corrupt_drops_the_declaration(self):
        """A ``corrupt`` override may look at the bits: the subclass is not
        symbol-blind until it says so again, and its subclasses inherit
        whatever it says."""

        class Overrides(RandomNoiseAdversary):
            def corrupt(self, ctx, sent):
                return sent

        class Redeclares(RandomNoiseAdversary):
            symbol_blind = True

            def corrupt(self, ctx, sent):
                return sent

        class Inherits(RandomNoiseAdversary):
            pass

        class InheritsTheOverride(Overrides):
            pass

        class IdentityOverride(NoiselessAdversary):
            def corrupt(self, ctx, sent):
                return sent

        assert not Overrides.symbol_blind
        assert not InheritsTheOverride.symbol_blind
        assert not IdentityOverride.symbol_blind
        assert Redeclares.symbol_blind
        assert Inherits.symbol_blind
        assert RandomNoiseAdversary.symbol_blind and NoiselessAdversary.symbol_blind

    def test_checker_does_not_mutate_the_subject(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=42)
        stream_before = adversary._rng.getstate()
        check_contract(adversary)
        assert adversary._rng.getstate() == stream_before

    def test_rejects_batched_divergence(self):
        """A window kernel that delivers the right planes but skips the
        per-slot RNG draws is caught by the state comparison."""

        class DivergentBatchAdversary(DeletionAdversary):
            def corrupt_window(self, ctx, bits, present):
                return bits, present  # right planes at probability 0, no draws

        divergent = DivergentBatchAdversary(deletion_probability=0.0, seed=1)
        with pytest.raises(ContractViolation, match="left different state"):
            check_contract(divergent)

    def test_rejects_packed_divergence(self):
        class DivergentPackedAdversary(DeletionAdversary):
            def corrupt_window(self, ctx, bits, present):
                return bits, present  # skips the per-slot RNG draws

        divergent = DivergentPackedAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="window"):
            check_contract(divergent)

    def test_rejects_packed_plane_invariant_break(self):
        class LeakyPlanesAdversary(NoiselessAdversary):
            def corrupt_window(self, ctx, bits, present):
                # Claims a 1-bit on a slot it simultaneously marks silent.
                return (~present) & ((1 << ctx.width) - 1), present

        with pytest.raises(ContractViolation, match="window"):
            check_contract(LeakyPlanesAdversary())

    @pytest.mark.parametrize(
        "builder", list(STOCK_CONTRACT_CASES.values()), ids=list(STOCK_CONTRACT_CASES)
    )
    def test_conformance_is_recorder_invariant(self, builder):
        """An ambient flight recorder must not perturb the conformance probe.

        The probe replays the adversary's RNG and budget state across its
        windows; if recorder presence changed either, the same adversary
        would pass dark and fail observed (or vice versa).  Pin report
        equality and identical end state across the two runs.
        """
        from repro.obs import FlightRecorder, use_obs

        dark_report = check_contract(builder())
        observed_subject = builder()
        with use_obs(recorder=FlightRecorder()):
            observed_report = check_contract(observed_subject)
        assert observed_report == dark_report
        assert _state_snapshot(observed_subject) == _state_snapshot(builder())
