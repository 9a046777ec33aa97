"""Unit tests for the adversary implementations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import ContractViolation, check_contract
from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.contract import _state_snapshot
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    EchoSpoofingAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
    RotatingLinkAdaptiveAdversary,
)
from repro.experiments.table1 import _adaptive_factory, _oblivious_factory
from repro.network.channel import RoundContext, Symbol, TransmissionContext, WindowContext
from repro.network.topologies import random_connected_topology


def _ctx(round_index=0, sender=0, receiver=1, phase="simulation", iteration=0):
    return TransmissionContext(
        round_index=round_index, sender=sender, receiver=receiver, phase=phase, iteration=iteration
    )


def _window_ctx(link=(0, 1), phase="simulation", iteration=0, base_round=0):
    return WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)


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

    def test_planned_corruptions(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1, (3, 1, 0): 2})
        assert adversary.planned_corruptions() == 2


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

    def test_budget_capped(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=2)
        adversary = RandomNoiseAdversary(corruption_probability=1.0, seed=1, budget=budget)
        corrupted = sum(1 for i in range(20) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert corrupted == 2

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
        window = (1, 0, None, 1, 1, 0, 1, 0)
        bits, present = 0b10011001, 0b11111011
        links = ((0, 1), (1, 0), (1, 2), (2, 1))
        delivered = {}
        for adversary in (listed, paired):
            delivered[id(adversary)] = [
                [adversary.corrupt(_ctx(round_index=r), 1) for r in range(8)],
                adversary.corrupt_window(_window_ctx(base_round=10), window),
                adversary.corrupt_window_packed(_window_ctx(base_round=20), bits, present, 8),
                [
                    adversary.corrupt_round_packed(
                        RoundContext(links, "simulation", 0, round_index=30 + r), 0b0111, 0b1111
                    )
                    for r in range(8)
                ],
            ]
        assert delivered[id(listed)] == delivered[id(paired)]
        assert delivered[id(listed)][0] != [1] * 8  # the attack really fires
        assert _state_snapshot(listed) == _state_snapshot(paired)

    @pytest.mark.parametrize("target", [(0, 1, 2), (0,), "01", 5, (0, "1"), None])
    def test_rejects_targets_that_are_not_links(self, target):
        with pytest.raises(ValueError, match="directed link"):
            LinkTargetedAdversary(target=target, max_corruptions=1)


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

    def test_rejects_shared_noise_budget(self):
        """A budget shared between components would make the batched and
        per-slot paths diverge (the batch overrides mirror counters locally
        per component), so the unsupported configuration fails loudly."""
        shared = NoiseBudget(fraction=0.1)
        with pytest.raises(ValueError, match="share a NoiseBudget"):
            CompositeAdversary(
                components=(
                    RandomNoiseAdversary(corruption_probability=0.5, seed=0, budget=shared),
                    DeletionAdversary(deletion_probability=0.5, seed=1, budget=shared),
                )
            )
        # distinct budgets are fine, including across nesting levels
        CompositeAdversary(
            components=(
                RandomNoiseAdversary(
                    corruption_probability=0.5, seed=0, budget=NoiseBudget(fraction=0.1)
                ),
                CompositeAdversary(
                    components=(
                        DeletionAdversary(
                            deletion_probability=0.5, seed=1, budget=NoiseBudget(fraction=0.1)
                        ),
                    )
                ),
            )
        )


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


class _NotifyDependentAdversary(Adversary):
    """Corrupts a slot iff the previous notification showed a clean delivery.

    Implements only `corrupt` + `notify_delivery` — the documented per-slot
    pattern — so composites containing it must fall back to slot-by-slot
    replay to stay bit-identical between the transmission paths.
    """

    name = "notify-dependent"
    may_insert = False

    def __init__(self):
        self.last_was_clean = False

    def corrupt(self, ctx, sent):
        if sent is not None and self.last_was_clean:
            return 1 - sent
        return sent

    def notify_delivery(self, ctx, sent, received):
        self.last_was_clean = sent == received

    def reset(self):
        self.last_was_clean = False


def test_composite_with_notify_using_component_stays_bit_identical():
    from repro.network.topologies import line_topology
    from repro.network.transport import NoisyNetwork

    def build():
        return CompositeAdversary(
            components=(
                RandomNoiseAdversary(corruption_probability=0.3, seed=9),
                _NotifyDependentAdversary(),
            )
        )

    batched = NoisyNetwork(line_topology(3), adversary=build())
    per_slot = NoisyNetwork(line_topology(3), adversary=build())
    messages = {(0, 1): [1, 1, 0, 1, 0, 1], (1, 2): [0, 1, 1, None, 1, 0]}
    a = batched.exchange_window(messages, 6, phase="simulation")
    b = per_slot.exchange_window_per_slot(messages, 6, phase="simulation")
    assert a == b
    assert batched.stats == per_slot.stats
    assert (
        batched.adversary.components[1].last_was_clean
        == per_slot.adversary.components[1].last_was_clean
    )


class _PerSlotOnlyAdversary(Adversary):
    """A custom adversary that only implements `corrupt` (fallback coverage)."""

    name = "per-slot-only"
    may_insert = True

    def __init__(self):
        self.calls = []
        self.notified = []

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        self.calls.append((ctx.round_index, ctx.slot_index, sent))
        if sent is None:
            return None
        return 1 - sent

    def notify_delivery(self, ctx, sent, received):
        self.notified.append((ctx.slot_index, sent, received))


class TestCorruptWindow:
    """The batch contract: corrupt_window must mirror per-slot corrupt calls."""

    def _per_slot_reference(self, build, ctx, window):
        """Drive `corrupt` slot by slot the way the per-slot transport would."""
        adversary = build()
        delivered = []
        for offset, sent in enumerate(window):
            if sent is None and not adversary.may_insert:
                delivered.append(None)
                continue
            slot = ctx.slot(offset)
            received = adversary.corrupt(slot, sent)
            adversary.notify_delivery(slot, sent, received)
            delivered.append(received)
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
            lambda: RandomNoiseAdversary(
                corruption_probability=0.9,
                seed=5,
                budget=NoiseBudget(fraction=0.3, absolute_allowance=1),
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
            "random-noise-budgeted",
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
        ctx = _window_ctx(link=(0, 1), phase="simulation", base_round=0)
        reference_adversary, reference = self._per_slot_reference(builder, ctx, window)
        adversary = builder()
        delivered = adversary.corrupt_window(ctx, window)
        assert delivered == reference
        rng = getattr(adversary, "_rng", None)
        if rng is not None:
            assert rng.getstate() == reference_adversary._rng.getstate()

    def test_fallback_covers_corrupt_only_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        ctx = _window_ctx(link=(0, 1), base_round=10)
        delivered = adversary.corrupt_window(ctx, [1, None, 0])
        assert delivered == [0, None, 1]
        # the fallback materialised one per-slot context per slot, in order,
        # and interleaved the notification hook exactly like the slot path
        assert adversary.calls == [(10, 0, 1), (11, 1, None), (12, 2, 0)]
        assert adversary.notified == [(0, 1, 0), (1, None, None), (2, 0, 1)]

    def test_fallback_skips_silent_slots_for_non_inserting_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        adversary.may_insert = False
        delivered = adversary.corrupt_window(_window_ctx(), [None, 1, None])
        assert delivered == [None, 0, None]
        assert adversary.calls == [(1, 1, 1)]

    def test_window_context_slot_materialisation(self):
        ctx = _window_ctx(link=(3, 5), phase="rewind", iteration=7, base_round=100)
        slot = ctx.slot(4)
        assert slot == TransmissionContext(
            round_index=104, sender=3, receiver=5, phase="rewind", iteration=7, slot_index=4
        )
        assert ctx.sender == 3 and ctx.receiver == 5

    def test_window_context_equality_and_hash(self):
        a = _window_ctx(link=(0, 1), phase="simulation", iteration=1, base_round=4)
        b = _window_ctx(link=(0, 1), phase="simulation", iteration=1, base_round=4)
        c = _window_ctx(link=(1, 0), phase="simulation", iteration=1, base_round=4)
        assert a == b and a != c
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}


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
    "random-noise-budgeted": lambda: RandomNoiseAdversary(
        corruption_probability=0.4, seed=2, budget=NoiseBudget(fraction=0.2)
    ),
    "deletion": lambda: DeletionAdversary(deletion_probability=0.3, seed=3),
    "link-targeted": lambda: LinkTargetedAdversary(
        target=(0, 1), fraction=0.3, corruption_probability=0.8, seed=4
    ),
    "burst": lambda: BurstAdversary(start_round=10, end_round=40, max_corruptions=6, seed=5),
    "composite-stateful": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.2, seed=6),
            BurstAdversary(start_round=20, end_round=50, max_corruptions=3, seed=7),
        )
    ),
    "echo-spoofing": lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.4, seed=8),
    "phase-targeted": lambda: PhaseTargetedAdaptiveAdversary(fraction=0.3, seed=9),
    "rotating-link": lambda: RotatingLinkAdaptiveAdversary(
        links=((0, 1), (1, 2)), fraction=0.3, seed=10
    ),
}


#: Configurations the round-frame kernels must also get right: a budgeted
#: inserting ``RandomNoise`` (the budget mirror runs through silent slots)
#: and the two Table 1 composites, whose ``LinkTargeted`` leg attacks
#: ``(0, 1)`` in the simulation phase.
ROUND_FRAME_EXTRA_CASES = {
    "random-noise-budgeted-inserting": lambda: RandomNoiseAdversary(
        corruption_probability=0.5,
        insertion_probability=0.3,
        seed=12,
        budget=NoiseBudget(fraction=0.3, absolute_allowance=1),
    ),
    "table1-oblivious": lambda: _oblivious_factory(13, 0.3),
    "table1-adaptive": lambda: _adaptive_factory(14, 0.3),
}
ROUND_FRAME_CASES = {**STOCK_CONTRACT_CASES, **ROUND_FRAME_EXTRA_CASES}


def _round_frames(links, phases, frames, seed):
    """Random ``(ctx, bits, present)`` round frames over ``links``."""
    rng = random.Random(seed)
    out = []
    for index in range(frames):
        present = rng.getrandbits(len(links))
        bits = rng.getrandbits(len(links)) & present
        ctx = RoundContext(links, phases[index % len(phases)], index % 3, round_index=3 * index)
        out.append((ctx, bits, present))
    return out


class TestRoundFrame:
    """`corrupt_round_packed`: one adversary call per lockstep round."""

    @pytest.mark.parametrize(
        "builder", list(ROUND_FRAME_EXTRA_CASES.values()), ids=list(ROUND_FRAME_EXTRA_CASES)
    )
    def test_round_frame_law_holds(self, builder):
        # The stock configurations run the law in TestCheckContract.
        assert "round-frame" in check_contract(builder()).laws

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
        for ctx, bits, present in _round_frames(links, phases, 12, frame_seed):
            got = native.corrupt_round_packed(ctx, bits, present)
            assert got == Adversary.corrupt_round_packed(reference, ctx, bits, present)
            assert got[0] & ~got[1] == 0 and got[1] >> len(links) == 0
            assert _state_snapshot(native) == _state_snapshot(reference)

    def test_stock_kernels_are_native(self):
        for klass in (
            NoiselessAdversary,
            RandomNoiseAdversary,
            LinkTargetedAdversary,
            PhaseTargetedAdaptiveAdversary,
            CompositeAdversary,
        ):
            assert klass.corrupt_round_packed is not Adversary.corrupt_round_packed, klass
        assert DeletionAdversary.corrupt_round_packed is Adversary.corrupt_round_packed

    def test_inherited_kernel_is_not_trusted_after_an_override(self):
        """A subclass that changes a per-window method must not keep the
        parent's round kernel, which encodes the parent's behaviour."""

        class DeletesEverything(RandomNoiseAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                return 0, 0

        assert DeletesEverything.corrupt_round_packed is Adversary.corrupt_round_packed
        links = ((0, 1), (1, 0), (1, 2), (2, 1))
        ctx = RoundContext(links, "simulation", 0, round_index=0)
        adversary = DeletesEverything(corruption_probability=0.0, seed=0)
        assert adversary.corrupt_round_packed(ctx, 0b0101, 0b0111) == (0, 0)

    @pytest.mark.parametrize(
        "override", ["corrupt", "corrupt_window", "corrupt_window_packed", "notify_delivery"]
    )
    def test_every_kernel_input_demotes(self, override):
        namespace = {override: getattr(Adversary, override)}
        subclass = type("Override", (PhaseTargetedAdaptiveAdversary,), namespace)
        assert subclass.corrupt_round_packed is Adversary.corrupt_round_packed

    def test_own_kernel_is_trusted(self):
        class Rewritten(RandomNoiseAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                return bits, present

            def corrupt_round_packed(self, ctx, bits, present):
                return bits, present

        assert Rewritten.corrupt_round_packed is not Adversary.corrupt_round_packed

    def test_rejects_round_kernel_divergence(self):
        class DivergentRoundAdversary(DeletionAdversary):
            def corrupt_round_packed(self, ctx, bits, present):
                return bits, present  # skips the per-link RNG draws

        divergent = DivergentRoundAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="round-frame"):
            check_contract(divergent)

    def test_base_loop_rejects_invalid_window_output(self):
        class WidePlanes(NoiselessAdversary):
            corrupt_round_packed = Adversary.corrupt_round_packed

            def corrupt_window_packed(self, ctx, bits, present, count):
                return 2, 3  # claims a second slot in a 1-round window

        ctx = RoundContext(((0, 1), (1, 0)), "simulation")
        with pytest.raises(ValueError, match=r"1-round window on link \(0, 1\)"):
            WidePlanes().corrupt_round_packed(ctx, 1, 1)


class TestCheckContract:
    """`repro.adversary.check_contract` conformance over every stock adversary."""

    @pytest.mark.parametrize(
        "builder", list(STOCK_CONTRACT_CASES.values()), ids=list(STOCK_CONTRACT_CASES)
    )
    def test_every_stock_adversary_conforms(self, builder):
        adversary = builder()
        report = check_contract(adversary)
        assert report.adversary == adversary.name
        assert report.laws == ("batched-equivalence", "packed-equivalence", "round-frame")

    def test_checker_does_not_mutate_the_subject(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=42)
        stream_before = adversary._rng.getstate()
        check_contract(adversary)
        assert adversary._rng.getstate() == stream_before

    def test_rejects_batched_divergence(self):
        class DivergentBatchAdversary(DeletionAdversary):
            def corrupt_window(self, ctx, symbols):
                return list(symbols)  # skips the per-slot RNG draws

        divergent = DivergentBatchAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="batched-equivalence"):
            check_contract(divergent)

    def test_rejects_packed_divergence(self):
        class DivergentPackedAdversary(DeletionAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                return bits, present  # skips the per-slot RNG draws

        divergent = DivergentPackedAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="packed-equivalence"):
            check_contract(divergent)

    def test_rejects_packed_plane_invariant_break(self):
        class LeakyPlanesAdversary(NoiselessAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                # Claims a 1-bit on a slot it simultaneously marks silent.
                return (~present) & ((1 << count) - 1), present

        with pytest.raises(ContractViolation, match="packed-equivalence"):
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
