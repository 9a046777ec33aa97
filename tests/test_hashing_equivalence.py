"""Property-style equivalence suite for the meeting-points hashing fast path.

Mirrors ``tests/test_transport.py``: every layer of the batched hashing
machinery is run side by side with its per-call / per-bit reference over
random inputs, and the two must agree bit for bit —

* ``SmallBiasGenerator`` jump-ahead reads vs :meth:`bits`, the per-bit
  field-multiplication definition,
* ``SeedSource.seeds_for_iteration`` native overrides vs the per-call
  ``seed_for`` loop, for both seed-source implementations,
* ``InnerProductHash.digest_many`` vs one ``digest`` per value,
* ``MeetingPointsSession`` with ``fast_hashing=True`` vs the reference
  session, in lockstep over random transcripts and corrupted replies,
* whole trials through the engine with every combination of the
  ``fast_hashing`` / ``packed`` switches.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.strategies import DeletionAdversary, RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator
from repro.core.meeting_points import MeetingPointsSession
from repro.core.parameters import algorithm_a, algorithm_b, crs_oblivious_scheme
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import (
    SEED_PURPOSES,
    CrsSeedSource,
    ExchangedSeedSource,
    SeedLayout,
    seed_layout,
)
from repro.hashing.small_bias import SmallBiasGenerator
from repro.utils.bitstring import bits_to_int
from repro.utils.rng import make_rng


# ---------------------------------------------------------------- small bias --


class TestSmallBiasExpansionEquivalence:
    def test_table_stepping_matches_per_bit_reference(self):
        """Jump-ahead reads equal the per-bit definition, :meth:`bits`."""
        rng = make_rng(11)
        for degree in (8, 16, 32, 64, 128):
            seed = rng.getrandbits(2 * degree)
            generator = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
            for _ in range(6):
                offset = rng.randint(0, 10_000)
                count = rng.randint(0, 400)
                assert generator.packed_bits(offset, count) == bits_to_int(generator.bits(offset, count))

    def test_packed_slots_matches_per_slot_reads(self):
        rng = make_rng(12)
        for trial in range(8):
            generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
            slots = []
            position = rng.randint(0, 500)
            for _ in range(rng.randint(1, 5)):
                position += rng.randint(0, 3000)
                length = rng.randint(0, 600)
                slots.append((position, length))
                position += length
            expected = tuple(generator.packed_bits(offset, count) for offset, count in slots)
            assert generator.packed_slots(slots) == expected

    def test_cursor_resume_across_sequential_reads(self):
        """Monotone packed_slots calls (the per-iteration access pattern) stay
        correct when each jump advances from the previous slot's."""
        rng = make_rng(13)
        generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
        for iteration in range(6):
            base = iteration * 3 * 4096
            slots = [(base, 256), (base + 4096, 1024)]
            expected = tuple(bits_to_int(generator.bits(offset, count)) for offset, count in slots)
            assert generator.packed_slots(slots) == expected

    def test_packed_slots_rejects_disorder(self):
        generator = SmallBiasGenerator(seed_bits=12345)
        with pytest.raises(ValueError):
            generator.packed_slots([(100, 50), (60, 10)])

    def test_random_access_bit_agrees_with_sequential(self):
        generator = SmallBiasGenerator(seed_bits=make_rng(14).getrandbits(128))
        window = generator.bits(200, 40)
        for offset in range(40):
            assert generator.bit(200 + offset) == window[offset]


# -------------------------------------------------------------- seed sources --


def _random_layout(rng: random.Random) -> SeedLayout:
    lengths = {}
    for purpose in SEED_PURPOSES:
        if rng.random() < 0.75:
            lengths[purpose] = rng.choice([1, 32, 256, 1024])
    return seed_layout(**lengths)


class TestSeedBatchEquivalence:
    def test_crs_batch_matches_per_call_reference(self):
        rng = make_rng(21)
        for trial in range(8):
            master = rng.getrandbits(48)
            link = (rng.randint(0, 5), rng.randint(6, 11))
            batched = CrsSeedSource(master_seed=master, link=link)
            per_call = CrsSeedSource(master_seed=master, link=link)
            for _ in range(4):
                iteration = rng.randint(0, 40)
                layout = _random_layout(rng)
                expected = tuple(
                    per_call.seed_for(iteration, purpose, length) if length else None
                    for purpose, length in zip(SEED_PURPOSES, layout.lengths)
                )
                assert batched.seeds_for_iteration(iteration, layout) == expected
                # warm second call (batch cache) and per-call reads of the
                # slots the batch just filled
                assert batched.seeds_for_iteration(iteration, layout) == expected
                for purpose, length in zip(SEED_PURPOSES, layout.lengths):
                    if length:
                        assert batched.seed_for(iteration, purpose, length) == per_call.seed_for(
                            iteration, purpose, length
                        )

    def test_exchanged_batch_matches_per_call_reference(self):
        rng = make_rng(22)
        for trial in range(6):
            seed = rng.getrandbits(128)
            batched = ExchangedSeedSource(link_seed=seed)
            per_call = ExchangedSeedSource(link_seed=seed)
            reference = SmallBiasGenerator(seed_bits=seed)
            for iteration in sorted(rng.sample(range(12), 3)):
                layout = _random_layout(rng)
                expected = tuple(
                    per_call.seed_for(iteration, purpose, length) if length else None
                    for purpose, length in zip(SEED_PURPOSES, layout.lengths)
                )
                assert batched.seeds_for_iteration(iteration, layout) == expected
                for purpose_index, length in enumerate(layout.lengths):
                    if length:
                        offset = (iteration * len(SEED_PURPOSES) + purpose_index) * batched.slot_capacity_bits
                        assert expected[purpose_index] == bits_to_int(reference.bits(offset, length))

    def test_default_batch_implementation_loops_seed_for(self):
        """The abstract default (no native override) is the per-call loop."""
        from repro.hashing.seeds import SeedSource

        source = CrsSeedSource(master_seed=7, link=(0, 1))
        layout = seed_layout(mp_counter=64, mp_prefix=128)
        expected = tuple(
            source.seed_for(3, purpose, length) if length else None
            for purpose, length in zip(SEED_PURPOSES, layout.lengths)
        )
        assert SeedSource.seeds_for_iteration(source, 3, layout) == expected
        assert source.seeds_for_iteration(3, layout) == expected

    def test_generator_sharing_requires_matching_configuration(self):
        a = ExchangedSeedSource(link_seed=1)
        b = ExchangedSeedSource(link_seed=2)
        with pytest.raises(ValueError):
            b.share_generator_with(a)
        c = ExchangedSeedSource(link_seed=1, slot_capacity_bits=2048)
        with pytest.raises(ValueError):
            c.share_generator_with(a)

    def test_generator_sharing_preserves_values(self):
        a = ExchangedSeedSource(link_seed=99)
        b = ExchangedSeedSource(link_seed=99)
        independent = ExchangedSeedSource(link_seed=99)
        b.share_generator_with(a)
        layout = seed_layout(mp_counter=256, mp_prefix=1024)
        assert a.seeds_for_iteration(0, layout) == independent.seeds_for_iteration(0, layout)
        assert b.seeds_for_iteration(0, layout) == independent.seeds_for_iteration(0, layout)
        assert b.seed_for(1, "mp_prefix", 512) == independent.seed_for(1, "mp_prefix", 512)

    def test_layout_interning_and_validation(self):
        assert seed_layout(mp_counter=8) is seed_layout(mp_counter=8)
        assert seed_layout(mp_counter=8) is not seed_layout(mp_counter=16)
        with pytest.raises(ValueError):
            seed_layout(bogus=8)
        with pytest.raises(ValueError):
            SeedLayout((1, 2))  # wrong arity
        with pytest.raises(ValueError):
            SeedLayout((-1, 0, 0))


# ------------------------------------------------------------- digest batching --


class TestDigestManyEquivalence:
    def test_matches_per_value_digest(self):
        rng = make_rng(31)
        for _ in range(20):
            tau = rng.choice([1, 4, 8, 12, 17])
            input_bits = rng.choice([1, 32, 128, 200])
            hasher = InnerProductHash(tau)
            seed = rng.getrandbits(hasher.seed_bits_required(input_bits))
            values = [rng.getrandbits(input_bits) for _ in range(rng.randint(1, 4))]
            assert hasher.digest_many(values, input_bits, seed) == tuple(
                hasher.digest(value, input_bits, seed) for value in values
            )

    def test_validates_like_digest(self):
        hasher = InnerProductHash(4)
        with pytest.raises(ValueError):
            hasher.digest_many([16], 4, 0)  # value too wide
        with pytest.raises(ValueError):
            hasher.digest_many([1], 4, 1 << 20)  # seed too long
        assert hasher.digest_many([], 4, 0) == ()


# ------------------------------------------------------- session-level lockstep --


def _transcript(owner: int, neighbor: int, payloads) -> LinkTranscript:
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=payload))
    return transcript


def _random_payloads(rng: random.Random, count: int):
    return [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(count)]


def _corrupt(rng: random.Random, message):
    """Randomly flip / erase a few symbols of an outgoing hash message."""
    symbols = list(message)
    for index in range(len(symbols)):
        roll = rng.random()
        if roll < 0.05:
            symbols[index] = None
        elif roll < 0.12:
            symbols[index] = 1 - symbols[index]
    return symbols


def _outcome_tuple(outcome):
    return (
        outcome.status,
        outcome.truncate_to,
        outcome.k_agreed,
        outcome.full_match,
        outcome.vote,
        outcome.reset,
    )


def _session_state(session: MeetingPointsSession):
    return (
        session.k,
        session.error_count,
        session.mpc1,
        session.mpc2,
        session.status,
        session.truncations,
        session.resets,
    )


@pytest.mark.parametrize("source_kind", ["crs", "exchanged"])
@pytest.mark.parametrize("hash_input_mode", ["fingerprint", "raw"])
def test_session_fast_path_is_bit_identical_to_reference(source_kind, hash_input_mode):
    """The tentpole guarantee at session level: identical wire messages,
    outcomes and search state under noisy replies, for every seed source."""
    for trial in range(6):
        rng = make_rng(1000 * trial + 41)
        tau = rng.choice([4, 8, 12])
        hasher = InnerProductHash(tau)

        def build_source():
            # Raw-mode hash inputs need τ·4096-bit seeds, so give both
            # sources slots big enough to hold them (the unified expansion
            # contract sizes slots identically for CRS and exchanged seeds);
            # the exchanged seed fills both AGHP field elements (x and y
            # non-degenerate).
            if source_kind == "crs":
                return CrsSeedSource(master_seed=4242, link=(0, 1), slot_capacity_bits=1 << 16)
            return ExchangedSeedSource(
                link_seed=0x9D1C_37A2_55B0_4E11_6F08_42D3_91AC_7E65, slot_capacity_bits=1 << 16
            )

        def build_session(fast: bool) -> MeetingPointsSession:
            return MeetingPointsSession(
                hasher=hasher,
                seed_source=build_source(),
                hash_input_mode=hash_input_mode,
                fast_hashing=fast,
            )

        payloads = _random_payloads(rng, rng.randint(0, 12))
        fast_transcript = _transcript(0, 1, payloads)
        reference_transcript = _transcript(0, 1, payloads)
        fast_session = build_session(True)
        reference_session = build_session(False)

        noise_seed = rng.getrandbits(32)
        fast_noise = make_rng(noise_seed)
        reference_noise = make_rng(noise_seed)
        for iteration in range(15):
            fast_message = fast_session.build_message(iteration, fast_transcript)
            reference_message = reference_session.build_message(iteration, reference_transcript)
            assert fast_message == reference_message, (trial, iteration)

            reply = _corrupt(fast_noise, fast_message)
            assert reply == _corrupt(reference_noise, reference_message)
            fast_outcome = fast_session.process_reply(iteration, fast_transcript, reply)
            reference_outcome = reference_session.process_reply(
                iteration, reference_transcript, reply
            )
            assert _outcome_tuple(fast_outcome) == _outcome_tuple(reference_outcome)
            assert _session_state(fast_session) == _session_state(reference_session)
            if fast_outcome.truncate_to is not None:
                fast_transcript.truncate_to(fast_outcome.truncate_to)
                reference_transcript.truncate_to(reference_outcome.truncate_to)


# ------------------------------------------------------------ trial-level runs --


def _trial_fingerprint(result):
    return (
        result.success,
        result.outputs,
        result.metrics,
        result.channel_summary,
        result.iterations_run,
        result.final_link_agreement,
        result.randomness_exchange_agreed,
    )


_TRIAL_CASES = {
    "crs-noise": (crs_oblivious_scheme, lambda: RandomNoiseAdversary(corruption_probability=0.004, seed=3)),
    "crs-inserting": (
        crs_oblivious_scheme,
        lambda: RandomNoiseAdversary(corruption_probability=0.002, insertion_probability=0.002, seed=4),
    ),
    "algorithm-a-deletion": (algorithm_a, lambda: DeletionAdversary(deletion_probability=0.004, seed=5)),
    "algorithm-b-noise": (algorithm_b, lambda: RandomNoiseAdversary(corruption_probability=0.002, seed=6)),
}


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_across_fast_path_switches(case, gossip_clique4):
    """Whole trials agree field for field across every switch combination."""
    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run(fast_hashing: bool, packed: bool):
        simulator = InteractiveCodingSimulator(
            gossip_clique4,
            scheme=scheme_factory(),
            adversary=adversary_factory(),
            seed=7,
        )
        simulator.fast_hashing = fast_hashing
        simulator.packed = packed
        return simulator.run()

    reference = _trial_fingerprint(run(False, False))
    for fast_hashing, packed in ((True, False), (False, True), (True, True)):
        assert _trial_fingerprint(run(fast_hashing, packed)) == reference, (
            case,
            fast_hashing,
            packed,
        )


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_with_obs_on_and_off(case, gossip_clique4):
    """Observability is a pure reader: metrics + tracing change nothing.

    The tracer draws its ids from ``os.urandom`` and the registry flush runs
    after the simulation, so every field of the result — outputs, metrics,
    channel summary — must match the uninstrumented run bit for bit, on both
    the fast and the reference hashing paths.
    """
    from repro.obs import MetricsRegistry, Tracer, use_obs

    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run(fast_hashing: bool):
        simulator = InteractiveCodingSimulator(
            gossip_clique4,
            scheme=scheme_factory(),
            adversary=adversary_factory(),
            seed=7,
        )
        simulator.fast_hashing = fast_hashing
        return simulator.run()

    for fast_hashing in (False, True):
        plain = _trial_fingerprint(run(fast_hashing))
        registry = MetricsRegistry()
        with use_obs(metrics=registry, tracer=Tracer()):
            observed = _trial_fingerprint(run(fast_hashing))
        assert observed == plain, (case, fast_hashing)
        # The flush attributed the hash builds to the right implementation.
        counters = registry.snapshot()["counters"]
        if fast_hashing:
            assert counters.get("hashing.packed_builds", 0) > 0
            assert counters.get("hashing.reference_builds", 0) == 0
        else:
            assert counters.get("hashing.reference_builds", 0) > 0
            assert counters.get("hashing.packed_builds", 0) == 0
