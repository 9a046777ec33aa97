"""Experiment ``small_bias_quality`` plus raw substrate throughput.

These benchmarks time the three cryptographic/coding substrates the scheme is
built on and check the properties the analysis needs from them:

* the inner-product hash has ≈2^-τ collision rate over random seeds
  (Lemma 2.3),
* the AGHP δ-biased generator produces nearly balanced bits from a short
  seed (Lemma 2.5), and
* the Reed–Solomon-based binary code corrects the erasure/substitution mix
  the randomness exchange faces (Theorem 2.1).
"""

from __future__ import annotations

import random


from repro.coding.block_code import BinaryBlockCode
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash, fingerprint_bits
from repro.hashing.small_bias import SmallBiasGenerator, empirical_bias


def test_inner_product_hash_collision_rate(benchmark):
    hasher = InnerProductHash(8)
    rng = random.Random(0)
    x = fingerprint_bits(b"transcript-one")
    y = fingerprint_bits(b"transcript-two")

    def measure(trials: int = 400) -> float:
        collisions = 0
        for _ in range(trials):
            seed = rng.getrandbits(hasher.seed_bits_required(FINGERPRINT_BITS))
            if hasher.digest(x, FINGERPRINT_BITS, seed) == hasher.digest(y, FINGERPRINT_BITS, seed):
                collisions += 1
        return collisions / trials

    rate = benchmark(measure)
    benchmark.extra_info["collision_rate"] = rate
    assert rate <= 6 * hasher.collision_probability()


def test_small_bias_generator_quality_and_throughput(benchmark):
    generator = SmallBiasGenerator(seed_bits=random.Random(3).getrandbits(128), field_degree=64)
    bits = benchmark(generator.bits, 0, 2000)
    bias = empirical_bias(bits)
    benchmark.extra_info["empirical_bias"] = bias
    assert len(bits) == 2000
    assert bias < 0.12


def test_randomness_exchange_code_round_trip(benchmark):
    code = BinaryBlockCode(message_bits=128)
    rng = random.Random(1)
    message = rng.getrandbits(128)
    width = code.codeword_bits

    def roundtrip():
        bits, present = code.encode(message), (1 << width) - 1
        for index in rng.sample(range(width), int(0.03 * width)):
            if rng.random() < 0.5:  # erasure
                bits &= ~(1 << index)
                present &= ~(1 << index)
            else:  # substitution
                bits ^= 1 << index
        return code.decode(bits, present)

    decoded = benchmark(roundtrip)
    assert decoded == message
