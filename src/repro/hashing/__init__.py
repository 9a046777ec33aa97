"""Hashing substrate: inner-product hashes, small-bias strings, seed sources."""

from repro.hashing.gf2m import GF2m, carryless_multiply
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash, fingerprint_bits
from repro.hashing.seeds import CrsSeedSource, ExchangedSeedSource, SeedSource
from repro.hashing.small_bias import SmallBiasGenerator, required_field_degree, seed_length_bits

__all__ = [
    "GF2m",
    "carryless_multiply",
    "FINGERPRINT_BITS",
    "InnerProductHash",
    "fingerprint_bits",
    "CrsSeedSource",
    "ExchangedSeedSource",
    "SeedSource",
    "SmallBiasGenerator",
    "required_field_degree",
    "seed_length_bits",
]
