"""Shared low-level utilities (bit manipulation, reproducible randomness)."""

from repro.utils.bitstring import (
    bits_to_int,
    int_to_bits,
    parity,
    symbol_to_bit,
    symbols_to_bits,
)
from repro.utils.rng import fork, fork_seed, make_rng, random_bits, stable_label_hash

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "parity",
    "symbol_to_bit",
    "symbols_to_bits",
    "fork",
    "fork_seed",
    "make_rng",
    "random_bits",
    "stable_label_hash",
]
