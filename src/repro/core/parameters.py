"""Scheme parameters and the presets for Algorithms A, B and C.

The coding scheme is one algorithm (Algorithm 1) parameterised by

* ``K`` — the chunk scale; a chunk of the underlying protocol carries
  ``chunk_multiplier * K`` bits (the paper's ``5K``),
* the hash output length τ used by the meeting-points phase,
* whether the hash seeds come from a common random string (CRS) or from a
  per-link randomness exchange expanded to a δ-biased string, and
* the iteration budget (the paper runs ``100·|Π|`` iterations).

The remaining choices are fixed constants, not fields: the iteration budget
is at least 8 and adds 6 iterations of slack to ``iteration_factor·|Π|``;
the rewind phase runs n rounds (the paper's choice); the chunk plan appends
:class:`~repro.core.chunking.ChunkedProtocol`'s 2 dummy chunks; and the
δ-biased generator uses the field degree 64 that
:class:`~repro.hashing.seeds.CrsSeedSource` and
:func:`~repro.core.randomness_exchange.run_randomness_exchange` default to.

The paper's instantiations:

=============  ========  ==============  =============  =====================
scheme         CRS?      K               τ              tolerated noise
=============  ========  ==============  =============  =====================
Algorithm 1    yes       m               Θ(1)           ε/m   (oblivious)
Algorithm A    no        m               Θ(1)           ε/m   (oblivious)
Algorithm B    no        m·log m         Θ(log m)       ε/(m·log m)
Algorithm C    yes       m·log log m     Θ(log m)       ε/(m·log log m)
=============  ========  ==============  =============  =====================

The analysis constants (the "100" iterations, the C₁…C₇ of the potential) are
proof artefacts; we expose them as tunable fields with practical defaults and
record the paper's values in the docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.network.graph import Graph


def _ceil_log2(value: float) -> int:
    """⌈log₂ value⌉ with a floor of 1 (used for K = m·log m style scalings)."""
    if value <= 2:
        return 1
    return max(1, math.ceil(math.log2(value)))


@dataclass(frozen=True)
class SchemeParameters:
    """All knobs of the noise-resilient simulation."""

    #: Human-readable scheme name used in reports ("algorithm_a", ...).
    name: str = "algorithm_crs"

    #: If True the hash seeds come from a shared CRS (Algorithm 1 / C);
    #: otherwise each link runs the randomness exchange of Algorithm 5.
    use_crs: bool = True

    #: How K scales with the network: "m", "m_log_m" or "m_log_log_m".
    k_mode: str = "m"

    #: A chunk carries ``chunk_multiplier * K`` bits of Π (the paper's 5).
    chunk_multiplier: int = 5

    #: Hash output length policy: "constant" (Algorithm 1/A) or "log_m" (B/C).
    hash_mode: str = "constant"
    #: τ when ``hash_mode == "constant"``.
    hash_constant_bits: int = 8

    #: Iteration budget: ``ceil(iteration_factor * |Π|) + 6`` iterations, at
    #: least 8.  The paper uses factor 100 and no early stop; the default is
    #: far smaller because the analysis constants are loose, and a run stops
    #: as soon as every link transcript correctly contains all real chunks
    #: (see the engine docs).
    iteration_factor: float = 4.0

    #: Ablation switches (see :mod:`repro.experiments.ablations`).
    enable_flag_passing: bool = True
    enable_rewind_phase: bool = True

    # -- derived quantities ----------------------------------------------------

    def scale_k(self, graph: Graph) -> int:
        """K for the given network."""
        m = graph.num_edges
        if self.k_mode == "m":
            return m
        if self.k_mode == "m_log_m":
            return m * _ceil_log2(m)
        if self.k_mode == "m_log_log_m":
            return m * _ceil_log2(_ceil_log2(m) + 1)
        raise ValueError(f"unknown k_mode {self.k_mode!r}")

    def chunk_budget(self, graph: Graph) -> int:
        """Bits of Π per chunk (the paper's 5K)."""
        return self.chunk_multiplier * self.scale_k(graph)

    def hash_output_bits(self, graph: Graph) -> int:
        """τ, the meeting-points hash output length."""
        if self.hash_mode == "constant":
            return self.hash_constant_bits
        if self.hash_mode == "log_m":
            return max(self.hash_constant_bits, _ceil_log2(graph.num_edges) + 4)
        raise ValueError(f"unknown hash_mode {self.hash_mode!r}")

    def nominal_noise_fraction(self, graph: Graph, epsilon: float = 0.01) -> float:
        """The noise fraction the scheme is designed to tolerate (ε over the scale)."""
        m = graph.num_edges
        if self.k_mode == "m":
            return epsilon / m
        if self.k_mode == "m_log_m":
            return epsilon / (m * _ceil_log2(m))
        if self.k_mode == "m_log_log_m":
            return epsilon / (m * _ceil_log2(_ceil_log2(m) + 1))
        raise ValueError(f"unknown k_mode {self.k_mode!r}")

    def iterations(self, num_chunks: int) -> int:
        """Iteration budget for a protocol with ``num_chunks`` chunks."""
        return max(8, math.ceil(self.iteration_factor * num_chunks) + 6)

    def with_overrides(self, **kwargs) -> "SchemeParameters":
        """A copy with some fields replaced (convenience for sweeps/ablations)."""
        return replace(self, **kwargs)


# -- presets -------------------------------------------------------------------


def crs_oblivious_scheme(**overrides) -> SchemeParameters:
    """Algorithm 1 with a CRS (Theorem 4.1): ε/m oblivious noise, K = m, constant τ."""
    return SchemeParameters(name="algorithm_crs", use_crs=True, k_mode="m", hash_mode="constant").with_overrides(**overrides)


def algorithm_a(**overrides) -> SchemeParameters:
    """Algorithm A (Theorem 5.1): no CRS, ε/m oblivious noise, K = m, constant τ."""
    return SchemeParameters(name="algorithm_a", use_crs=False, k_mode="m", hash_mode="constant").with_overrides(**overrides)


def algorithm_b(**overrides) -> SchemeParameters:
    """Algorithm B (Theorem 6.1): no CRS, ε/(m log m) non-oblivious noise, K = m log m, τ = Θ(log m)."""
    return SchemeParameters(name="algorithm_b", use_crs=False, k_mode="m_log_m", hash_mode="log_m").with_overrides(**overrides)


def algorithm_c(**overrides) -> SchemeParameters:
    """Algorithm C (Appendix B): CRS, ε/(m log log m) non-oblivious noise, K = m log log m, τ = Θ(log m)."""
    return SchemeParameters(name="algorithm_c", use_crs=True, k_mode="m_log_log_m", hash_mode="log_m").with_overrides(**overrides)


SCHEME_PRESETS = {
    "algorithm_crs": crs_oblivious_scheme,
    "algorithm_a": algorithm_a,
    "algorithm_b": algorithm_b,
    "algorithm_c": algorithm_c,
}


def scheme_by_name(name: str, **overrides) -> SchemeParameters:
    """Look up a preset by name."""
    try:
        factory = SCHEME_PRESETS[name]
    except KeyError as exc:
        raise ValueError(f"unknown scheme {name!r}; known: {sorted(SCHEME_PRESETS)}") from exc
    return factory(**overrides)
