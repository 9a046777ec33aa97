"""Engine execution configuration.

One frozen :class:`EngineConfig` consolidates every engine/transport switch
that selects *how* a trial is executed without changing *what* it computes:
all configurations are pinned bit-identical in deliveries, statistics and
decisions by the equivalence suites (``tests/test_hashing_equivalence.py``,
``tests/test_transport.py``, ``tests/test_engine_fuzz.py``).  Because the
switches cannot change results, they are **fingerprint-invisible**: an
:class:`EngineConfig` never enters a trial fingerprint or a cache key
(asserted by ``tests/test_engine_config.py``), so cached results stay valid
whichever execution path produced them.

The switches, fastest first:

``packed``
    Carry protocol windows as packed ``(bits, present)`` integer planes end
    to end — transport, adversary kernels, statistics and the
    meeting-points hash exchange (``exchange_window_packed``) — and run
    each flag-passing / simulation / rewind round as one round frame over
    every directed link (``exchange_round``).
``batched_transport``
    One ``corrupt_window`` call per directed link per window instead of one
    ``corrupt`` call per slot.
``fast_hashing``
    Batched meeting-points hashing: one seed derivation and one multi-value
    digest pass per iteration instead of per-hash calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Execution-path switches for :class:`~repro.core.engine.InteractiveCodingSimulator`.

    Frozen: derive variants with :meth:`with_overrides` (or
    ``dataclasses.replace``).
    """

    fast_hashing: bool = True
    batched_transport: bool = True
    packed: bool = True

    def with_overrides(self, **overrides: bool) -> "EngineConfig":
        """A copy with the given switches replaced."""
        return replace(self, **overrides)


#: The default execution profile: every fast path on.
DEFAULT_ENGINE_CONFIG = EngineConfig()

#: The reference execution profile: every optimisation off — per-slot
#: transport, per-call hashing, symbol-list windows.  This is the semantics all
#: fast paths are pinned bit-identical to, and the baseline the benchmarks in
#: ``benchmarks/`` report speedups against.
REFERENCE_ENGINE_CONFIG = EngineConfig(
    fast_hashing=False,
    batched_transport=False,
    packed=False,
)
