"""Picklable adversary factories that declare their trial key.

The runtime needs two things of a factory:

* the :class:`~repro.runtime.backends.ProcessPoolBackend` must *pickle* it
  to ship it to worker processes, and
* :func:`~repro.runtime.spec.fingerprint_trial` keys the trial on the
  factory's class and fields (``dataclasses.asdict``), so the factory must
  be a dataclass.  A callable in a field is keyed by its import path, so it
  must be a module-level function, not a lambda or a local function;
  :func:`~repro.runtime.spec.build_trial_specs` raises ``TypeError``
  otherwise.

Each factory here is a small frozen dataclass whose fields are exactly the
parameters of the adversary it builds, so equality, pickling and the key
all come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.adversary.strategies import (
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
)


@dataclass(frozen=True)
class NoiselessFactory:
    """Always a clean channel (dataclass twin of ``noiseless_factory``)."""

    def __call__(self, seed: int) -> Adversary:
        return NoiselessAdversary()


@dataclass(frozen=True)
class RandomNoiseFactory:
    """Per-slot random insertion/deletion/substitution noise.

    ``insertion_fraction=None`` uses the conventional ``fraction / 4`` from
    the noise sweeps; pass ``0.0`` to disable insertions entirely.
    """

    fraction: float
    insertion_fraction: Optional[float] = None

    def __call__(self, seed: int) -> Adversary:
        insertion = self.insertion_fraction
        if insertion is None:
            insertion = self.fraction / 4
        return RandomNoiseAdversary(
            corruption_probability=self.fraction,
            insertion_probability=insertion,
            seed=seed,
        )


@dataclass(frozen=True)
class NoiseOrNoiselessFactory:
    """Substitution-only random noise, degrading to a clean channel at 0.

    Mirrors the theorem-validation harness: ``fraction <= 0`` yields a
    :class:`NoiselessAdversary` (so the transport can skip silent slots),
    otherwise substitution noise without insertions.
    """

    fraction: float

    def __call__(self, seed: int) -> Adversary:
        if self.fraction <= 0.0:
            return NoiselessAdversary()
        return RandomNoiseAdversary(corruption_probability=self.fraction, seed=seed)


@dataclass(frozen=True)
class LinkTargetedFactory:
    """A bounded number of corruptions concentrated on one directed link."""

    errors: int
    target: Tuple[int, int] = (0, 1)
    phases: Tuple[str, ...] = ("simulation",)

    def __call__(self, seed: int) -> Adversary:
        return LinkTargetedAdversary(
            target=self.target,
            phases=self.phases,
            max_corruptions=self.errors,
            seed=seed,
        )


@dataclass(frozen=True)
class PhaseTargetedFactory:
    """Adaptive (non-oblivious) noise aimed at the scheme's control traffic."""

    fraction: float
    phases: Tuple[str, ...] = ("meeting_points", "flag_passing", "simulation")

    def __call__(self, seed: int) -> Adversary:
        return PhaseTargetedAdaptiveAdversary(
            fraction=self.fraction, phases=self.phases, seed=seed
        )


@dataclass(frozen=True)
class BoundFractionFactory:
    """Bind a noise fraction into a two-argument ``(seed, fraction)`` factory.

    Table 1 cells carry module-level ``(seed, fraction) -> Adversary``
    builders; this adapter fixes the fraction, yielding the one-argument
    factory the harness expects — the picklable replacement for
    ``lambda seed: factory(seed, fraction)``.
    """

    factory: Callable[[int, float], Adversary]
    fraction: float

    def __call__(self, seed: int) -> Adversary:
        return self.factory(seed, self.fraction)
