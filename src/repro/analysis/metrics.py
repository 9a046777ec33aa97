"""Derived metrics of a simulation run.

The theorems are stated in terms of a handful of quantities:

* the **rate** — communication of the noiseless protocol divided by the
  communication of the simulation (Θ(1) is the headline claim),
* the **noise fraction** actually inflicted by the adversary,
* the **success** of the simulation (all parties output what they would have
  output over a noiseless network), and
* the failure probability over repeated randomised runs.

``RunMetrics`` packages those for a single run; ``summarize_runs`` aggregates
repeated trials into the success-rate / mean-overhead rows that the Table 1
harness and the noise sweeps report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from statistics import mean
from typing import Callable, Dict, Iterable, Optional, Type, TypeVar

_Payload = TypeVar("_Payload")


def _is_count(value: object) -> bool:
    """Whether a payload value is a count: a non-negative int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


#: What a payload value must be for each field annotation: an ``int`` field
#: holds a count (never negative, never a bool), and a count is a valid real.
_FIELD_CHECKS: Dict[str, Callable[[object], bool]] = {
    "str": lambda value: isinstance(value, str),
    "bool": lambda value: isinstance(value, bool),
    "int": _is_count,
    "float": lambda value: _is_count(value) or isinstance(value, float),
    "Dict[str, int]": lambda value: isinstance(value, dict)
    and all(isinstance(key, str) and _is_count(item) for key, item in value.items()),
}


def _from_payload(cls: Type[_Payload], data: object) -> _Payload:
    """``cls`` built from the payload's values of its fields; unknown keys are
    ignored, and a value of the wrong type raises :class:`TypeError`."""
    if not isinstance(data, dict):
        raise TypeError(f"a {cls.__name__} payload must be a JSON object, got {data!r}")
    values = {}
    for spec in fields(cls):
        if spec.name in data:
            value = data[spec.name]
            if not _FIELD_CHECKS[spec.type](value):
                raise TypeError(f"{cls.__name__}.{spec.name} must be {spec.type}, got {value!r}")
            values[spec.name] = value
    return cls(**values)


@dataclass(frozen=True)
class RunMetrics:
    """Quantitative summary of one simulation run."""

    scheme: str
    success: bool
    protocol_communication: int
    simulation_communication: int
    corruptions: int
    noise_fraction: float
    iterations_run: int
    iterations_budget: int
    communication_by_phase: Dict[str, int] = field(default_factory=dict)
    corruptions_by_phase: Dict[str, int] = field(default_factory=dict)
    meeting_point_truncations: int = 0
    rewinds_sent: int = 0
    hash_mismatches_detected: int = 0
    hash_collisions_observed: int = 0
    randomness_exchange_failures: int = 0

    @property
    def overhead(self) -> float:
        """CC(simulation) / CC(Π) — the inverse of the rate."""
        if self.protocol_communication == 0:
            return float("inf")
        return self.simulation_communication / self.protocol_communication

    @property
    def rate(self) -> float:
        """CC(Π) / CC(simulation) ∈ (0, 1] — the paper's notion of rate."""
        if self.simulation_communication == 0:
            return 0.0
        return self.protocol_communication / self.simulation_communication

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "success": self.success,
            "cc_protocol": self.protocol_communication,
            "cc_simulation": self.simulation_communication,
            "overhead": self.overhead,
            "rate": self.rate,
            "corruptions": self.corruptions,
            "noise_fraction": self.noise_fraction,
            "iterations_run": self.iterations_run,
            "hash_collisions": self.hash_collisions_observed,
            "truncations": self.meeting_point_truncations,
            "rewinds": self.rewinds_sent,
        }

    def to_payload(self) -> Dict[str, object]:
        """Lossless JSON-able representation (unlike :meth:`as_dict`, which
        is a human-facing summary)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "RunMetrics":
        """Inverse of :meth:`to_payload`; ignores unknown keys so newer
        writers stay readable by older code, and raises :class:`TypeError`
        on a wrong-typed field."""
        return _from_payload(cls, data)


@dataclass(frozen=True)
class AggregateMetrics:
    """Success rate and mean overhead over repeated randomised runs."""

    scheme: str
    trials: int
    successes: int
    mean_overhead: float
    mean_noise_fraction: float
    mean_corruptions: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "mean_overhead": self.mean_overhead,
            "mean_noise_fraction": self.mean_noise_fraction,
            "mean_corruptions": self.mean_corruptions,
        }

    def to_payload(self) -> Dict[str, object]:
        """Lossless JSON-able representation."""
        return asdict(self)

    @classmethod
    def from_payload(cls, data: Dict[str, object]) -> "AggregateMetrics":
        """Inverse of :meth:`to_payload`; ignores unknown keys and raises
        :class:`TypeError` on a wrong-typed field."""
        return _from_payload(cls, data)


def summarize_runs(runs: Iterable[RunMetrics], scheme: Optional[str] = None) -> AggregateMetrics:
    """Aggregate repeated trials of the same configuration."""
    runs = list(runs)
    if not runs:
        raise ValueError("cannot summarise an empty collection of runs")
    name = scheme if scheme is not None else runs[0].scheme
    return AggregateMetrics(
        scheme=name,
        trials=len(runs),
        successes=sum(1 for run in runs if run.success),
        mean_overhead=mean(run.overhead for run in runs),
        mean_noise_fraction=mean(run.noise_fraction for run in runs),
        mean_corruptions=mean(run.corruptions for run in runs),
    )
