"""Result objects returned by the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import RunMetrics
from repro.core.parameters import SchemeParameters


@dataclass
class SimulationResult:
    """What one run of the noise-resilient simulation returns: the parties'
    outputs, the noiseless reference outputs and the run's
    :class:`~repro.analysis.metrics.RunMetrics`.

    ``success`` is the paper's notion of correct simulation: every party's
    output under the coding scheme equals its output in the noiseless
    reference execution of Π.  Ground truth beyond the metrics (the
    potential Φ, per-link transcripts) is not part of the result: Φ comes
    from a flight recorder's ``potential`` events, and the transcripts stay
    on the simulator.
    """

    scheme: SchemeParameters
    success: bool
    outputs: Dict[int, object]
    reference_outputs: Dict[int, object]
    metrics: RunMetrics
    iterations_run: int
    iterations_budget: int
    num_real_chunks: int

    def failed_parties(self) -> List[int]:
        """Parties whose simulated output differs from the noiseless one."""
        return sorted(
            party
            for party, output in self.reference_outputs.items()
            if self.outputs.get(party) != output
        )

    @property
    def overhead(self) -> float:
        """Communication blow-up factor CC(simulation)/CC(Π)."""
        return self.metrics.overhead

    @property
    def rate(self) -> float:
        """Communication rate CC(Π)/CC(simulation)."""
        return self.metrics.rate

    @property
    def noise_fraction(self) -> float:
        return self.metrics.noise_fraction

    def summary(self) -> Dict[str, object]:
        """A compact dictionary for reports, sweeps and benchmarks."""
        data = self.metrics.as_dict()
        data.update(
            {
                "iterations_budget": self.iterations_budget,
                "num_real_chunks": self.num_real_chunks,
                "failed_parties": self.failed_parties(),
            }
        )
        return data
