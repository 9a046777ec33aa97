"""repro — a reproduction of "Efficient Multiparty Interactive Coding for
Insertions, Deletions and Substitutions" (Gelles, Kalai, Ramnarayan, PODC 2019).

The package provides:

* :mod:`repro.core` — the noise-resilient simulator (Algorithm 1) and the
  scheme presets for Algorithm A (no CRS, oblivious noise, ε/m), Algorithm B
  (no CRS, non-oblivious noise, ε/(m log m)) and Algorithm C (CRS,
  non-oblivious noise, ε/(m log log m));
* :mod:`repro.network` — the synchronous noisy-network substrate;
* :mod:`repro.adversary` — insertion/deletion/substitution noise models;
* :mod:`repro.protocols` — noiseless protocols Π with fixed speaking order;
* :mod:`repro.hashing`, :mod:`repro.coding` — inner-product hashes, δ-biased
  strings and the error-correcting code used by the randomness exchange;
* :mod:`repro.baselines`, :mod:`repro.experiments`, :mod:`repro.analysis` —
  baselines, the Table-1 harness and theorem-validation sweeps;
* :mod:`repro.runtime` — the trial execution engine: serial / process-pool
  backends (bit-identical results), content-addressed result caching, a
  persistent run store and cross-run comparison (``diff_runs``, surfaced as
  ``repro runs diff``).

Quick start — one protected simulation::

    from repro import simulate, algorithm_a
    from repro.network import line_topology
    from repro.protocols import ParityGossipProtocol
    from repro.adversary import RandomNoiseAdversary

    graph = line_topology(5)
    protocol = ParityGossipProtocol(graph, {i: i % 2 for i in range(5)}, phases=8)
    adversary = RandomNoiseAdversary(corruption_probability=0.002, seed=1)
    result = simulate(protocol, scheme=algorithm_a(), adversary=adversary, seed=7)
    assert result.success

Quick start — a repeated-trial experiment, parallel and cached::

    from repro import ProcessPoolBackend, ResultCache, run_trials, use_runtime
    from repro.experiments import gossip_workload
    from repro.experiments.factories import RandomNoiseFactory

    workload = gossip_workload(topology="line", num_nodes=5, phases=8)
    with use_runtime(backend=ProcessPoolBackend(max_workers=4),
                     cache=ResultCache(".repro-cache")):
        trial_set = run_trials(workload, algorithm_a(),
                               adversary_factory=RandomNoiseFactory(0.002), trials=32)
    assert trial_set.aggregate.success_rate == 1.0
"""

from repro.core import (
    InteractiveCodingSimulator,
    SchemeParameters,
    SimulationResult,
    algorithm_a,
    algorithm_b,
    algorithm_c,
    crs_oblivious_scheme,
    scheme_by_name,
    simulate,
)
from repro.experiments.harness import TrialSet, run_trials
from repro.runtime import (
    ExecutionBackend,
    ProcessPoolBackend,
    RegressionThresholds,
    ResultCache,
    RunStore,
    SerialBackend,
    TrialSpec,
    diff_runs,
    execute_trials,
    fingerprint_trial,
    get_runtime,
    use_runtime,
)

# 2.0.0 is the CRS break: CrsSeedSource now derives per-link seeds through
# SmallBiasGenerator.packed_slots (same expansion contract as
# ExchangedSeedSource) with hasher-derived slot capacities, so CRS-scheme
# transcripts and golden fingerprints differ from 1.x.  The version string is
# not part of any trial key: repro.runtime.spec.REALISATION, bound to the
# golden grid's bytes, is what keeps results of changed code from being served.
__version__ = "2.0.0"

__all__ = [
    "InteractiveCodingSimulator",
    "SchemeParameters",
    "SimulationResult",
    "algorithm_a",
    "algorithm_b",
    "algorithm_c",
    "crs_oblivious_scheme",
    "scheme_by_name",
    "simulate",
    # experiment harness
    "TrialSet",
    "run_trials",
    # runtime
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ResultCache",
    "RunStore",
    "TrialSpec",
    "execute_trials",
    "fingerprint_trial",
    "get_runtime",
    "use_runtime",
    # run analytics
    "diff_runs",
    "RegressionThresholds",
    "__version__",
]
