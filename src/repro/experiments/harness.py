"""Generic experiment harness: repeated randomised trials.

Every experiment in this package reduces to: pick a workload, a scheme and an
adversary *factory* (a callable that builds a fresh adversary per trial, so
each trial sees fresh noise randomness), run several seeds, and aggregate the
outcomes.  ``run_trials`` does exactly that and returns both the individual
:class:`RunMetrics` and the :class:`AggregateMetrics` summary.

Execution is delegated to :mod:`repro.runtime`: trials run on the backend of
the active runtime context (serial by default, a process pool under
``--jobs N``), already-computed trials are served from the
:class:`~repro.runtime.cache.ResultCache`, and — when a
:class:`~repro.runtime.store.RunStore` is active — every trial set is
persisted for later ``repro runs`` inspection.  Passing ``backend=`` /
``cache=`` / ``store=`` explicitly overrides the ambient context per call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.base import Adversary
from repro.analysis.metrics import AggregateMetrics, RunMetrics, summarize_runs
from repro.core.parameters import SchemeParameters
from repro.experiments.factories import NoiselessFactory
from repro.experiments.workloads import Workload
from repro.obs import counters_delta, get_obs
from repro.runtime import (
    ExecutionBackend,
    RunStore,
    build_trial_specs,
    derive_trial_seed,
    execute_trials,
    get_runtime,
)
from repro.runtime.context import UNSET as _UNSET

AdversaryFactory = Callable[[int], Adversary]


#: The default adversary factory: no noise.  A :class:`NoiselessFactory`
#: instance rather than a plain function, so default (noiseless) trials share
#: their cache fingerprint with explicitly constructed ``NoiselessFactory()``
#: cells instead of splitting the cache over two spellings of "no noise".
noiseless_factory: AdversaryFactory = NoiselessFactory()


@dataclass
class TrialSet:
    """All results of one experimental cell (fixed workload/scheme/adversary)."""

    label: str
    runs: List[RunMetrics]
    aggregate: AggregateMetrics
    #: Flight-recorder dumps (one per executed trial, sorted by seed) when a
    #: recorder was ambient during the run; ``None`` otherwise.
    forensics: Optional[List[Dict[str, object]]] = None

    def as_dict(self) -> Dict[str, object]:
        data = self.aggregate.as_dict()
        data["label"] = self.label
        return data


def run_trials(
    workload: Workload,
    scheme: SchemeParameters,
    adversary_factory: AdversaryFactory = noiseless_factory,
    trials: int = 3,
    base_seed: int = 0,
    label: Optional[str] = None,
    backend: Optional[ExecutionBackend] = None,
    cache=_UNSET,
    store=_UNSET,
    seeds: Optional[Sequence[int]] = None,
) -> TrialSet:
    """Run ``trials`` independent simulations of one configuration.

    Each trial gets its own fully-derived seed (``derive_trial_seed``), so the
    result is independent of execution order and backend.  ``seeds`` overrides
    the derivation for harnesses with their own seed schedule.  ``backend`` /
    ``cache`` / ``store`` default to the active runtime context
    (:func:`repro.runtime.use_runtime`); pass ``cache=None`` / ``store=None``
    to disable either for this call.
    """
    if seeds is None:
        if trials < 1:
            raise ValueError("trials must be positive")
        seeds = [derive_trial_seed(base_seed, trial) for trial in range(trials)]
    else:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
    specs = build_trial_specs(workload, scheme, adversary_factory, seeds)
    active_cache = get_runtime().cache if cache is _UNSET else cache
    hits_before = active_cache.stats.hits if active_cache is not None else 0
    name = label if label is not None else f"{workload.name}/{scheme.name}"
    # One registry may span a whole sweep: snapshot before/after and store
    # only this cell's delta.  The tracer likewise accumulates per cell — its
    # drain below empties it, so each cell yields one trace record.
    obs = get_obs()
    metrics_before = obs.metrics.flat_snapshot() if obs.metrics is not None else None
    cell_scope = obs.tracer.span("trial_set", label=name) if obs.tracer is not None else None
    started = time.perf_counter()
    if cell_scope is not None:
        with cell_scope:
            runs = execute_trials(specs, backend=backend, cache=cache)
    else:
        runs = execute_trials(specs, backend=backend, cache=cache)
    wall_clock_seconds = time.perf_counter() - started
    cached_trials = (active_cache.stats.hits - hits_before) if active_cache is not None else 0
    run_store: Optional[RunStore] = get_runtime().store if store is _UNSET else store
    obs_metrics = (
        counters_delta(metrics_before, obs.metrics.flat_snapshot())
        if metrics_before is not None
        else None
    )
    forensics = None
    if obs.recorder is not None:
        # Dumps arrive in execution order; sort by trial seed so the stored
        # record is a pure function of the specs, whatever backend ran them.
        # Cache hits never executed, so a fully-cached cell stores an empty
        # list.
        forensics = sorted(
            obs.recorder.drain(),
            key=lambda dump: (
                (dump.get("trial") or {}).get("seed") is None,
                (dump.get("trial") or {}).get("seed"),
            ),
        )
    trial_set = TrialSet(
        label=name,
        runs=runs,
        aggregate=summarize_runs(runs, scheme=scheme.name),
        forensics=forensics,
    )
    if run_store is not None:
        run_store.record_trial_set(
            label=trial_set.label,
            runs=trial_set.runs,
            aggregate=trial_set.aggregate,
            experiment="run_trials",
            parameters={"scheme": scheme.name, "workload": workload.name, "seeds": list(seeds)},
            # Wall clock of this cell's execute_trials call, plus how many of
            # its trials were cache hits — `runs diff` only gates on the wall
            # clock of runs that computed every trial fresh, so a warm cache
            # can never fake (or mask) a perf regression.
            wall_clock_seconds=wall_clock_seconds,
            cached_trials=cached_trials,
            obs_metrics=obs_metrics,
            forensics=forensics,
        )
        if obs.tracer is not None:
            spans = obs.tracer.drain()
            if spans:
                run_store.record_trace(
                    label=trial_set.label,
                    trace_id=obs.tracer.trace_id,
                    spans=spans,
                    parameters={"scheme": scheme.name, "workload": workload.name},
                )
    return trial_set


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render result dictionaries as a fixed-width text table (for examples/CLI)."""
    widths = {column: len(column) for column in columns}
    rendered_rows: List[Dict[str, str]] = []
    for row in rows:
        rendered: Dict[str, str] = {}
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            rendered[column] = text
            widths[column] = max(widths[column], len(text))
        rendered_rows.append(rendered)
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    body = [
        "  ".join(rendered[column].ljust(widths[column]) for column in columns)
        for rendered in rendered_rows
    ]
    return "\n".join([header, separator, *body])
