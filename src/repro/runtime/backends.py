"""Execution backends: where trials actually run.

``ExecutionBackend`` is the single seam between "what to run" (a list of
:class:`~repro.runtime.spec.TrialSpec`) and "how to run it".  Two
implementations ship today:

* :class:`SerialBackend` — the reference implementation; runs every trial in
  the calling process, in order.
* :class:`ProcessPoolBackend` — fans the trials out over a
  :class:`concurrent.futures.ProcessPoolExecutor` in contiguous chunks.

Determinism contract: every trial carries its own fully-derived seed inside
its spec and builds a fresh adversary from that seed, so a trial's result is
a pure function of its spec.  The pool backend therefore returns results that
are **bit-identical** to the serial backend — parallelism only changes *where*
a trial runs, never *what* it computes.  (``tests/test_runtime.py`` asserts
this equality directly.)

Pickling contract: the pool backend ships specs to worker processes with
pickle, so workloads, schemes and adversary factories must pickle.  Trial
keys already demand it: a factory is a dataclass whose callable fields are
module-level functions (:mod:`repro.experiments.factories`).
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.core.engine import simulate
from repro.obs import FlightRecorder, MetricsRegistry, ObsContext, Tracer, get_obs, use_obs
from repro.runtime.spec import TrialSpec


def execute_trial(spec: TrialSpec) -> RunMetrics:
    """Run one trial: build a fresh adversary from the trial seed and simulate."""
    obs = get_obs()
    recorder = obs.recorder
    if recorder is not None:
        recorder.begin_trial(seed=spec.seed, scheme=spec.scheme.name)
    tracer = obs.tracer
    # ``trial()`` applies the tracer's sampling policy: an unsampled trial
    # suppresses its own span and every engine span opened under it.
    scope = nullcontext() if tracer is None else tracer.trial(seed=spec.seed, scheme=spec.scheme.name)
    with scope as span:
        result = simulate(
            spec.workload.protocol,
            scheme=spec.scheme,
            adversary=spec.adversary_factory(spec.seed),
            seed=spec.seed,
        )
        if span is not None:
            span.set(success=result.success, iterations=result.iterations_run)
    if recorder is not None:
        metrics = result.metrics
        recorder.finish_trial(
            success=result.success,
            iterations_run=metrics.iterations_run,
            iterations_budget=metrics.iterations_budget,
            noise_fraction=metrics.noise_fraction,
            corruptions=metrics.corruptions,
            tolerance=spec.scheme.nominal_noise_fraction(spec.workload.protocol.graph),
            rewinds_sent=metrics.rewinds_sent,
            hash_mismatches_detected=metrics.hash_mismatches_detected,
            hash_collisions_observed=metrics.hash_collisions_observed,
        )
    return result.metrics


def run_chunk(
    specs: Sequence[TrialSpec], request: Optional[Mapping[str, Any]] = None
) -> Tuple[List[RunMetrics], Dict[str, Any]]:
    """Run a shipped chunk of trials: the entry point of pool processes
    (module-level, so it pickles).

    A pool process does not see the caller's ambient obs context, so
    ``request`` (from :func:`chunk_request`) names the instruments the
    caller has on; the chunk runs under fresh local ones for exactly those —
    a traced chunk inside one ``worker_chunk`` span — and what they recorded
    (``counters``, ``spans``, ``dumps``) is returned beside the metrics for
    :func:`adopt_chunk`.
    """
    request = request or {}
    trace, capacity = request.get("trace"), request.get("forensics")
    registry = MetricsRegistry() if request.get("counters") else None
    tracer = None if trace is None else Tracer(trace["sample_every"], trace["trace_id"])
    recorder = None if capacity is None else FlightRecorder(capacity)
    with use_obs(metrics=registry, tracer=tracer, recorder=recorder), (
        nullcontext()
        if tracer is None
        else tracer.span("worker_chunk", parent_id=trace["parent"], trials=len(specs))
    ):
        metrics = [execute_trial(spec) for spec in specs]
    recorded: Dict[str, Any] = {}
    if registry is not None:
        recorded["counters"] = registry.snapshot()["counters"]
    if tracer is not None:
        recorded["spans"] = tracer.drain()
    if recorder is not None:
        recorded["dumps"] = recorder.drain()
    return metrics, recorded


def chunk_request(obs: ObsContext, parent: Optional[str]) -> Dict[str, Any]:
    """The :func:`run_chunk` request for the instruments ``obs`` has on;
    ``parent`` is the span id a traced chunk's ``worker_chunk`` hangs off.
    Empty when observability is off."""
    request: Dict[str, Any] = {}
    if obs.metrics is not None:
        request["counters"] = True
    if obs.tracer is not None:
        request["trace"] = {
            "trace_id": obs.tracer.trace_id,
            "parent": parent,
            "sample_every": obs.tracer.sample_every,
        }
    if obs.recorder is not None:
        request["forensics"] = obs.recorder.capacity
    return request


def adopt_chunk(obs: ObsContext, recorded: Mapping[str, Any]) -> None:
    """Fold what a :func:`run_chunk` recorded into ``obs``'s registry,
    tracer and recorder."""
    if obs.metrics is not None:
        obs.metrics.inc_many(recorded.get("counters") or {})
    if obs.tracer is not None:
        obs.tracer.adopt(recorded.get("spans") or ())
    if obs.recorder is not None:
        obs.recorder.adopt(recorded.get("dumps") or ())


class ExecutionBackend(ABC):
    """Strategy object that turns trial specs into run metrics, in order."""

    #: Short human-readable backend name for logs and stored runs.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Trials actually executed (cache hits never reach the backend).
        self.trials_executed = 0

    @abstractmethod
    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        """Execute every spec and return metrics in the same order."""

    def close(self) -> None:
        """Release whatever the backend holds (pool processes); a later
        :meth:`run` reacquires it.  Nothing to release by default."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every trial in the calling process (the reference semantics)."""

    name = "serial"

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        self.trials_executed += len(specs)
        return [execute_trial(spec) for spec in specs]


class ProcessPoolBackend(ExecutionBackend):
    """Fan trials out over worker processes in contiguous chunks.

    ``max_workers=None`` lets :class:`ProcessPoolExecutor` pick (the CPU
    count).  ``chunk_size=None`` targets roughly four chunks per worker, which
    amortises task submission without starving the pool on skewed workloads.
    Single-trial batches skip the pool entirely — spinning up processes for
    one simulation is pure overhead.

    The executor is created lazily on the first multi-trial batch and reused
    across ``run()`` calls — experiments like Table 1 call ``run_trials`` once
    per cell, and paying pool startup per cell would eat the speedup.  Call
    :meth:`close` (or use the backend as a context manager) to release the
    workers early; otherwise they are reaped at interpreter exit.

    Observability: pool processes do not inherit the ambient
    :mod:`repro.obs` context, so each chunk runs through :func:`run_chunk`
    under fresh local instruments matching the caller's, and its counters,
    spans and dumps are adopted back — a pool run records what a serial run
    would.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None, chunk_size: Optional[int] = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be a positive integer")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self._executor: Optional[ProcessPoolExecutor] = None

    def _chunks(self, specs: List[TrialSpec]) -> List[List[TrialSpec]]:
        workers = self.max_workers or os.cpu_count() or 1
        size = self.chunk_size or max(1, math.ceil(len(specs) / (workers * 4)))
        return [specs[start : start + size] for start in range(0, len(specs), size)]

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later run() restarts it)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        self.trials_executed += len(specs)
        if len(specs) <= 1:
            return [execute_trial(spec) for spec in specs]
        obs = get_obs()
        task = partial(
            run_chunk,
            request=chunk_request(obs, obs.tracer.current_span_id() if obs.tracer is not None else None),
        )
        results: List[RunMetrics] = []
        for chunk_metrics, recorded in self._pool().map(task, self._chunks(specs)):
            results.extend(chunk_metrics)
            adopt_chunk(obs, recorded)
        return results
