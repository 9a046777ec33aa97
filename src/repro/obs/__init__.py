"""repro.obs — tracing, metrics and protocol forensics across the stack.

A near-zero-overhead-when-disabled instrumentation layer, reached ambiently
(:func:`get_obs` / :func:`use_obs`, mirroring ``repro.runtime.use_runtime``)
so no simulator or runtime signature carries observability arguments and no
trial fingerprint ever sees it:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters populated by the
  engine (per-phase round counts, sparse vs dense dispatches, idle rounds
  collapsed), the transport (``ChannelStats`` totals), hashing (message
  builds, seed derivations), the cache and the run store;
* :class:`~repro.obs.trace.Tracer` — monotonic-clock spans (``trial_set`` /
  ``worker_chunk`` / ``trial`` / ``iteration`` / ``phase`` /
  ``cache_probe``) persisted into the
  :class:`~repro.runtime.store.RunStore` beside trial sets, with trace ids
  propagated to pool processes so one pooled sweep yields one trace;
* :class:`~repro.obs.recorder.FlightRecorder` — bounded per-trial protocol
  event timelines for failure forensics (``--forensics``).

Everything here is stdlib-only and imports nothing from the rest of
``repro`` (beyond itself), so any layer — including the network core — can
reach the ambient context without import cycles.

Enable from the CLI with ``--obs`` / ``--trace``, or in code::

    from repro.obs import MetricsRegistry, Tracer, use_obs

    registry, tracer = MetricsRegistry(), Tracer(sample_every=4)
    with use_obs(metrics=registry, tracer=tracer):
        run_trials(workload, scheme, factory, trials=20)
    print(registry.flat_snapshot())
"""

from repro.obs.context import DISABLED, UNSET, ObsContext, get_obs, use_obs
from repro.obs.metrics import MetricsRegistry, counters_delta, format_metrics_rows
from repro.obs.recorder import EVENT_KINDS, FlightRecorder, classify_slot, link_label
from repro.obs.surface import critical_path, render_critical_path, render_trace_tree
from repro.obs.trace import Span, Tracer, new_id

__all__ = [
    "ObsContext",
    "DISABLED",
    "UNSET",
    "get_obs",
    "use_obs",
    "MetricsRegistry",
    "counters_delta",
    "format_metrics_rows",
    "FlightRecorder",
    "EVENT_KINDS",
    "classify_slot",
    "link_label",
    "Tracer",
    "Span",
    "new_id",
    "critical_path",
    "render_critical_path",
    "render_trace_tree",
]
