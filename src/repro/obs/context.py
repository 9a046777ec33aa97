"""The ambient observability scope (the obs mirror of ``use_runtime``).

Instrumented code never takes a registry or tracer argument — it asks
:func:`get_obs` for the active :class:`ObsContext` and does nothing when the
context is disabled.  That keeps instrumentation fingerprint-invisible (no
constructor signatures change, no scheme fields appear, trial keys are
untouched) and keeps the disabled cost to one attribute read.

Unlike the runtime context, the override is **thread-local** over the
disabled default: a per-thread :func:`use_obs` lets code on one thread
record into its own tracer without trampling another thread's scope.
``ProcessPoolBackend`` worker *processes* do not inherit the context at all;
each pool chunk runs through
:func:`~repro.runtime.backends.run_chunk` under fresh local instruments
matching the caller's and hands its counters, spans and dumps back, so every
backend records the same thing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer

#: "Argument not provided" sentinel (same convention as the runtime context's).
UNSET = object()
_UNSET = UNSET


@dataclass(frozen=True)
class ObsContext:
    """What instrumented code reports into; all fields default to off."""

    metrics: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    recorder: Optional[FlightRecorder] = None

    @property
    def enabled(self) -> bool:
        return self.metrics is not None or self.tracer is not None or self.recorder is not None


#: The shared disabled context — what :func:`get_obs` returns outside any
#: :func:`use_obs` block.
DISABLED = ObsContext()

_local = threading.local()


def get_obs() -> ObsContext:
    """The active observability context (thread override, else the default)."""
    return getattr(_local, "active", None) or DISABLED


@contextmanager
def use_obs(metrics=_UNSET, tracer=_UNSET, recorder=_UNSET) -> Iterator[ObsContext]:
    """Install an observability context for this thread (restored on exit).

    Unset arguments inherit from whatever :func:`get_obs` currently resolves
    to, so nesting composes: a tracer installed at the CLI stays visible
    inside a narrower ``use_obs(metrics=...)`` block.
    """
    current = get_obs()
    context = ObsContext(
        metrics=current.metrics if metrics is _UNSET else metrics,
        tracer=current.tracer if tracer is _UNSET else tracer,
        recorder=current.recorder if recorder is _UNSET else recorder,
    )
    previous = getattr(_local, "active", None)
    _local.active = context
    try:
        yield context
    finally:
        _local.active = previous
