"""The span tracer: lightweight, monotonic-clock timed, one trace per sweep.

A *span* is one named, timed region of work — ``trial``, ``phase``,
``iteration``, ``worker_chunk``, ``cache_probe``, ``trial_set`` — recorded
as a plain dict so it serialises to JSON without a schema layer:

    {"name": "phase", "trace_id": "…", "span_id": "…", "parent_id": "…",
     "start": <unix seconds>, "duration": <seconds>,
     "attrs": {"phase": "meeting_points", "iteration": 3}}

Durations come from ``time.perf_counter()`` (monotonic — a wall-clock step
cannot stretch a span); ``start`` is wall-clock so spans from different pool
processes order sensibly in one tree.  Span and trace ids are
drawn from :func:`os.urandom`, **never** from :mod:`random` — the simulator's
RNG streams must be bit-identical with tracing on and off, so the tracer may
not touch any seeded generator.

Sampling: ``sample_every=N`` records every N-th trial (the first of each N).
Suppression is thread-local — an unsampled trial suppresses the phase and
iteration spans opened under it without a conditional at every call site,
and without affecting trials running concurrently on other threads.

Cross-process propagation: a process-pool chunk carries ``(trace_id, parent
span id, sample_every)`` in its :func:`~repro.runtime.backends.chunk_request`;
the chunk runs under a local ``Tracer`` with the same trace id, inside one
``worker_chunk`` span, and its finished span dicts come back for the caller
to :meth:`adopt`.  One pooled sweep therefore yields one coherent trace.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional


def new_id() -> str:
    """A fresh 64-bit hex id from OS entropy (RNG-stream neutral)."""
    return os.urandom(8).hex()


class Span:
    """Handle for an open span; ``attrs`` may be extended while it is open."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_start_wall", "_start_perf")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str], attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is running."""
        self.attrs.update(attrs)


class _SpanContext:
    """``with tracer.span(...)`` context manager; yields the :class:`Span`
    (or ``None`` when the tracer is suppressing an unsampled trial)."""

    __slots__ = ("_tracer", "_name", "_parent_id", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, parent_id: Optional[str], attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent_id = parent_id
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self._span = self._tracer._open(self._name, self._parent_id, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        if self._span is not None:
            self._tracer._close(self._span)


class _SuppressContext:
    """Context manager that suppresses span recording on this thread
    (an unsampled trial and everything opened under it)."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._previous = False

    def __enter__(self) -> None:
        state = self._tracer._state()
        self._previous = state.suppressed
        state.suppressed = True
        return None

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._state().suppressed = self._previous


class Tracer:
    """Collects spans for one trace; safe to share across threads.

    ``sample_every`` counts the trials this tracer opens.  On the pool
    backend each chunk has its own tracer, so ``--trace-sample N`` counts
    trials per chunk there (the first trial of every chunk is recorded).
    """

    def __init__(self, sample_every: int = 1, trace_id: Optional[str] = None) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.trace_id = trace_id or new_id()
        self.sample_every = sample_every
        self._lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []
        self._trials_seen = 0
        self._local = threading.local()

    # -- internals ---------------------------------------------------------

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.suppressed = False
        return local

    def _open(self, name: str, parent_id: Optional[str], attrs: Dict[str, Any]) -> Optional[Span]:
        state = self._state()
        if state.suppressed:
            return None
        if parent_id is None and state.stack:
            parent_id = state.stack[-1].span_id
        span = Span(name, new_id(), parent_id, attrs)
        state.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        duration = time.perf_counter() - span._start_perf
        state = self._state()
        if state.stack and state.stack[-1] is span:
            state.stack.pop()
        else:  # pragma: no cover - misnested exits; drop rather than corrupt
            state.stack = [entry for entry in state.stack if entry is not span]
        payload = {
            "name": span.name,
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span._start_wall,
            "duration": duration,
            "attrs": span.attrs,
        }
        with self._lock:
            self._finished.append(payload)

    # -- public API --------------------------------------------------------

    def span(self, name: str, parent_id: Optional[str] = None, **attrs: Any) -> _SpanContext:
        """Open a span for the duration of a ``with`` block.  The parent is
        the innermost open span on this thread unless given explicitly."""
        return _SpanContext(self, name, parent_id, attrs)

    def trial(self, parent_id: Optional[str] = None, **attrs: Any):
        """Open a ``trial`` span — or, for unsampled trials, suppress all
        span recording on this thread for the block."""
        with self._lock:
            index = self._trials_seen
            self._trials_seen += 1
        if index % self.sample_every:
            return _SuppressContext(self)
        return _SpanContext(self, "trial", parent_id, attrs)

    def current_span_id(self) -> Optional[str]:
        """The innermost open span id on this thread, if any."""
        stack = self._state().stack
        return stack[-1].span_id if stack else None

    def adopt(self, spans: Iterable[Dict[str, Any]]) -> int:
        """Merge finished span dicts from another tracer (a pool chunk's),
        rewriting their trace id onto this trace; returns how many."""
        adopted = 0
        with self._lock:
            for span in spans:
                if not isinstance(span, dict):
                    continue
                entry = dict(span)
                entry["trace_id"] = self.trace_id
                self._finished.append(entry)
                adopted += 1
        return adopted

    def drain(self) -> List[Dict[str, Any]]:
        """All finished spans so far, cleared from the tracer — so one tracer
        shared across an experiment grid yields one trace record per cell."""
        with self._lock:
            finished, self._finished = self._finished, []
        return finished
