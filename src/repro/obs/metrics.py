"""The metrics registry: counters and histograms with interned names.

A :class:`MetricsRegistry` is a plain in-process accumulator — no exporter,
no background thread, no wire format beyond :meth:`snapshot`.  Two metric
families exist:

* **counters** — monotonically increasing integers (``engine.rounds_total``,
  ``cache.hits``).  Everything the simulator counts is deterministic per
  seed, so counter values diff exactly across runs — which is what lets
  ``repro runs diff --kind metrics`` gate CI on *causal* regressions
  ("dense dispatches must stay 0 on sparse workloads") instead of wall
  clock alone.
* **histograms** — running ``count/sum/min/max`` summaries for timings
  (``distributed.heartbeat_seconds``), plus nearest-rank p50/p90/p99
  percentiles over a bounded window of the most recent
  :data:`RETAINED_SAMPLES` observations (bounded so a million-trial sweep
  cannot grow a registry without limit; the percentile is exact until the
  window fills, recency-weighted after).  Timings are never deterministic,
  so histogram-derived metrics are informative-only in diffs.

Names are interned (:func:`sys.intern`): the same metric is incremented many
times with the same literal, and interning makes every later dict lookup a
pointer comparison.  All mutation is lock-guarded — the distributed
coordinator increments from several driver threads at once.

The registry is reached ambiently through :func:`repro.obs.get_obs`; when no
registry is installed (the default), instrumented code skips its flush
entirely, which is what keeps the disabled overhead near zero.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Per-histogram cap on retained samples for percentile summaries.
RETAINED_SAMPLES = 1024

#: The percentiles every histogram summary reports.
PERCENTILES = (50, 90, 99)


def percentile(samples: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile of a non-empty sample collection."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("cannot take a percentile of no samples")
    index = max(0, -(-len(ordered) * rank // 100) - 1)  # ceil(n*p/100) - 1
    return ordered[int(index)]


class MetricsRegistry:
    """Thread-safe counter/histogram accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        # name -> [count, sum, min, max]
        self._histograms: Dict[str, list] = {}
        # name -> bounded window of the most recent samples (percentiles)
        self._samples: Dict[str, deque] = {}

    # -- writing -----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        if not value:
            return
        name = sys.intern(name)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def inc_many(self, values: Mapping[str, int], prefix: str = "") -> None:
        """Add a whole mapping of counter deltas in one lock acquisition.

        This is the flush-at-end entry point: the hot paths keep plain int
        attributes (``ChannelStats``, the transport dispatch counters, …) and
        pour them in here once per trial instead of taking the lock per event.
        """
        with self._lock:
            for key, value in values.items():
                if not value:
                    continue
                name = sys.intern(prefix + str(key))
                self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        name = sys.intern(name)
        with self._lock:
            summary = self._histograms.get(name)
            if summary is None:
                self._histograms[name] = [1, value, value, value]
                self._samples[name] = deque((value,), maxlen=RETAINED_SAMPLES)
            else:
                summary[0] += 1
                summary[1] += value
                if value < summary[2]:
                    summary[2] = value
                if value > summary[3]:
                    summary[3] = value
                self._samples[name].append(value)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A structured copy: ``{"counters", "histograms"}``."""
        with self._lock:
            histograms: Dict[str, Dict[str, float]] = {}
            for name, summary in self._histograms.items():
                entry = {
                    "count": summary[0],
                    "sum": summary[1],
                    "min": summary[2],
                    "max": summary[3],
                    "mean": summary[1] / summary[0] if summary[0] else 0.0,
                }
                samples = self._samples.get(name)
                if samples:
                    ordered = sorted(samples)
                    for rank in PERCENTILES:
                        entry[f"p{rank}"] = percentile(ordered, rank)
                histograms[name] = entry
            return {
                "counters": dict(self._counters),
                "histograms": histograms,
            }

    def flat_snapshot(self) -> Dict[str, float]:
        """One flat ``name → number`` map: counters verbatim,
        histograms expanded to ``<name>.count`` / ``<name>.sum`` /
        ``<name>.p50``-style keys — the shape stored records and diffs
        consume (percentile keys, like every histogram-derived key, are
        informative-only in diffs)."""
        with self._lock:
            flat: Dict[str, float] = dict(self._counters)
            for name, summary in self._histograms.items():
                flat[f"{name}.count"] = summary[0]
                flat[f"{name}.sum"] = summary[1]
                flat[f"{name}.max"] = summary[3]
                samples = self._samples.get(name)
                if samples:
                    ordered = sorted(samples)
                    for rank in PERCENTILES:
                        flat[f"{name}.p{rank}"] = percentile(ordered, rank)
            return flat


def counters_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    """``after - before`` per key, keeping only keys that moved.

    Used by ``run_trials`` to attribute a shared registry's growth to one
    experimental cell: snapshot before, snapshot after, store the delta.
    """
    delta: Dict[str, float] = {}
    for key, value in after.items():
        moved = value - before.get(key, 0)
        if moved:
            delta[key] = moved
    return delta


def format_metrics_rows(
    flat: Mapping[str, float], prefixes: Optional[Iterable[str]] = None
) -> Tuple[Dict[str, object], ...]:
    """Sorted ``{"metric", "value"}`` rows for table rendering, optionally
    filtered to names starting with one of ``prefixes``."""
    wanted = tuple(prefixes) if prefixes else None
    rows = []
    for name in sorted(flat):
        if wanted is not None and not name.startswith(wanted):
            continue
        value = flat[name]
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        rows.append({"metric": name, "value": value})
    return tuple(rows)
