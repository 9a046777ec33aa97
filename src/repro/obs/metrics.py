"""The metrics registry: counters with interned names.

A :class:`MetricsRegistry` is a plain in-process accumulator — no exporter,
no background thread, no wire format beyond :meth:`snapshot`.  It holds
**counters**: monotonically increasing integers (``engine.rounds_total``,
``cache.hits``).  Everything the simulator counts is deterministic per seed,
so counter values diff exactly across runs — which is what lets ``repro runs
diff --kind metrics`` gate CI on *causal* regressions ("dense dispatches must
stay 0 on sparse workloads") instead of wall clock alone.

Names are interned (:func:`sys.intern`): the same metric is incremented many
times with the same literal, and interning makes every later dict lookup a
pointer comparison.  All mutation is lock-guarded, so threads may share one
registry.

The registry is reached ambiently through :func:`repro.obs.get_obs`; when no
registry is installed (the default), instrumented code skips its flush
entirely, which is what keeps the disabled overhead near zero.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple


class MetricsRegistry:
    """Thread-safe counter accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

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

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A structured copy: ``{"counters": {name: value}}``."""
        with self._lock:
            return {"counters": dict(self._counters)}

    def flat_snapshot(self) -> Dict[str, float]:
        """One flat ``name → number`` map — the shape stored records and
        diffs consume."""
        with self._lock:
            return dict(self._counters)


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
