"""Content-addressed caching of trial results.

A trial's result is a pure function of its :class:`~repro.runtime.spec.TrialKey`
(see the determinism contract in :mod:`repro.runtime.backends`), so finished
trials can be skipped on re-run.  :class:`ResultCache` keeps an in-memory map
and, when given a directory, mirrors every stored result to an append-only
JSON-lines file so the cache survives across processes:

    <cache_dir>/trials.jsonl     one {"schema", "key", "metrics"} object per line

Entries carry a schema version; lines written by an incompatible version (or
corrupted, e.g. truncated by a crash mid-append) are skipped on load rather
than poisoning the cache.  Unstable keys — specs containing lambdas/closures
that have no canonical fingerprint — always miss and are never stored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.analysis.metrics import RunMetrics
from repro.obs import get_obs
from repro.runtime.spec import TrialKey

#: Bump when the on-disk entry format changes incompatibly.
#: 2 = the 2.0.0 CRS seed-derivation break: entries written by pre-break
#: versions may hold CRS results the current code would compute differently,
#: so they are rejected wholesale on load (skipped, never served) and swept by
#: ``repro cache compact``.
CACHE_SCHEMA_VERSION = 2


def _parse_line(line: str) -> Optional[Tuple[str, RunMetrics]]:
    """The ``(key digest, metrics)`` entry of one ``trials.jsonl`` line, or None
    for a line the cache never serves: not JSON, not an object of the current
    schema, a non-``str`` key, or metrics ``RunMetrics.from_payload`` refuses."""
    try:
        record = json.loads(line)
        if not isinstance(record, dict) or record.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        key, metrics = record["key"], record["metrics"]
        return (key, RunMetrics.from_payload(metrics)) if isinstance(key, str) else None
    except (ValueError, KeyError, TypeError):
        return None


@dataclass
class CacheStats:
    """Hit/miss/store counters, reset per :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


class ResultCache:
    """In-memory trial-result cache with an optional JSON-lines disk mirror."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: Dict[str, RunMetrics] = {}
        self.stats = CacheStats()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._path: Optional[Path] = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._path = self.cache_dir / "trials.jsonl"
            self._load()

    def _load(self) -> None:
        if self._path is None or not self._path.exists():
            return
        # Lines split on "\n" alone and decode as in compact(), so both parse the same lines.
        with self._path.open("r", encoding="utf-8", errors="replace", newline="\n") as handle:
            self._memory.update(entry for entry in map(_parse_line, handle) if entry is not None)

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: TrialKey) -> Optional[RunMetrics]:
        """The cached result for ``key``, or None (unstable keys always miss)."""
        if not key.stable:
            self.stats.misses += 1
            return None
        hit = self._memory.get(key.digest)
        if hit is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return hit

    def put(self, key: TrialKey, metrics: RunMetrics) -> None:
        """Store a freshly computed result (no-op for unstable keys)."""
        if not key.stable:
            return
        self._memory[key.digest] = metrics
        self.stats.stores += 1
        if self._path is not None:
            record = {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key.digest,
                "metrics": metrics.to_payload(),
            }
            with self._path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def compact(self) -> Dict[str, int]:
        """Rewrite ``trials.jsonl`` keeping only the latest entry per key.

        The mirror is append-only, so a key that was re-stored (or a file
        that accumulated lines from an older ``CACHE_SCHEMA_VERSION``) grows
        without bound; ``repro cache compact`` folds it back to one line per
        live key.  Lines a load skips are dropped: both parse a line with
        ``_parse_line``, so compact keeps exactly what a load serves.  The
        rewrite goes through a temp file + atomic rename, so a concurrent
        reader sees either the old file or the new one, never a half-written mix.

        A live writer (a sweep appending results) is tolerated: after the
        main pass, any bytes appended since are drained into the rewrite —
        repeatedly, until a drain comes up empty — before the rename.  The residual window between the last empty drain and
        the rename can in principle drop a line that was being appended at
        that exact instant; a cache line is a recomputable memo, so the cost
        is one re-simulated trial, never a wrong result.

        Returns ``{"kept", "dropped_superseded", "dropped_invalid"}``.
        """
        if self._path is None:
            raise ValueError("compact needs a disk-backed cache (pass cache_dir)")
        latest: Dict[str, str] = {}  # key digest → latest valid line (last one wins)
        counts = {"invalid": 0, "total": 0}
        pending = b""  # a trailing fragment without its newline yet

        def consume(chunk: bytes, final: bool = False) -> None:
            nonlocal pending
            lines = (pending + chunk).split(b"\n")
            pending = lines.pop()  # empty when the chunk ended on a newline
            if final and pending:
                lines.append(pending)
                pending = b""
            for raw in lines:
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                counts["total"] += 1
                entry = _parse_line(line)
                if entry is None:
                    counts["invalid"] += 1
                else:
                    latest[entry[0]] = line.strip()

        offset = 0
        if self._path.exists():
            data = self._path.read_bytes()
            offset = len(data)
            consume(data)
        temp_path = self._path.with_name(f"{self._path.name}.compact-{os.getpid()}")
        try:
            while True:  # drain concurrent appends until none arrive
                try:
                    with self._path.open("rb") as handle:
                        handle.seek(offset)
                        tail = handle.read()
                except FileNotFoundError:
                    tail = b""
                if not tail:
                    break
                offset += len(tail)
                consume(tail)
            consume(b"", final=True)
            with temp_path.open("w", encoding="utf-8") as handle:
                for line in latest.values():
                    handle.write(line + "\n")
            os.replace(temp_path, self._path)
        finally:
            temp_path.unlink(missing_ok=True)
        outcome = {
            "kept": len(latest),
            "dropped_superseded": counts["total"] - counts["invalid"] - len(latest),
            "dropped_invalid": counts["invalid"],
        }
        registry = get_obs().metrics
        if registry is not None:
            registry.inc_many(
                {
                    "cache.compactions": 1,
                    "cache.compact_dropped": outcome["dropped_superseded"] + outcome["dropped_invalid"],
                }
            )
        return outcome

    def clear(self) -> None:
        """Drop the in-memory map and the disk mirror (if any)."""
        self._memory.clear()
        if self._path is not None and self._path.exists():
            self._path.unlink()
