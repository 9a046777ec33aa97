"""A persistent store of experiment runs.

Where the :mod:`~repro.runtime.cache` remembers *trials* (so work can be
skipped), the :class:`RunStore` remembers *runs* (so results can be listed,
audited and compared later).  Every record is one JSON document under the
store root:

    <root>/run-000001.json
    <root>/run-000002.json
    ...

Three kinds of records exist:

* ``trial_set`` — the per-trial :class:`~repro.analysis.metrics.RunMetrics`
  plus the :class:`~repro.analysis.metrics.AggregateMetrics` of one
  experimental cell (written by ``run_trials`` whenever a store is active);
* ``report`` — a full :class:`~repro.experiments.reporting.ExperimentReport`
  (written by the CLI commands);
* ``trace`` — the finished spans of one :class:`~repro.obs.trace.Tracer`
  drain (written when a traced command has a store active).

Every document carries ``schema`` so future layouts can evolve; loading
raises on an unknown schema instead of silently misreading it.  Run ids are
monotonically increasing per store directory.  :mod:`repro.runtime.analytics`
builds cross-run comparison (``diff``) on top of these records.

Listing reads the run documents themselves, in run-id order: a document
that is not a current-schema run (truncated, hand-edited, written by another
version) drops out of the listing.  ``latest`` references walk the same
documents newest-first and stop at their match.  Documents are staged in a
temp file and run ids are claimed with an exclusive hard link, so two
processes recording into the same store cannot tear a document or silently
overwrite each other's runs.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import AggregateMetrics, RunMetrics, _is_count
from repro.obs import get_obs

#: Bump when the run-document layout changes incompatibly.  Deliberately NOT
#: bumped for the 2.0.0 CRS break: stored runs are historical observations,
#: never re-served as results, so pre-break history stays browsable and
#: diffable.  Only the result *cache* (CACHE_SCHEMA_VERSION) and trial
#: keys (TRIAL_KEY_SCHEMA and REALISATION in ``runtime/spec.py``) reject
#: entries of older code.
STORE_SCHEMA_VERSION = 1

_RUN_PREFIX = "run-"
#: The text fields of a summary row; ``trials`` and ``success_rate`` complete it.
_SUMMARY_TEXT = ("run_id", "kind", "experiment", "label", "created_at")


@dataclass(frozen=True)
class StoredRun:
    """A ``trial_set`` record loaded back from disk."""

    run_id: str
    label: str
    experiment: str
    created_at: str
    parameters: Dict[str, object]
    runs: List[RunMetrics]
    aggregate: AggregateMetrics
    #: Wall-clock seconds of the trial-set execution; ``None`` for records
    #: written before timing was recorded.
    wall_clock_seconds: Optional[float] = None


class RunStore:
    """Append-only store of experiment runs under one root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        # The directory is created on first write, not here: read-only
        # commands (``repro runs list``) must not litter the working tree.
        self.root = Path(root)

    # -- writing -----------------------------------------------------------

    def _next_run_id(self) -> str:
        highest = 0
        for path in self.root.glob(f"{_RUN_PREFIX}*.json"):
            try:
                highest = max(highest, int(path.stem[len(_RUN_PREFIX) :]))
            except ValueError:
                continue
        return f"{_RUN_PREFIX}{highest + 1:06d}"

    def _write(self, payload: Dict[str, object]) -> str:
        """Persist one document under the next free run id.

        The document is staged in a temp file and *claimed* with an exclusive
        hard link onto its final name: if another process grabbed the same id
        between our scan and our link, the link fails and we retry with a
        fresh scan — so concurrent writers interleave ids instead of
        overwriting each other, and a reader never sees a half-written file.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload = dict(payload, schema=STORE_SCHEMA_VERSION)
        payload.setdefault("created_at", datetime.now(timezone.utc).isoformat())
        # mkstemp, not a pid-derived name: two threads of one process must
        # stage into different files or one could publish the other's payload.
        descriptor, staged = tempfile.mkstemp(prefix=".staging-", suffix=".json", dir=self.root)
        os.close(descriptor)
        temp = Path(staged)
        try:
            while True:
                run_id = self._next_run_id()
                payload["run_id"] = run_id
                temp.write_text(
                    json.dumps(payload, indent=2, sort_keys=True, default=str), encoding="utf-8"
                )
                try:
                    os.link(temp, self.root / f"{run_id}.json")
                    break
                except FileExistsError:
                    registry = get_obs().metrics
                    if registry is not None:
                        registry.inc("store.claim_conflicts")
                    continue  # lost the race for this id — rescan and retry
        finally:
            temp.unlink(missing_ok=True)
        return run_id

    @staticmethod
    def _summarize(payload: Dict[str, object], run_id: str) -> Optional[Dict[str, object]]:
        """The summary row ``list_runs`` returns, or ``None`` — like an
        unparseable file — when a field the row reads has the wrong type or
        the document names another run id."""
        summary: Dict[str, object] = {
            "run_id": payload.get("run_id", run_id),
            "kind": payload.get("kind", "?"),
            "experiment": payload.get("experiment", ""),
            "label": payload.get("label", ""),
            "created_at": payload.get("created_at", ""),
        }
        if summary["run_id"] != run_id or not all(isinstance(summary[key], str) for key in _SUMMARY_TEXT):
            return None
        if summary["kind"] == "trial_set":
            aggregate = payload.get("aggregate")
            if not isinstance(aggregate, dict):
                return None
            trials, successes = aggregate.get("trials", 0), aggregate.get("successes", 0)
            if not (_is_count(trials) and _is_count(successes)):
                return None
            summary["trials"] = trials
            summary["success_rate"] = successes / trials if trials else ""
        else:
            counted = payload.get("spans" if summary["kind"] == "trace" else "rows", [])
            if not isinstance(counted, list):
                return None
            summary["trials"] = len(counted)
            summary["success_rate"] = ""
        return summary

    def record_trial_set(
        self,
        label: str,
        runs: List[RunMetrics],
        aggregate: AggregateMetrics,
        experiment: str = "trials",
        parameters: Optional[Dict[str, object]] = None,
        wall_clock_seconds: Optional[float] = None,
        cached_trials: Optional[int] = None,
        obs_metrics: Optional[Dict[str, float]] = None,
        forensics: Optional[Sequence[Dict[str, object]]] = None,
    ) -> str:
        """Persist one experimental cell; returns the new run id.

        ``cached_trials`` records how many of the trials were served from the
        result cache — analytics treat the wall clock of a partially-cached
        run as informative only.  ``obs_metrics`` is the flat metric delta this cell produced in the
        ambient :class:`~repro.obs.metrics.MetricsRegistry` (present only
        when one was active) — ``repro runs metrics`` renders it and
        ``repro runs diff --kind metrics`` gates on it.  ``forensics`` is the
        per-trial dump list of an active
        :class:`~repro.obs.recorder.FlightRecorder` — ``repro runs explain``
        and ``repro runs flight`` read it back; purely informative.
        """
        payload: Dict[str, object] = {
            "kind": "trial_set",
            "label": label,
            "experiment": experiment,
            "parameters": parameters or {},
            "runs": [metrics.to_payload() for metrics in runs],
            "aggregate": aggregate.to_payload(),
        }
        if wall_clock_seconds is not None:
            payload["wall_clock_seconds"] = wall_clock_seconds
        if cached_trials is not None:
            payload["cached_trials"] = cached_trials
        if obs_metrics is not None:
            payload["obs_metrics"] = obs_metrics
        if forensics is not None:
            payload["forensics"] = [dict(dump) for dump in forensics]
        return self._write(payload)

    def record_trace(
        self,
        label: str,
        trace_id: str,
        spans: Sequence[Dict[str, object]],
        experiment: str = "trace",
        parameters: Optional[Dict[str, object]] = None,
    ) -> str:
        """Persist one trace (the finished span dicts of one
        :class:`~repro.obs.trace.Tracer` drain); returns the new run id.

        Spans from pool processes arrive already adopted onto the caller's
        trace id, so one record holds the whole trace; ``repro runs trace
        <run>`` renders it.
        """
        return self._write(
            {
                "kind": "trace",
                "label": label,
                "experiment": experiment,
                "parameters": parameters or {},
                "trace_id": trace_id,
                "spans": [dict(span) for span in spans],
            }
        )

    def record_report(self, report) -> str:
        """Persist an :class:`~repro.experiments.reporting.ExperimentReport`
        (duck-typed: anything with ``experiment``/``rows``/``parameters``/
        ``generated_at``); returns the new run id."""
        return self._write(
            {
                "kind": "report",
                "label": report.experiment,
                "experiment": report.experiment,
                "parameters": dict(report.parameters),
                "rows": list(report.rows),
                "generated_at": report.generated_at,
            }
        )

    # -- reading -----------------------------------------------------------

    def load(
        self,
        ref: str,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
    ) -> Dict[str, object]:
        """The raw JSON document of the run ``ref`` names.

        ``ref`` is either a literal run id (``run-000042``) or the symbolic
        form ``latest`` / ``latest~N`` — the newest (N-th newest) run,
        optionally restricted to a ``kind`` / ``experiment``.  A symbolic
        reference reads documents newest-first up to its match and returns
        the match as parsed, without reading it again.  Raises ``KeyError``
        for an absent run or a reference past the available history, and
        ``ValueError`` if a literal id's document is not a current-schema
        JSON object.
        """
        if ref.startswith("latest"):
            return self._latest(ref, kind, experiment)
        path = self.root / f"{ref}.json"
        if not path.exists():
            raise KeyError(f"no run {ref!r} in {self.root}")
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"run {ref!r} is not a JSON object")
        schema = payload.get("schema")
        if schema != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"run {ref!r} has schema {schema!r}; this build reads schema {STORE_SCHEMA_VERSION}"
            )
        return payload

    @staticmethod
    def trial_set_from_payload(payload: Dict[str, object]) -> StoredRun:
        """Rehydrate an already-loaded ``trial_set`` document."""
        run_id = payload.get("run_id", "?")
        if payload.get("kind") != "trial_set":
            raise ValueError(f"run {run_id!r} is a {payload.get('kind')!r}, not a trial_set")
        return StoredRun(
            run_id=payload["run_id"],
            label=payload["label"],
            experiment=payload["experiment"],
            created_at=payload["created_at"],
            parameters=dict(payload.get("parameters", {})),
            runs=[RunMetrics.from_payload(data) for data in payload["runs"]],
            aggregate=AggregateMetrics.from_payload(payload["aggregate"]),
            wall_clock_seconds=payload.get("wall_clock_seconds"),
        )

    def _rows(
        self,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
        newest_first: bool = False,
    ) -> Iterator[Tuple[Dict[str, object], Dict[str, object]]]:
        """The summary row and parsed document of every current-schema run
        document matching ``kind`` / ``experiment``, read lazily in run-id
        order (or its reverse); documents that do not summarise are
        skipped."""
        for path in sorted(self.root.glob(f"{_RUN_PREFIX}*.json"), reverse=newest_first):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA_VERSION:
                continue
            row = self._summarize(payload, path.stem)
            if (
                row is not None
                and kind in (None, row["kind"])
                and experiment in (None, row["experiment"])
            ):
                yield row, payload

    def _latest(self, ref: str, kind: Optional[str], experiment: Optional[str]) -> Dict[str, object]:
        """The document a ``latest`` / ``latest~N`` reference names."""
        match = re.fullmatch(r"latest(?:~(\d+))?", ref)
        if match is None:
            raise KeyError(f"unrecognised run reference {ref!r} (expected 'latest' or 'latest~N')")
        offset = int(match.group(1) or 0)
        found = 0
        for _, payload in self._rows(kind, experiment, newest_first=True):
            if found == offset:
                return payload
            found += 1
        constraint = f" of kind {kind!r}" if kind else ""
        raise KeyError(f"{ref!r} needs {offset + 1} run(s){constraint} in {self.root}, found {found}")

    def list_runs(self) -> List[Dict[str, object]]:
        """One summary row per stored run, ordered by run id."""
        return self.query()

    def query(self, kind: Optional[str] = None, experiment: Optional[str] = None) -> List[Dict[str, object]]:
        """:meth:`list_runs` filtered by kind / experiment."""
        return [row for row, _ in self._rows(kind, experiment)]
