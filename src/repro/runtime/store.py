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

Listing does not scan every document: the store maintains ``index.json``
(run id → the summary row ``list_runs`` returns), updated on every write and
rebuilt lazily whenever it is missing or disagrees with the run
files actually on disk — so a hand-deleted file, a crashed writer or an
older-version store heals on the next ``list``.  All metadata writes go
through atomic renames, and run ids are claimed with an exclusive hard link,
so two processes recording into the same store cannot tear a document or
silently overwrite each other's runs.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import AggregateMetrics, RunMetrics
from repro.obs import get_obs

#: Bump when the run-document layout changes incompatibly.  Deliberately NOT
#: bumped for the 2.0.0 CRS break: stored runs are historical observations,
#: never re-served as results, so pre-break history stays browsable and
#: diffable.  Only the result *cache* (CACHE_SCHEMA_VERSION) and trial
#: fingerprints (TRIAL_KEY_SCHEMA) reject pre-break entries.
STORE_SCHEMA_VERSION = 1

_RUN_PREFIX = "run-"
_INDEX_NAME = "index.json"
#: The text fields of a summary row; ``trials`` and ``success_rate`` complete it.
_SUMMARY_TEXT = ("run_id", "kind", "experiment", "label", "created_at")


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _valid_summary(run_id: str, summary: object) -> bool:
    """Whether an ``index.json`` summary has the shape :meth:`RunStore._summarize`
    writes for run ``run_id`` (``None`` marks an unreadable run file)."""
    if summary is None:
        return True
    if not isinstance(summary, dict) or set(summary) != {*_SUMMARY_TEXT, "trials", "success_rate"}:
        return False
    rate = summary["success_rate"]
    return (
        summary["run_id"] == run_id
        and all(isinstance(summary[key], str) for key in _SUMMARY_TEXT)
        and _is_count(summary["trials"])
        and (rate == "" or (isinstance(rate, (int, float)) and not isinstance(rate, bool)))
    )


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
        # Parsed-index memo, validated against the index file's stat token:
        # a sweep writing hundreds of records re-parses the index zero times
        # instead of once per write (another process's update changes the
        # token and invalidates the memo).
        self._index_memo: Optional[Tuple[List[int], Dict[str, Dict[str, object]]]] = None

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
        self._index_put(run_id, self._summarize(payload, run_id))
        return run_id

    # -- index maintenance -------------------------------------------------

    @staticmethod
    def _summarize(payload: Dict[str, object], run_id: str) -> Optional[Dict[str, object]]:
        """The summary row ``list_runs`` returns (and ``index.json`` stores),
        or ``None`` — like an unparseable file — when a field the row reads
        has the wrong type or the document names another run id."""
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

    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    @staticmethod
    def _stat_token(path: Path) -> Optional[List[int]]:
        """A cheap change detector for one run file: ``[size, mtime_ns]``."""
        try:
            stat = path.stat()
        except OSError:
            return None
        return [stat.st_size, stat.st_mtime_ns]

    def _read_index(self) -> Optional[Dict[str, Dict[str, object]]]:
        """The ``run id → {"stat", "summary"}`` map, or None when the index
        is missing/corrupt/foreign or holds a summary of the wrong shape.  A
        ``None`` summary marks a run file that could not be read as a run —
        remembered, so a permanently corrupt file does not force a rebuild
        on every list."""
        token = self._stat_token(self._index_path())
        if token is None:
            self._index_memo = None
            return None
        if self._index_memo is not None and self._index_memo[0] == token:
            return dict(self._index_memo[1])
        try:
            payload = json.loads(self._index_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA_VERSION:
            return None
        runs = payload.get("runs")
        if not isinstance(runs, dict) or not all(
            isinstance(entry, dict) and _valid_summary(run_id, entry.get("summary"))
            for run_id, entry in runs.items()
        ):
            return None
        self._index_memo = (token, dict(runs))
        return dict(runs)

    def _write_index(self, runs: Dict[str, Dict[str, object]]) -> None:
        """Atomic-rename write, so a concurrent reader sees old or new index,
        never a torn one.  (Two concurrent writers can still lose one entry
        to a read-modify-write race; the staleness check in :meth:`list_runs`
        detects exactly that and rebuilds, so the index self-heals.)"""
        if not self.root.is_dir():
            return  # never create the store root just to cache a listing
        temp = self._index_path().with_name(f".{_INDEX_NAME}.{os.getpid()}")
        try:
            temp.write_text(
                json.dumps({"schema": STORE_SCHEMA_VERSION, "runs": runs}, sort_keys=True),
                encoding="utf-8",
            )
            os.replace(temp, self._index_path())
        except OSError:
            # A concurrent gc may sweep the temp file (it matches the
            # stale-temp pattern) or the store root between our existence
            # check and the rename.  The index is only a cache: drop the
            # write and let the next list_runs rebuild it.
            return
        self._index_memo = (self._stat_token(self._index_path()), dict(runs))

    def _index_put(self, run_id: str, summary: Optional[Dict[str, object]]) -> None:
        runs = self._read_index()
        if runs is None:
            self._rebuild_index()
            return
        runs[run_id] = {
            "stat": self._stat_token(self.root / f"{run_id}.json"),
            "summary": summary,
        }
        self._write_index(runs)

    def _rebuild_index(self) -> Dict[str, Dict[str, object]]:
        """Re-derive the index by scanning every run document (the slow path
        the index exists to avoid; taken only when missing or stale)."""
        registry = get_obs().metrics
        if registry is not None:
            registry.inc("store.index_rebuilds")
        runs: Dict[str, Dict[str, object]] = {}
        for path in sorted(self.root.glob(f"{_RUN_PREFIX}*.json")):
            token = self._stat_token(path)  # before the read: a racing write
            # makes the token stale, which the next list detects and heals
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                runs[path.stem] = {"stat": token, "summary": None}
                continue
            if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA_VERSION:
                runs[path.stem] = {"stat": token, "summary": None}
                continue
            runs[path.stem] = {"stat": token, "summary": self._summarize(payload, path.stem)}
        self._write_index(runs)
        return runs

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

    def load(self, run_id: str) -> Dict[str, object]:
        """The raw JSON document of one run; raises ``KeyError`` if absent
        and ``ValueError`` if it is not a current-schema JSON object."""
        path = self.root / f"{run_id}.json"
        if not path.exists():
            raise KeyError(f"no run {run_id!r} in {self.root}")
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"run {run_id!r} is not a JSON object")
        schema = payload.get("schema")
        if schema != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"run {run_id!r} has schema {schema!r}; this build reads schema {STORE_SCHEMA_VERSION}"
            )
        return payload

    def load_trial_set(self, run_id: str) -> StoredRun:
        """Load a ``trial_set`` record back into metrics objects."""
        return self.trial_set_from_payload(self.load(run_id))

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

    def list_runs(self) -> List[Dict[str, object]]:
        """One summary row per stored run, ordered by run id.

        Served from ``index.json`` when it agrees with the run files on disk
        (a per-file ``[size, mtime]`` comparison — documents are stat'ed,
        never opened); any disagreement (hand-added/-deleted/-edited files, a
        lost index race, an index written by an incompatible version)
        triggers a full rebuild."""
        on_disk = {
            path.stem: self._stat_token(path)
            for path in self.root.glob(f"{_RUN_PREFIX}*.json")
        }
        runs = self._read_index()
        if runs is None or {run_id: entry.get("stat") for run_id, entry in runs.items()} != on_disk:
            runs = self._rebuild_index()
        return [
            # Copies, so a caller mutating a row can never corrupt the memo.
            dict(entry["summary"])
            for _, entry in sorted(runs.items())
            if entry.get("summary") is not None
        ]

    def resolve(
        self,
        ref: str,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
    ) -> str:
        """Resolve a run reference to a concrete run id.

        ``ref`` is either a literal run id (``run-000042``) or the symbolic
        form ``latest`` / ``latest~N`` — the newest (N-th newest) run,
        optionally restricted to a ``kind`` / ``experiment``.  Raises
        ``KeyError`` when the reference points past the available history.
        """
        if not ref.startswith("latest"):
            return ref
        match = re.fullmatch(r"latest(?:~(\d+))?", ref)
        if match is None:
            raise KeyError(f"unrecognised run reference {ref!r} (expected 'latest' or 'latest~N')")
        offset = int(match.group(1) or 0)
        rows = self.query(kind=kind, experiment=experiment)
        if offset >= len(rows):
            constraint = f" of kind {kind!r}" if kind else ""
            raise KeyError(
                f"{ref!r} needs {offset + 1} run(s){constraint} in {self.root}, found {len(rows)}"
            )
        return str(rows[-1 - offset]["run_id"])

    def query(
        self,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
        label_contains: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Filter :meth:`list_runs` by kind / experiment / label substring."""
        rows = self.list_runs()
        if kind is not None:
            rows = [row for row in rows if row["kind"] == kind]
        if experiment is not None:
            rows = [row for row in rows if row["experiment"] == experiment]
        if label_contains is not None:
            rows = [row for row in rows if label_contains in str(row["label"])]
        return rows
