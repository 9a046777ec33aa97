"""Hypothesis fuzz of the run store's index (``index.json``) and run documents.

A store may be left truncated by a crash, overwritten with garbage, or
written by another version with a different layout.  Whatever ``index.json``
and the run documents hold, ``list_runs``, ``query`` and ``resolve`` either
heal (rebuild the index from the documents) or raise ``KeyError`` for a
reference past the history — never another exception — and every row they
list is the summary of a valid run document on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import RunMetrics, summarize_runs
from repro.experiments.reporting import ExperimentReport
from repro.runtime import RunStore
from repro.runtime.store import STORE_SCHEMA_VERSION

RUN_IDS = ("run-000001", "run-000002", "run-000003")

#: Arbitrary JSON documents (objects, arrays and scalars, nested).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

_NOT_TEXT = [None, 3.5, [1], {"a": 1}, True]

#: Index summaries of the wrong shape: foreign values, partial rows, and
#: full rows with one wrong-typed field or another run's id.
_BAD_SUMMARIES = st.one_of(
    st.sampled_from(["garbage", 7, [1, 2], {"run_id": "x"}, {}]),
    _JSON.filter(lambda value: value is not None),
    st.tuples(st.sampled_from(["kind", "experiment", "label", "created_at"]), st.sampled_from(_NOT_TEXT)),
    st.tuples(st.just("run_id"), st.sampled_from(_NOT_TEXT + ["run-000099"])),
    st.tuples(st.just("trials"), st.sampled_from([None, 3.5, "3", True, -1, [1]])),
    st.tuples(st.just("success_rate"), st.sampled_from([None, "x", True, [1]])),
)

#: Per seeded run, replacements for one field its summary reads that no
#: summary can be built from.
_COMMON_SKEWS = [("label", 7), ("kind", ["trial_set"]), ("experiment", None), ("created_at", 3.5),
                 ("run_id", "run-000099")]
_SKEWS = {
    "run-000001": [("aggregate.trials", "3"), ("aggregate.successes", [1]), ("aggregate.trials", -2),
                   ("aggregate", 5)],
    "run-000002": [("spans", 5)],
    "run-000003": [("rows", {"a": 1})],
}
#: ``(run id, (field, value))``: which document to damage, and how to skew it.
_DOC_VICTIM = st.sampled_from(RUN_IDS).flatmap(
    lambda run_id: st.tuples(st.just(run_id), st.sampled_from(_SKEWS[run_id] + _COMMON_SKEWS))
)


def _is_json_object(data: bytes) -> bool:
    try:
        return isinstance(json.loads(data), dict)
    except ValueError:
        return False


#: One way to damage a file: cut it short, replace it with random bytes or
#: with a JSON value that is not a current-schema object, or skew its fields.
_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=0.99)),
    st.tuples(st.just("garbage"), st.binary(max_size=64).filter(lambda data: not _is_json_object(data))),
    st.tuples(
        st.just("json"),
        _JSON.filter(lambda value: not (isinstance(value, dict) and value.get("schema") == STORE_SCHEMA_VERSION)),
    ),
    st.tuples(st.just("skew"), st.none()),
)


def _seed_store(root: Path) -> RunStore:
    """One run of each kind: run-000001 trial_set, -000002 trace, -000003 report."""
    store = RunStore(root)
    metrics = RunMetrics(
        scheme="algorithm_a", success=True, protocol_communication=10,
        simulation_communication=100, corruptions=0, noise_fraction=0.0,
        iterations_run=5, iterations_budget=9,
    )
    store.record_trial_set(label="cell", runs=[metrics], aggregate=summarize_runs([metrics]))
    store.record_trace(label="cell", trace_id="t", spans=[{"name": "trial", "span_id": "s"}])
    store.record_report(ExperimentReport(experiment="noise_sweep", rows=[{"x": 1}], parameters={}))
    return store


def _damaged(text: str, damage) -> bytes:
    how, value = damage
    if how == "truncate":
        return text.encode("utf-8")[: int(len(text) * value)]
    if how == "garbage":
        return value
    return json.dumps(value).encode("utf-8")


def _skew_document(payload: dict, field: str, value) -> dict:
    if field.startswith("aggregate."):
        if not isinstance(payload.get("aggregate"), dict):
            payload["aggregate"] = {}
        payload["aggregate"][field.split(".", 1)[1]] = value
    else:
        payload[field] = value
    return payload


def _skew_summary(summary: dict, bad) -> object:
    if isinstance(bad, tuple):
        field, value = bad
        return dict(summary, **{field: value})
    return bad


def _write_changed(path: Path, data: bytes) -> None:
    """Overwrite ``path`` and move its mtime on, so its stat token changes
    even when the new bytes have the old size."""
    before = path.stat().st_mtime_ns
    path.write_bytes(data)
    os.utime(path, ns=(before + 5 * 10**9, before + 5 * 10**9))


@settings(max_examples=150, deadline=None)
@given(
    index_damage=st.none() | _DAMAGE,
    bad_summary=_BAD_SUMMARIES,
    doc_damage=st.none() | _DAMAGE,
    index_victim=st.sampled_from(RUN_IDS),
    doc_victim=_DOC_VICTIM,
)
def test_listing_heals_or_raises_key_error(index_damage, bad_summary, doc_damage, index_victim, doc_victim):
    doc_victim, skewed_field = doc_victim
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        _seed_store(root).list_runs()
        index_path = root / "index.json"
        broken = set()
        if doc_damage is not None:
            path = root / f"{doc_victim}.json"
            text = path.read_text(encoding="utf-8")
            if doc_damage[0] == "skew":
                data = json.dumps(_skew_document(json.loads(text), *skewed_field)).encode("utf-8")
            else:
                data = _damaged(text, doc_damage)
            _write_changed(path, data)
            broken.add(doc_victim)
        if index_damage is not None:
            text = index_path.read_text(encoding="utf-8")
            if index_damage[0] == "skew":
                # Stat tokens still match the files: only the summary is off.
                index = json.loads(text)
                entry = index["runs"][index_victim]
                if doc_damage is not None and index_victim == doc_victim:
                    entry["stat"] = [(root / f"{doc_victim}.json").stat().st_size,
                                     (root / f"{doc_victim}.json").stat().st_mtime_ns]
                entry["summary"] = _skew_summary(entry["summary"] or {}, bad_summary)
                index_path.write_text(json.dumps(index), encoding="utf-8")
            else:
                index_path.write_bytes(_damaged(text, index_damage))

        store = RunStore(root)
        rows = store.list_runs()

        listed = [row["run_id"] for row in rows]
        assert listed == sorted(set(RUN_IDS) - broken)
        for row in rows:
            payload = store.load(row["run_id"])
            for field in ("run_id", "kind", "experiment", "label", "created_at"):
                assert row[field] == payload[field]
        for kind in ("trial_set", "trace", "report"):
            assert store.query(kind=kind) == [row for row in rows if row["kind"] == kind]
        for ref in ("latest", "latest~1", "latest~2"):
            try:
                assert store.resolve(ref) in listed
            except KeyError:
                assert int(ref.partition("~")[2] or 0) >= len(listed)
        # The healed index serves a fresh handle the same rows.
        assert RunStore(root).list_runs() == rows
