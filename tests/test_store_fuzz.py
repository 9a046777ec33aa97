"""Hypothesis fuzz of the run store's documents, and of the result cache's
``trials.jsonl``.

A run document may be left truncated by a crash, overwritten with garbage,
or written by another version with a different layout.  Whatever the
documents hold, ``list_runs``, ``query`` and ``resolve`` skip the damaged
ones or raise ``KeyError`` for a reference past the history — never another
exception — and every row they list is the summary of a valid run document
on disk.

Whatever lines ``trials.jsonl`` holds, the cache serves the last valid entry
per ``str`` key and nothing else, and ``compact`` keeps exactly what a load
serves.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import RunMetrics, summarize_runs
from repro.experiments.reporting import ExperimentReport
from repro.runtime import ResultCache, RunStore
from repro.runtime.cache import CACHE_SCHEMA_VERSION
from repro.runtime.store import STORE_SCHEMA_VERSION

RUN_IDS = ("run-000001", "run-000002", "run-000003")

#: Arbitrary JSON documents (objects, arrays and scalars, nested).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
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


def _assert_resolves(store: RunStore, run_ids, kind=None) -> None:
    """``latest~N`` (restricted to ``kind``) names the N-th newest of
    ``run_ids``, and a reference past them raises ``KeyError``."""
    for offset in range(len(RUN_IDS)):
        ref = f"latest~{offset}" if offset else "latest"
        if offset < len(run_ids):
            assert store.load(ref, kind=kind)["run_id"] == run_ids[-1 - offset]
        else:
            with pytest.raises(KeyError):
                store.load(ref, kind=kind)


@settings(max_examples=150, deadline=None)
@given(doc_damage=st.none() | _DAMAGE, doc_victim=_DOC_VICTIM)
def test_listing_heals_or_raises_key_error(doc_damage, doc_victim):
    doc_victim, skewed_field = doc_victim
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        _seed_store(root)
        broken = set()
        if doc_damage is not None:
            path = root / f"{doc_victim}.json"
            text = path.read_text(encoding="utf-8")
            if doc_damage[0] == "skew":
                data = json.dumps(_skew_document(json.loads(text), *skewed_field)).encode("utf-8")
            else:
                data = _damaged(text, doc_damage)
            path.write_bytes(data)
            broken.add(doc_victim)

        store = RunStore(root)
        rows = store.list_runs()

        listed = [row["run_id"] for row in rows]
        assert listed == sorted(set(RUN_IDS) - broken)
        for row in rows:
            payload = store.load(row["run_id"])
            for field in ("run_id", "kind", "experiment", "label", "created_at"):
                assert row[field] == payload[field]
        _assert_resolves(store, listed)
        for kind in ("trial_set", "trace", "report"):
            of_kind = [row for row in rows if row["kind"] == kind]
            assert store.query(kind=kind) == of_kind
            _assert_resolves(store, [row["run_id"] for row in of_kind], kind=kind)


# ------------------------------------------------------------ result cache --

#: Values of the wrong type for each ``RunMetrics`` field annotation.
_WRONG_TYPED = {
    "str": [7, None, True],
    "bool": ["yes", 1, None],
    "int": ["10", 3.5, True, None],
    "float": ["0.1", None, True, [1]],
    "Dict[str, int]": [5, [1], {"a": "1"}, {"a": True}],
}
_METRIC_FIELDS = [(spec.name, spec.type) for spec in fields(RunMetrics)]

_VALID_METRICS = st.builds(
    RunMetrics,
    scheme=st.sampled_from(["algorithm_a", "crs"]),
    success=st.booleans(),
    protocol_communication=st.integers(0, 50),
    simulation_communication=st.integers(0, 500),
    corruptions=st.integers(0, 5),
    noise_fraction=st.sampled_from([0.0, 0.25, 1]),
    iterations_run=st.integers(0, 9),
    iterations_budget=st.integers(0, 9),
    communication_by_phase=st.dictionaries(st.sampled_from(["simulation", "rewind"]), st.integers(0, 9), max_size=2),
)


_KEYS = st.sampled_from("abc")
#: ``(field, value)``: one ``RunMetrics`` field and a value of the wrong type for it.
_SKEW = st.sampled_from(_METRIC_FIELDS).flatmap(
    lambda spec: st.tuples(st.just(spec[0]), st.sampled_from(_WRONG_TYPED[spec[1]]))
)


def _line(key, run: RunMetrics, **changes) -> str:
    record = {"schema": CACHE_SCHEMA_VERSION, "key": key, "metrics": run.to_payload()}
    return json.dumps(dict(record, **changes), sort_keys=True)


def _skewed(key, run: RunMetrics, skew) -> str:
    field, value = skew
    return _line(key, run, metrics=dict(run.to_payload(), **{field: value}))


def _truncated(key, run: RunMetrics, cut: float) -> str:
    line = _line(key, run)
    return line[: max(1, int(len(line) * cut))]


#: Lines the cache must refuse: a wrong-typed metrics field, a non-``str``
#: key, another schema, a line cut short by a crash mid-append, and JSON
#: values that are not objects.
_REFUSED_LINE = st.one_of(
    st.builds(_skewed, _KEYS, _VALID_METRICS, _SKEW),
    st.builds(_line, st.sampled_from([12345, None, ["a"], {"k": 1}, 3.5, True]), _VALID_METRICS),
    st.builds(lambda schema, key, run: _line(key, run, schema=schema),
              st.sampled_from([1, 3, "2", None]), _KEYS, _VALID_METRICS),
    st.builds(_truncated, _KEYS, _VALID_METRICS, st.floats(0.0, 0.99)),
    _JSON.filter(lambda value: not isinstance(value, dict)).map(json.dumps),
)

#: ``(line, entry)``: one ``trials.jsonl`` line and the ``(key, RunMetrics)``
#: entry it carries, or None for a line the cache must refuse.
_CACHE_LINE = st.one_of(
    st.builds(lambda key, run: (_line(key, run), (key, run)), _KEYS, _VALID_METRICS),
    _REFUSED_LINE.map(lambda line: (line, None)),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_CACHE_LINE, max_size=10))
def test_cache_serves_the_last_valid_entry_per_key_before_and_after_compact(lines):
    expected = {}
    for _, entry in lines:
        if entry is not None:
            expected[entry[0]] = entry[1]
    refused = sum(1 for _, entry in lines if entry is None)
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "trials.jsonl").write_text("".join(line + "\n" for line, _ in lines))
        loaded = ResultCache(directory)._memory
        assert all(isinstance(key, str) and isinstance(value, RunMetrics) for key, value in loaded.items())
        assert loaded == expected
        assert ResultCache(directory).compact() == {
            "kept": len(expected),
            "dropped_superseded": len(lines) - refused - len(expected),
            "dropped_invalid": refused,
        }
        assert ResultCache(directory)._memory == loaded
