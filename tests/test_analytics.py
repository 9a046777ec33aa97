"""Tests for the run-analytics layer: diff, merge, gc, fingerprint memo, CLI.

The guarantees pinned here:

1. ``diff_runs`` reports per-cell success-rate and wall-clock deltas,
   classifies them against the thresholds, and treats disjoint cells as
   informative rather than as regressions;
2. ``merge_runs`` unions trial sets of the same cell (deduplicating shared
   seeds) and refuses non-trial-set inputs and schema-mismatched documents;
3. ``gc_runs`` never deletes the latest run of any experiment, whatever the
   age/count pressure;
4. fingerprint memoization changes timings, never digests;
5. the ``repro runs`` CLI surfaces all of it with friendly errors and the
   exit codes CI needs (1 on regression, 1 on unreadable/missing runs).
"""

from __future__ import annotations

import json
import threading
from datetime import datetime, timedelta, timezone

import pytest

from repro.analysis.metrics import RunMetrics, summarize_runs
from repro.core.parameters import algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import gossip_workload
from repro.runtime import (
    RegressionThresholds,
    RunStore,
    TrialSpec,
    canonical_payload,
    clear_payload_memo,
    diff_runs,
    fingerprint_trial,
    gc_runs,
    memoized_payload,
    merge_runs,
    payload_memo_stats,
)


def _metrics(success: bool = True, cc_simulation: int = 100) -> RunMetrics:
    return RunMetrics(
        scheme="algorithm_a",
        success=success,
        protocol_communication=10,
        simulation_communication=cc_simulation,
        corruptions=0,
        noise_fraction=0.0,
        iterations_run=1,
        iterations_budget=2,
    )


def _record_cell(
    store: RunStore,
    label: str = "cell-a",
    successes=(True, True),
    seeds=None,
    wall_clock: float = None,
    experiment: str = "run_trials",
) -> str:
    runs = [_metrics(success=flag) for flag in successes]
    seeds = list(seeds) if seeds is not None else list(range(len(runs)))
    return store.record_trial_set(
        label=label,
        runs=runs,
        aggregate=summarize_runs(runs),
        experiment=experiment,
        parameters={"scheme": "algorithm_a", "workload": label, "seeds": seeds},
        wall_clock_seconds=wall_clock,
    )


class TestDiffRuns:
    def test_success_rate_drop_is_a_regression(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, successes=(True, True), wall_clock=1.0)
        b = _record_cell(store, successes=(True, False), wall_clock=1.0)
        diff = diff_runs(store.load(a), store.load(b))
        assert diff.has_regression
        (regression,) = diff.regressions
        assert regression.metric == "success_rate"
        assert regression.baseline == 1.0 and regression.candidate == 0.5

    def test_success_drop_within_tolerance_is_ok(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, successes=(True, True))
        b = _record_cell(store, successes=(True, False))
        thresholds = RegressionThresholds(max_success_rate_drop=0.5)
        assert not diff_runs(store.load(a), store.load(b), thresholds).has_regression

    def test_wall_clock_ratio_gates_on_threshold(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, wall_clock=1.0)
        b = _record_cell(store, wall_clock=1.5)
        tight = diff_runs(store.load(a), store.load(b), RegressionThresholds(max_wall_clock_increase=0.25))
        assert [row.metric for row in tight.regressions] == ["wall_clock_seconds"]
        loose = diff_runs(store.load(a), store.load(b), RegressionThresholds(max_wall_clock_increase=0.6))
        assert not loose.has_regression

    def test_sub_floor_wall_clocks_never_gate(self, tmp_path):
        """Scheduler jitter dominates sub-millisecond cells; the absolute
        floor keeps them from flaking the CI gate."""
        store = RunStore(tmp_path)
        a = _record_cell(store, wall_clock=0.001)
        b = _record_cell(store, wall_clock=0.004)  # 4x, but tiny
        assert not diff_runs(store.load(a), store.load(b)).has_regression
        floored = diff_runs(
            store.load(a), store.load(b), RegressionThresholds(min_wall_clock_seconds=0.0)
        )
        assert floored.has_regression

    def test_faster_candidate_is_an_improvement(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, wall_clock=2.0)
        b = _record_cell(store, wall_clock=1.0)
        diff = diff_runs(store.load(a), store.load(b))
        statuses = {row.metric: row.status for row in diff.rows}
        assert statuses["wall_clock_seconds"] == "improved"
        assert not diff.has_regression

    def test_disjoint_cells_are_reported_but_never_regress(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, label="cell-a")
        b = _record_cell(store, label="cell-b")
        diff = diff_runs(store.load(a), store.load(b))
        assert {row.status for row in diff.rows} == {"only-baseline", "only-candidate"}
        assert not diff.has_regression

    def test_missing_wall_clock_on_one_side_is_tolerated(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, wall_clock=None)  # e.g. written by an older build
        b = _record_cell(store, wall_clock=1.0)
        diff = diff_runs(store.load(a), store.load(b))
        assert not diff.has_regression

    def test_cache_served_runs_never_gate_on_wall_clock(self, tmp_path):
        """A warm result cache makes the wall clock measure cache state, not
        build speed — it must not fake (baseline warm) or mask (candidate
        warm) a regression."""
        store = RunStore(tmp_path)
        runs = [_metrics(), _metrics()]

        def record(wall_clock, cached_trials):
            return store.record_trial_set(
                label="cell-a", runs=runs, aggregate=summarize_runs(runs),
                parameters={"seeds": [1, 2]},
                wall_clock_seconds=wall_clock, cached_trials=cached_trials,
            )

        warm_baseline = record(0.05, cached_trials=2)
        cold_candidate = record(10.0, cached_trials=0)
        assert not diff_runs(store.load(warm_baseline), store.load(cold_candidate)).has_regression
        cold_a = record(1.0, cached_trials=0)
        cold_b = record(10.0, cached_trials=0)
        assert diff_runs(store.load(cold_a), store.load(cold_b)).has_regression

class TestMergeRuns:
    def test_merge_unions_trials_and_dedupes_shared_seeds(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, successes=(True, True), seeds=[17, 1017])
        b = _record_cell(store, successes=(True, False), seeds=[1017, 2017])
        result = merge_runs(store, [a, b])
        assert result.skipped == []
        (merged_id,) = result.created
        merged = store.load_trial_set(merged_id)
        # 17, 1017 from a; 1017 deduplicated; 2017 from b.
        assert merged.parameters["seeds"] == [17, 1017, 2017]
        assert merged.aggregate.trials == 3
        assert merged.parameters["merged_from"] == [a, b]

    def test_merged_aggregate_is_recomputed(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, successes=(True, True), seeds=[1, 2])
        b = _record_cell(store, successes=(False, False), seeds=[3, 4])
        (merged_id,) = merge_runs(store, [a, b]).created
        merged = store.load_trial_set(merged_id)
        assert merged.aggregate.trials == 4
        assert merged.aggregate.success_rate == 0.5

    def test_distinct_cells_are_skipped_not_mixed(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, label="cell-a")
        b = _record_cell(store, label="cell-b")
        result = merge_runs(store, [a, b])
        assert result.created == []
        assert sorted(result.skipped) == sorted([a, b])

    def test_wrong_typed_trial_set_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store, seeds=[1, 2])
        b = _record_cell(store, seeds=[3, 4])
        path = tmp_path / f"{b}.json"
        payload = json.loads(path.read_text())
        payload["aggregate"]["trials"] = "3"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"run {b!r} is unreadable: AggregateMetrics.trials"):
            merge_runs(store, [a, b])

    def test_schema_mismatch_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        (tmp_path / "run-000999.json").write_text(
            json.dumps({"schema": 999, "run_id": "run-000999", "kind": "trial_set"})
        )
        with pytest.raises(ValueError, match="schema"):
            merge_runs(store, [a, "run-000999"])

    def test_duplicate_run_ids_collapse_to_one_sample(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        with pytest.raises(ValueError, match="distinct"):
            merge_runs(store, [a, a])

    def test_same_label_different_cell_is_never_mixed(self, tmp_path):
        """A shared custom label must not let different scheme/workload cells
        merge into one corrupt record."""
        store = RunStore(tmp_path)
        runs = [_metrics()]
        ids = [
            store.record_trial_set(
                label="exp", runs=runs, aggregate=summarize_runs(runs),
                experiment="run_trials",
                parameters={"scheme": scheme, "workload": workload, "seeds": [1]},
            )
            for scheme, workload in [("algorithm_a", "w1"), ("algorithm_b", "w2")]
        ]
        result = merge_runs(store, ids)
        assert result.created == []
        assert sorted(result.skipped) == sorted(ids)

    def test_mixed_seed_alignment_drops_the_seed_schedule(self, tmp_path):
        """Merging an aligned run with a seedless one must not record a
        partial (misaligned) seed schedule on the merged record."""
        store = RunStore(tmp_path)
        a = _record_cell(store, seeds=[1, 2])
        runs = [_metrics()]
        b = store.record_trial_set(
            label="cell-a", runs=runs, aggregate=summarize_runs(runs),
            experiment="run_trials",
            parameters={"scheme": "algorithm_a", "workload": "cell-a"},  # no seeds
        )
        (merged_id,) = merge_runs(store, [a, b]).created
        merged = store.load_trial_set(merged_id)
        assert merged.aggregate.trials == 3
        assert "seeds" not in merged.parameters

    def test_non_trial_set_inputs_are_refused(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        b = store.record_report(_FakeReport([_table1_row()]))
        with pytest.raises(ValueError, match="only trial_set"):
            merge_runs(store, [a, b])
        with pytest.raises(ValueError, match="at least two"):
            merge_runs(store, [a])


def _set_created_at(store: RunStore, run_id: str, created_at: datetime) -> None:
    path = store.root / f"{run_id}.json"
    payload = json.loads(path.read_text())
    payload["created_at"] = created_at.isoformat()
    path.write_text(json.dumps(payload))


class TestGcRuns:
    def test_keep_count_never_drops_the_latest_per_experiment(self, tmp_path):
        store = RunStore(tmp_path)
        for _ in range(3):
            _record_cell(store, experiment="exp-a")
        newest_a = _record_cell(store, experiment="exp-a")
        newest_b = _record_cell(store, experiment="exp-b")
        for _ in range(2):
            _record_cell(store, experiment="exp-c")
        newest_c = _record_cell(store, experiment="exp-c")

        result = gc_runs(store, keep_count=1)
        survivors = {row["run_id"] for row in store.list_runs()}
        assert {newest_a, newest_b, newest_c} <= survivors
        assert set(result.kept) == survivors
        assert len(result.deleted) == 5  # 8 runs − latest of each of 3 experiments

    def test_age_based_gc_respects_the_latest_invariant(self, tmp_path):
        store = RunStore(tmp_path)
        old = [_record_cell(store, experiment="exp-a") for _ in range(3)]
        ancient = datetime.now(timezone.utc) - timedelta(days=365)
        for run_id in old:
            _set_created_at(store, run_id, ancient)
        result = gc_runs(store, max_age_days=30)
        assert set(result.deleted) == set(old[:-1])  # the newest old run survives
        assert store.load(old[-1])

    def test_unparsable_timestamps_are_never_age_pruned(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        _record_cell(store)
        path = store.root / f"{a}.json"
        payload = json.loads(path.read_text())
        payload["created_at"] = "not a timestamp"
        path.write_text(json.dumps(payload))
        result = gc_runs(store, max_age_days=0.0)
        assert a not in result.deleted

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        for _ in range(3):
            _record_cell(store)
        before = {row["run_id"] for row in store.list_runs()}
        result = gc_runs(store, keep_count=1, dry_run=True)
        assert result.dry_run and result.deleted
        assert {row["run_id"] for row in store.list_runs()} == before

    def test_gc_without_criteria_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            gc_runs(RunStore(tmp_path))


class TestGcRunsEdgeCases:
    """gc against stores that never saw a trial set, and gc racing writers."""

    def test_bench_only_store_keeps_the_latest_session(self, tmp_path):
        store = RunStore(tmp_path)
        old = [store.record_report(_FakeReport([_table1_row()])) for _ in range(3)]
        newest = store.record_report(_FakeReport([_table1_row()]))
        result = gc_runs(store, keep_count=0)  # maximum pressure
        assert newest in result.kept
        assert set(result.deleted) == set(old)
        assert [row["run_id"] for row in store.list_runs()] == [newest]

    def test_bench_only_store_age_prune_never_empties_it(self, tmp_path):
        store = RunStore(tmp_path)
        runs = [store.record_report(_FakeReport([_table1_row()])) for _ in range(2)]
        ancient = datetime.now(timezone.utc) - timedelta(days=365)
        for run_id in runs:
            _set_created_at(store, run_id, ancient)
        result = gc_runs(store, max_age_days=30)
        assert result.deleted == [runs[0]]  # the newest report survives, however old
        assert store.load(runs[-1])

    def test_gc_leaves_a_concurrent_writers_staging_file_alone(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        b = _record_cell(store)
        # A concurrent _write() in flight: its document is staged but not yet
        # hard-linked onto a run id.  gc must neither delete nor index it.
        staging = tmp_path / ".staging-racer.json"
        staging.write_text("{}")
        result = gc_runs(store, keep_count=1)
        assert staging.exists()
        assert a in result.deleted and b in result.kept
        assert {row["run_id"] for row in store.list_runs()} == {b}

    def test_gc_discovers_a_claimed_but_unindexed_run(self, tmp_path):
        store = RunStore(tmp_path)
        a = _record_cell(store)
        # A writer that claimed its id (the hard link landed) but crashed
        # before updating index.json: the document exists, the index does not
        # know it.  gc must see it via the rebuild — and protect it, because
        # it is now the newest run of the experiment.
        payload = json.loads((tmp_path / f"{a}.json").read_text())
        payload["run_id"] = "run-000099"
        (tmp_path / "run-000099.json").write_text(json.dumps(payload))
        result = gc_runs(store, keep_count=1)
        assert "run-000099" in result.kept
        assert a in result.deleted

    def test_gc_races_a_live_writer_without_corruption(self, tmp_path):
        store = RunStore(tmp_path)
        for _ in range(5):
            _record_cell(store)
        errors: list = []

        def writer() -> None:
            other = RunStore(tmp_path)  # separate handle, like a second process
            try:
                for _ in range(10):
                    _record_cell(other)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(5):
                gc_runs(store, keep_count=3)
        finally:
            thread.join()
        assert not errors
        # Whatever interleaving happened, the index self-heals to match disk.
        on_disk = {path.stem for path in tmp_path.glob("run-*.json")}
        assert {row["run_id"] for row in store.list_runs()} == on_disk


class TestFingerprintMemoization:
    def test_memoized_payload_matches_cold_canonicalisation(self):
        clear_payload_memo()
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        cold = canonical_payload(workload)
        warm_miss = memoized_payload(workload)
        warm_hit = memoized_payload(workload)
        assert cold == warm_miss == warm_hit
        stats = payload_memo_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_grid_canonicalises_each_unique_object_once(self):
        clear_payload_memo()
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)
        keys = [
            fingerprint_trial(TrialSpec(workload, scheme, factory, seed))
            for seed in range(50)
        ]
        stats = payload_memo_stats()
        assert stats["misses"] == 3                 # workload, scheme, factory
        assert stats["hits"] == 3 * 49
        assert len({key.digest for key in keys}) == 50  # seeds still differentiate

    def test_trial_key_is_interned_on_the_spec(self):
        spec = TrialSpec(
            gossip_workload(), algorithm_a(), RandomNoiseFactory(fraction=0.004), 17
        )
        first = fingerprint_trial(spec)
        assert fingerprint_trial(spec) is first

    def test_unstable_specs_stay_unstable_through_the_memo(self):
        clear_payload_memo()
        key = fingerprint_trial(
            TrialSpec(gossip_workload(), algorithm_a(), lambda seed: None, 17)
        )
        assert not key.stable


class TestRunsCliAnalytics:
    def _store_with_pair(self, tmp_path, wall_b: float = 1.0, successes_b=(True, True)):
        store = RunStore(tmp_path)
        a = _record_cell(store, wall_clock=1.0)
        b = _record_cell(store, wall_clock=wall_b, successes=successes_b)
        return store, a, b

    def test_diff_exits_zero_without_regression(self, tmp_path, capsys):
        from repro.cli import main

        _, a, b = self._store_with_pair(tmp_path)
        assert main(["runs", "diff", a, b, "--store-dir", str(tmp_path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_exits_one_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        _, a, b = self._store_with_pair(tmp_path, successes_b=(True, False))
        assert main(["runs", "diff", a, b, "--store-dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_tolerance_flag_loosens_the_gate(self, tmp_path, capsys):
        from repro.cli import main

        _, a, b = self._store_with_pair(tmp_path, wall_b=1.5)
        assert main(["runs", "diff", a, b, "--store-dir", str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(
            ["runs", "diff", a, b, "--store-dir", str(tmp_path), "--wall-clock-tolerance", "0.6"]
        ) == 0

    def test_diff_resolves_latest_references(self, tmp_path, capsys):
        from repro.cli import main

        self._store_with_pair(tmp_path)
        assert main(["runs", "diff", "latest~1", "latest", "--store-dir", str(tmp_path)]) == 0

    def test_diff_experiment_filter_scopes_latest_resolution(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        _record_cell(store, experiment="exp-a", wall_clock=1.0)
        _record_cell(store, experiment="exp-a", wall_clock=1.0)
        _record_cell(store, experiment="exp-b", successes=(False, False))
        # Unfiltered, latest is the exp-b run and the cells are disjoint;
        # filtered, both refs resolve inside exp-a and match cleanly.
        assert main(
            ["runs", "diff", "latest~1", "latest", "--experiment", "exp-a",
             "--store-dir", str(tmp_path)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_show_missing_run_is_a_friendly_exit(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "show", "run-000042", "--store-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_show_corrupt_run_is_a_friendly_exit(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "run-000001.json").write_text("{ this is not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "show", "run-000001", "--store-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unreadable" in err

    def test_merge_and_gc_round_trip_through_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        a = _record_cell(store, seeds=[1, 2])
        b = _record_cell(store, seeds=[3, 4])
        assert main(["runs", "merge", a, b, "--store-dir", str(tmp_path)]) == 0
        assert "merged run persisted" in capsys.readouterr().out
        merged_id = store.query(kind="trial_set")[-1]["run_id"]
        assert store.load_trial_set(merged_id).aggregate.trials == 4

        assert main(["runs", "gc", "--keep", "1", "--dry-run", "--store-dir", str(tmp_path)]) == 0
        assert "would delete" in capsys.readouterr().out
        assert len(store.list_runs()) == 3  # dry run deleted nothing

        assert main(["runs", "gc", "--keep", "1", "--store-dir", str(tmp_path)]) == 0
        survivors = store.list_runs()
        assert [row["run_id"] for row in survivors] == [merged_id]

    def test_gc_without_criteria_is_a_friendly_exit(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "gc", "--store-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_legacy_bench_records_stay_browsable(self, tmp_path, capsys):
        """A store written when pytest-benchmark sessions were still recorded
        keeps working: its ``bench`` documents list, show as raw JSON and
        count for gc, and diffing them is a friendly refusal."""
        from repro.cli import main

        store = RunStore(tmp_path)
        for number in (1, 2):
            run_id = f"run-{number:06d}"
            (tmp_path / f"{run_id}.json").write_text(json.dumps({
                "schema": 1, "kind": "bench", "run_id": run_id,
                "label": "benchmark-session", "experiment": "benchmarks",
                "created_at": f"2026-07-0{number}T00:00:00+00:00",
                "benchmarks": [{"name": "bench_x", "mean_seconds": 0.1 * number}],
            }))
        cell = _record_cell(store)

        assert main(["runs", "list", "--store-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "run-000001" in listing and "bench" in listing

        assert main(["runs", "show", "run-000002", "--store-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["benchmarks"][0]["name"] == "bench_x"

        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "diff", "run-000001", "run-000002", "--store-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "not diffable" in capsys.readouterr().err

        assert main(["runs", "gc", "--keep", "0", "--store-dir", str(tmp_path)]) == 0
        assert {row["run_id"] for row in store.list_runs()} == {"run-000002", cell}


class _FakeReport:
    """Duck-typed stand-in for ExperimentReport (record_report only needs
    experiment/rows/parameters/generated_at)."""

    def __init__(self, rows, experiment="table1"):
        self.experiment = experiment
        self.rows = rows
        self.parameters = {"seed": 0}
        self.generated_at = "2026-07-30T00:00:00+00:00"


def _table1_row(topology="line", success_rate=1.0, rate=0.5, kind="measured"):
    return {
        "scheme": "algorithm_a",
        "topology": topology,
        "kind": kind,
        "success_rate": success_rate,
        "rate": rate,
    }


class TestReportDiff:
    """Report records diff per-row, keyed on the identity (string) columns."""

    def test_identical_reports_have_no_regressions(self, tmp_path):
        store = RunStore(tmp_path)
        rows = [_table1_row("line"), _table1_row("star")]
        a = store.record_report(_FakeReport(rows))
        b = store.record_report(_FakeReport(rows))
        diff = diff_runs(store.load(a), store.load(b))
        assert diff.kind == "report"
        assert diff.rows and not diff.has_regression

    def test_success_rate_drop_in_one_row_gates(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.record_report(_FakeReport([_table1_row("line"), _table1_row("star")]))
        b = store.record_report(
            _FakeReport([_table1_row("line", success_rate=0.5), _table1_row("star")])
        )
        diff = diff_runs(store.load(a), store.load(b))
        assert diff.has_regression
        regressed = diff.regressions
        assert len(regressed) == 1
        assert "topology=line" in regressed[0].cell
        assert regressed[0].metric == "success_rate"

    def test_rows_present_on_one_side_only_never_gate(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.record_report(_FakeReport([_table1_row("line"), _table1_row("star")]))
        b = store.record_report(_FakeReport([_table1_row("line")]))
        diff = diff_runs(store.load(a), store.load(b))
        assert not diff.has_regression
        assert any(row.status == "only-baseline" for row in diff.rows)

    def test_identity_collisions_fall_back_to_row_position(self, tmp_path):
        store = RunStore(tmp_path)
        rows = [_table1_row("line"), _table1_row("line")]  # same identity twice
        a = store.record_report(_FakeReport(rows))
        b = store.record_report(_FakeReport(rows))
        diff = diff_runs(store.load(a), store.load(b))
        cells = {row.cell for row in diff.rows}
        assert len(cells) == 2  # both rows survived as distinct cells
        assert not diff.has_regression

    def test_report_against_trial_set_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.record_report(_FakeReport([_table1_row()]))
        b = _record_cell(store)
        with pytest.raises(ValueError):
            diff_runs(store.load(a), store.load(b))

    def test_cli_diffs_reports_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        store.record_report(_FakeReport([_table1_row()]))
        store.record_report(_FakeReport([_table1_row(success_rate=0.0)]))
        code = main([
            "runs", "diff", "latest~1", "latest",
            "--kind", "report", "--store-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
