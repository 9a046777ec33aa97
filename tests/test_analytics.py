"""Tests for the run-analytics layer: diff, trial keys, CLI.

The guarantees pinned here:

1. ``diff_runs`` reports per-cell success-rate and wall-clock deltas,
   classifies them against the thresholds, and treats disjoint cells as
   informative rather than as regressions;
2. a trial key is computed afresh on every call, so a factory with no
   stable key is refused however many keyable trials came before it;
3. the ``repro runs`` CLI surfaces all of it with friendly errors and the
   exit codes CI needs (1 on regression, 1 on unreadable/missing runs).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.metrics import RunMetrics, summarize_runs
from repro.core.parameters import algorithm_a
from repro.experiments.factories import BoundFractionFactory, RandomNoiseFactory
from repro.experiments.table1 import _oblivious_factory
from repro.experiments.workloads import gossip_workload
from repro.runtime import RegressionThresholds, RunStore, TrialSpec, diff_runs, fingerprint_trial


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


class TestFingerprintMemoization:
    def test_unstable_specs_stay_unstable_through_the_memo(self):
        """Keying a spec remembers nothing: after keyable trials of the same
        cell (and of the same factory class), a spec built by hand around
        a lambda is still refused, every time it is keyed."""
        workload, scheme = gossip_workload(), algorithm_a()
        for good, bad in (
            (RandomNoiseFactory(fraction=0.004), lambda seed: None),
            (
                BoundFractionFactory(_oblivious_factory, 0.01),
                BoundFractionFactory(lambda seed, fraction: None, 0.01),
            ),
        ):
            keys = {fingerprint_trial(TrialSpec(workload, scheme, good, seed)) for seed in (17, 17, 18)}
            assert len(keys) == 2
            for _ in range(2):
                with pytest.raises(TypeError):
                    fingerprint_trial(TrialSpec(workload, scheme, bad, 17))


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

    def test_legacy_bench_records_stay_browsable(self, tmp_path, capsys):
        """A store written when benchmark timing sessions were still recorded
        keeps working: its ``bench`` documents list and show as raw JSON, and
        diffing them is a friendly refusal."""
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
        assert {row["run_id"] for row in store.list_runs()} == {"run-000001", "run-000002", cell}

    def test_merged_records_still_load_and_show(self, tmp_path, capsys):
        """Stores written while ``runs merge`` existed hold trial sets with
        ``merged_from`` provenance; they load, show and diff like any other."""
        from repro.cli import main

        store = RunStore(tmp_path)
        a = _record_cell(store, seeds=[1, 2])
        runs = [_metrics(), _metrics(), _metrics(success=False)]
        merged = store.record_trial_set(
            label="cell-a", runs=runs, aggregate=summarize_runs(runs), experiment="run_trials",
            parameters={"scheme": "algorithm_a", "workload": "cell-a", "seeds": [1, 2, 3],
                        "merged_from": [a, "run-000000"]},
        )
        assert RunStore.trial_set_from_payload(store.load(merged)).parameters["merged_from"] == [a, "run-000000"]
        assert main(["runs", "show", merged, "--store-dir", str(tmp_path)]) == 0
        assert '"merged_from": ["run-000001", "run-000000"]' in capsys.readouterr().out
        assert main(["runs", "diff", a, merged, "--store-dir", str(tmp_path)]) == 1


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
