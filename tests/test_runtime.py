"""Tests for the runtime subsystem: backends, trial keys, cache, run store.

The three guarantees the runtime makes (and the acceptance criteria of the
subsystem) are pinned here:

1. ``ProcessPoolBackend`` is bit-identical to ``SerialBackend`` for the same
   base seed (parallelism changes where a trial runs, never what it computes);
2. with caching enabled, a repeated ``run_trials`` call performs **zero** new
   simulations (asserted via the backend's execution counter and the cache's
   hit counter);
3. a ``RunStore`` round-trips every ``RunMetrics``/``AggregateMetrics``
   losslessly (persist → list → load equals the original).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import AggregateMetrics, RunMetrics, summarize_runs
from repro.core.parameters import algorithm_a, crs_oblivious_scheme
from repro.experiments.factories import (
    NoiselessFactory,
    RandomNoiseFactory,
)
from repro.experiments.harness import run_trials
from repro.experiments.noise_sweep import noise_sweep
from repro.experiments.workloads import WORKLOAD_BUILDERS, gossip_workload, pairwise_workload
from repro.runtime import (
    ProcessPoolBackend,
    ResultCache,
    RunStore,
    SerialBackend,
    TrialSpec,
    execute_trials,
    fingerprint_trial,
    get_runtime,
    use_runtime,
)
from repro.runtime.cache import CACHE_SCHEMA_VERSION
from repro.runtime.spec import build_trial_specs, derive_trial_seed
from repro.runtime.store import STORE_SCHEMA_VERSION

#: Arbitrary JSON documents (objects, arrays and scalars, nested).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def _not_schema(version):
    """Drop the (vanishingly rare) objects that claim the current schema."""
    return lambda value: not (isinstance(value, dict) and value.get("schema") == version)


class TestSerialParallelDeterminism:
    def test_process_pool_matches_serial_bit_for_bit(self):
        """The headline guarantee: same base seed ⇒ same metrics, any backend."""
        workload = gossip_workload(topology="line", num_nodes=5, phases=6)
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)

        serial = run_trials(
            workload, scheme, adversary_factory=factory, trials=4, base_seed=3,
            backend=SerialBackend(), cache=None,
        )
        parallel = run_trials(
            workload, scheme, adversary_factory=factory, trials=4, base_seed=3,
            backend=ProcessPoolBackend(max_workers=2), cache=None,
        )
        assert serial.runs == parallel.runs          # RunMetrics are frozen dataclasses
        assert serial.aggregate == parallel.aggregate

    def test_pool_and_cache_run_each_trial_once(self):
        """Six seeded trials through the serial backend, a 2-worker pool and
        a cached serial re-run: one set of metrics, each backend executes
        every trial, and the re-run executes none."""

        def sweep(backend, cache=None):
            return run_trials(
                gossip_workload(topology="line", num_nodes=5, phases=6),
                algorithm_a(),
                adversary_factory=RandomNoiseFactory(fraction=0.004),
                trials=6,
                backend=backend,
                cache=cache,
            )

        serial_backend = SerialBackend()
        serial = sweep(serial_backend)
        with ProcessPoolBackend(max_workers=2) as pool_backend:
            pooled = sweep(pool_backend)
        assert pooled.runs == serial.runs
        assert pooled.aggregate == serial.aggregate
        assert serial_backend.trials_executed == pool_backend.trials_executed == 6

        cache = ResultCache()
        cached_backend = SerialBackend()
        sweep(cached_backend, cache=cache)
        executed_after_warmup = cached_backend.trials_executed
        rerun = sweep(cached_backend, cache=cache)
        assert cached_backend.trials_executed == executed_after_warmup
        assert rerun.runs == serial.runs

    def test_every_workload_survives_pickling_through_the_pool(self):
        """Every built-in workload must execute under a process pool."""
        backend = ProcessPoolBackend(max_workers=2, chunk_size=1)
        scheme = crs_oblivious_scheme()
        for name in sorted(WORKLOAD_BUILDERS):
            workload = WORKLOAD_BUILDERS[name]()
            trial_set = run_trials(
                workload, scheme, adversary_factory=NoiselessFactory(),
                trials=2, backend=backend, cache=None,
            )
            assert trial_set.aggregate.success_rate == 1.0, name

    def test_chunking_preserves_order(self):
        workload = pairwise_workload()
        scheme = crs_oblivious_scheme()
        seeds = [derive_trial_seed(0, trial) for trial in range(5)]
        specs = build_trial_specs(workload, scheme, NoiselessFactory(), seeds)
        serial = SerialBackend().run(specs)
        pooled = ProcessPoolBackend(max_workers=2, chunk_size=2).run(specs)
        assert serial == pooled

    def test_empty_spec_list_is_a_no_op(self):
        assert SerialBackend().run([]) == []
        pool = ProcessPoolBackend(max_workers=2)
        assert pool.run([]) == []
        assert pool._executor is None  # no processes started for nothing

    def test_backend_argument_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(chunk_size=0)


class TestTrialKeys:
    def test_identical_specs_fingerprint_identically(self):
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)
        key_a = fingerprint_trial(TrialSpec(gossip_workload(), scheme, factory, 17))
        key_b = fingerprint_trial(TrialSpec(gossip_workload(), scheme, factory, 17))
        assert key_a.stable and key_b.stable
        assert key_a.digest == key_b.digest

    def test_fingerprint_is_invariant_under_use(self):
        """Using a workload must not change its fingerprint (protocol lazy
        caches — ``_schedule``, round-layout tables, chunk plans, the
        reference run — are excluded from the canonical payload)."""
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)
        for name in sorted(WORKLOAD_BUILDERS):
            used = WORKLOAD_BUILDERS[name]()
            used.protocol.schedule()        # populate every lazy cache
            used.protocol.run_noiseless()
            fresh = WORKLOAD_BUILDERS[name]()
            key_used = fingerprint_trial(TrialSpec(used, scheme, factory, 17))
            key_fresh = fingerprint_trial(TrialSpec(fresh, scheme, factory, 17))
            assert key_used.digest == key_fresh.digest, name
        # ... and a full noisy simulation does not change it either, nor does
        # a second one, which reuses the workload's cached plan (chunk plan,
        # reference run, spanning tree) and must still match a fresh workload.
        used = gossip_workload()
        run_trials(used, scheme, adversary_factory=factory, trials=1, cache=None)
        key_used = fingerprint_trial(TrialSpec(used, scheme, factory, 17))
        key_fresh = fingerprint_trial(TrialSpec(gossip_workload(), scheme, factory, 17))
        assert key_used.digest == key_fresh.digest
        again = run_trials(used, scheme, adversary_factory=factory, seeds=[1017], cache=None)
        fresh = run_trials(gossip_workload(), scheme, adversary_factory=factory, seeds=[1017], cache=None)
        assert fingerprint_trial(TrialSpec(used, scheme, factory, 17)).digest == key_fresh.digest
        assert again.runs == fresh.runs

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w, s, f: (w, s, f, 18),                                   # seed
            lambda w, s, f: (w, s.with_overrides(chunk_multiplier=7), f, 17),  # scheme
            lambda w, s, f: (w, s, RandomNoiseFactory(fraction=0.005), 17),  # adversary
            lambda w, s, f: (gossip_workload(phases=9), s, f, 17),           # workload
        ],
    )
    def test_any_ingredient_change_changes_the_digest(self, mutate):
        workload, scheme, factory = gossip_workload(), algorithm_a(), RandomNoiseFactory(fraction=0.004)
        base = fingerprint_trial(TrialSpec(workload, scheme, factory, 17))
        changed = fingerprint_trial(TrialSpec(*mutate(workload, scheme, factory)))
        assert base.digest != changed.digest

    def test_lambda_factories_are_unstable(self):
        key = fingerprint_trial(
            TrialSpec(gossip_workload(), algorithm_a(), lambda seed: None, 17)
        )
        assert not key.stable


class TestResultCache:
    def test_second_run_trials_call_runs_zero_new_simulations(self):
        """Acceptance criterion: a repeated call is served entirely from cache."""
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)
        backend = SerialBackend()
        cache = ResultCache()

        first = run_trials(workload, scheme, adversary_factory=factory, trials=4,
                           backend=backend, cache=cache)
        assert backend.trials_executed == 4
        assert cache.stats.stores == 4

        second = run_trials(workload, scheme, adversary_factory=factory, trials=4,
                            backend=backend, cache=cache)
        assert backend.trials_executed == 4      # zero new simulations
        assert cache.stats.hits == 4
        assert first.runs == second.runs
        assert first.aggregate == second.aggregate

    def test_cache_none_executes_every_trial_on_every_run(self):
        """With the cache bypassed nothing remembers results: a repeated run
        executes every trial again (and computes the same metrics)."""
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        backend = SerialBackend()
        first = run_trials(workload, algorithm_a(), adversary_factory=RandomNoiseFactory(0.004),
                           trials=4, backend=backend, cache=None)
        second = run_trials(workload, algorithm_a(), adversary_factory=RandomNoiseFactory(0.004),
                            trials=4, backend=backend, cache=None)
        assert backend.trials_executed == 8
        assert second.runs == first.runs

    def test_disk_cache_survives_across_instances(self, tmp_path):
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=0.004)

        warm_backend = SerialBackend()
        first = run_trials(workload, scheme, adversary_factory=factory, trials=3,
                           backend=warm_backend, cache=ResultCache(tmp_path))

        # A fresh cache instance (≈ a new process) reloads from disk.
        cold_cache = ResultCache(tmp_path)
        assert len(cold_cache) == 3
        cold_backend = SerialBackend()
        second = run_trials(gossip_workload(topology="line", num_nodes=4, phases=6),
                            scheme, adversary_factory=RandomNoiseFactory(fraction=0.004),
                            trials=3, backend=cold_backend, cache=cold_cache)
        assert cold_backend.trials_executed == 0
        assert first.runs == second.runs

    def test_corrupt_cache_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text('not json\n{"schema": 999, "key": "x", "metrics": {}}\n')
        cache = ResultCache(tmp_path)
        assert len(cache) == 0

    def test_wrong_typed_metrics_are_a_miss_and_run_again(self, tmp_path):
        """A current-schema line whose metrics carry wrong-typed fields or
        negative counts is skipped on load: the trial misses and runs again,
        with the right result."""
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        factory = RandomNoiseFactory(fraction=0.004)
        first = run_trials(workload, algorithm_a(), adversary_factory=factory, trials=1,
                           backend=SerialBackend(), cache=ResultCache(tmp_path))
        path = tmp_path / "trials.jsonl"
        record = json.loads(path.read_text())
        assert record["schema"] == CACHE_SCHEMA_VERSION
        for damage in (
            {"success": "yes", "protocol_communication": "10"},
            {"corruptions": -3, "simulation_communication": -5},
        ):
            path.write_text(json.dumps(dict(record, metrics=dict(record["metrics"], **damage))) + "\n")
            cache = ResultCache(tmp_path)
            assert len(cache) == 0, damage
            backend = SerialBackend()
            again = run_trials(workload, algorithm_a(), adversary_factory=factory, trials=1,
                               backend=backend, cache=cache)
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
            assert backend.trials_executed == 1
            assert again.runs == first.runs

    def test_unstable_keys_bypass_the_cache(self):
        workload = pairwise_workload()
        scheme = crs_oblivious_scheme()
        backend = SerialBackend()
        cache = ResultCache()
        factory = lambda seed: NoiselessFactory()(seed)  # noqa: E731 — deliberately unstable
        specs = build_trial_specs(workload, scheme, factory, [17, 1017])
        execute_trials(specs, backend=backend, cache=cache)
        execute_trials(specs, backend=backend, cache=cache)
        assert backend.trials_executed == 4              # nothing was cached
        assert cache.stats.stores == 0

    def test_sweep_level_caching_through_the_context(self):
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        backend = SerialBackend()
        with use_runtime(backend=backend, cache=ResultCache()):
            first = noise_sweep(workload, algorithm_a(), multipliers=(0.5, 1.0), trials=2)
            executed = backend.trials_executed
            second = noise_sweep(workload, algorithm_a(), multipliers=(0.5, 1.0), trials=2)
        assert backend.trials_executed == executed
        assert first == second


def _metrics_payload():
    return RunMetrics(
        scheme="algorithm_a", success=True, protocol_communication=10,
        simulation_communication=100, corruptions=0, noise_fraction=0.0,
        iterations_run=5, iterations_budget=9,
    ).to_payload()


class TestLoadersSkipNonRecords:
    """A cache line or run document that is valid JSON but not a record (an
    array, a scalar, a foreign object) is skipped or refused, never a crash."""

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(_JSON.filter(_not_schema(CACHE_SCHEMA_VERSION)), min_size=1, max_size=4))
    def test_cache_load_and_compact_skip_non_record_lines(self, values):
        good = {"schema": CACHE_SCHEMA_VERSION, "key": "k",
                "metrics": _metrics_payload()}
        with tempfile.TemporaryDirectory() as directory:
            lines = [json.dumps(value) for value in values] + [json.dumps(good)]
            (Path(directory) / "trials.jsonl").write_text("\n".join(lines) + "\n")
            assert len(ResultCache(directory)) == 1
            assert ResultCache(directory).compact() == {
                "kept": 1, "dropped_superseded": 0, "dropped_invalid": len(values),
            }

    @settings(max_examples=40, deadline=None)
    @given(value=_JSON.filter(_not_schema(STORE_SCHEMA_VERSION)))
    def test_run_store_refuses_non_record_documents(self, value):
        from repro.cli import main

        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / "run-000001.json").write_text(json.dumps(value))
            with pytest.raises(ValueError):
                RunStore(directory).load("run-000001")
            with pytest.raises(SystemExit) as excinfo:
                main(["runs", "show", "run-000001", "--store-dir", directory])
            assert excinfo.value.code == 1


class TestRunStore:
    def test_trial_set_round_trip(self, tmp_path):
        """persist → list → load equals the original, field for field."""
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        scheme = algorithm_a()
        store = RunStore(tmp_path)
        trial_set = run_trials(workload, scheme, adversary_factory=RandomNoiseFactory(0.004),
                               trials=3, cache=None, store=store)

        summaries = store.list_runs()
        assert len(summaries) == 1
        assert summaries[0]["kind"] == "trial_set"
        assert summaries[0]["trials"] == 3

        stored = RunStore.trial_set_from_payload(store.load(summaries[0]["run_id"]))
        assert stored.label == trial_set.label
        assert stored.runs == trial_set.runs
        assert stored.aggregate == trial_set.aggregate

    def test_run_ids_are_monotonic(self, tmp_path):
        store = RunStore(tmp_path)
        workload = pairwise_workload()
        ids = [
            run_trials(workload, crs_oblivious_scheme(), trials=1, cache=None, store=store)
            and store.list_runs()[-1]["run_id"]
            for _ in range(3)
        ]
        assert ids == sorted(ids) and len(set(ids)) == 3

    def test_unknown_run_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            RunStore(tmp_path).load("run-999999")

    def test_unknown_schema_raises(self, tmp_path):
        store = RunStore(tmp_path)
        (tmp_path / "run-000001.json").write_text(json.dumps({"schema": 999, "run_id": "run-000001"}))
        with pytest.raises(ValueError):
            store.load("run-000001")

    def test_cache_served_cell_records_its_cached_trials(self, tmp_path):
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        cache, store = ResultCache(), RunStore(tmp_path)
        run_trials(workload, algorithm_a(), adversary_factory=RandomNoiseFactory(0.004),
                   trials=3, cache=cache)
        run_trials(workload, algorithm_a(), adversary_factory=RandomNoiseFactory(0.004),
                   trials=3, cache=cache, store=store)
        (row,) = store.list_runs()
        payload = store.load(row["run_id"])
        assert payload["cached_trials"] == 3
        assert "workers" not in payload

    def test_serial_runs_record_no_attribution(self, tmp_path):
        store = RunStore(tmp_path)
        run_trials(pairwise_workload(), crs_oblivious_scheme(), trials=2, cache=None, store=store)
        payload = store.load(store.list_runs()[0]["run_id"])
        assert "workers" not in payload
        assert payload["cached_trials"] == 0

    @staticmethod
    def _store_with_retired_worker_attribution(tmp_path):
        """Two trial sets rewritten the way older versions wrote them: with a
        ``workers`` attribution block that carries retired cache-hit fields."""
        store = RunStore(tmp_path)
        workload = pairwise_workload()
        for _ in range(2):
            run_trials(workload, crs_oblivious_scheme(), trials=2, cache=None, store=store)
        for row in store.list_runs():
            path = tmp_path / f"{row['run_id']}.json"
            payload = json.loads(path.read_text())
            payload["workers"] = {
                "backend": "distributed", "trials_total": 2, "remote_cache_hits": 2,
                "workers": {"w1": {"dispatched": 1, "stolen": 0, "redispatched": 0,
                                   "trials_executed": 2, "cache_hits": 0}},
            }
            path.write_text(json.dumps(payload))
        return store

    def test_records_with_retired_worker_attribution_still_diff(self, tmp_path):
        from repro.runtime import diff_runs

        store = self._store_with_retired_worker_attribution(tmp_path)
        first, second = (store.load(row["run_id"]) for row in store.list_runs())
        assert first["workers"]["workers"]["w1"]["trials_executed"] == 2
        assert not diff_runs(first, second).has_regression

    def test_runs_show_displays_records_with_retired_cache_hit_fields(self, tmp_path, capsys):
        """Older records still show; their ``workers`` block is not rendered."""
        from repro.cli import main

        self._store_with_retired_worker_attribution(tmp_path)
        assert main(["runs", "show", "latest", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "success_rate" in out
        assert "w1" not in out and "stolen" not in out and "cache_hits" not in out

    def test_query_filters(self, tmp_path):
        store = RunStore(tmp_path)
        workload = pairwise_workload()
        run_trials(workload, crs_oblivious_scheme(), trials=1, cache=None, store=store)
        assert store.query(kind="trial_set")
        assert not store.query(kind="report")
        assert store.query(experiment="run_trials")
        assert not store.query(experiment="nonexistent")


class TestMetricsPayloadRoundTrip:
    def test_run_metrics_round_trip_is_lossless(self):
        metrics = RunMetrics(
            scheme="algorithm_a", success=True, protocol_communication=10,
            simulation_communication=100, corruptions=2, noise_fraction=0.02,
            iterations_run=5, iterations_budget=9,
            communication_by_phase={"simulation": 80, "meeting_points": 20},
            corruptions_by_phase={"simulation": 2}, meeting_point_truncations=1,
            rewinds_sent=3, hash_mismatches_detected=1, hash_collisions_observed=0,
            randomness_exchange_failures=0,
        )
        assert RunMetrics.from_payload(json.loads(json.dumps(metrics.to_payload()))) == metrics

    def test_aggregate_metrics_round_trip_is_lossless(self):
        aggregate = AggregateMetrics(
            scheme="algorithm_b", trials=4, successes=3, mean_overhead=41.5,
            mean_noise_fraction=0.003, mean_corruptions=1.25,
        )
        assert AggregateMetrics.from_payload(json.loads(json.dumps(aggregate.to_payload()))) == aggregate

    def test_unknown_payload_keys_are_ignored(self):
        payload = AggregateMetrics("x", 1, 1, 1.0, 0.0, 0.0).to_payload()
        payload["added_in_a_future_version"] = True
        assert AggregateMetrics.from_payload(payload).scheme == "x"


class TestRuntimeContext:
    def test_default_context_is_serial_and_uncached(self):
        context = get_runtime()
        assert context.backend.name == "serial"
        assert context.cache is None
        assert context.store is None

    def test_use_runtime_restores_on_exit(self):
        before = get_runtime()
        with use_runtime(backend=ProcessPoolBackend(max_workers=2), cache=ResultCache()):
            inside = get_runtime()
            assert inside.backend.name == "process-pool"
            assert inside.cache is not None
        assert get_runtime() is before

    def test_explicit_arguments_beat_the_context(self):
        workload = pairwise_workload()
        explicit = SerialBackend()
        ambient = SerialBackend()
        with use_runtime(backend=ambient):
            run_trials(workload, crs_oblivious_scheme(), trials=1, backend=explicit, cache=None)
        assert explicit.trials_executed == 1
        assert ambient.trials_executed == 0


class TestRunsCli:
    def test_experiment_store_and_runs_listing(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "runs"
        code = main([
            "noise-sweep", "--topology", "line", "--nodes", "4", "--phases", "4",
            "--multipliers", "0.5", "--trials", "1",
            "--store-dir", str(store_dir), "--seed", "11",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed: 11" in out
        assert "run persisted as" in out

        assert main(["runs", "list", "--store-dir", str(store_dir)]) == 0
        listing = capsys.readouterr().out
        assert "trial_set" in listing and "report" in listing

        run_id = RunStore(store_dir).list_runs()[0]["run_id"]
        assert main(["runs", "show", run_id, "--store-dir", str(store_dir)]) == 0
        shown = capsys.readouterr().out
        assert run_id in shown

    def test_jobs_and_cache_flags_produce_identical_reports(self, tmp_path, capsys):
        from repro.cli import main

        args = ["noise-sweep", "--topology", "line", "--nodes", "4", "--phases", "4",
                "--multipliers", "0.5", "4.0", "--trials", "2", "--seed", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out == serial_out

    @pytest.mark.parametrize("command", ["show", "diff"])
    def test_wrong_typed_trial_set_fails_with_one_line(self, tmp_path, capsys, command):
        """A trial set whose aggregate has a wrong-typed field, or whose
        trial metrics hold a negative count, is an unreadable run: exit 1
        with one stderr line, not a traceback."""
        from repro.cli import main

        store = RunStore(tmp_path)
        run_trials(pairwise_workload(), crs_oblivious_scheme(), trials=1, cache=None, store=store)
        run_id = store.list_runs()[0]["run_id"]
        path = tmp_path / f"{run_id}.json"
        stored = path.read_text()
        argv = ["runs", "show", run_id] if command == "show" else ["runs", "diff", run_id, run_id]
        for section, field, value in (("aggregate", "trials", "3"), ("runs", "corruptions", -3)):
            payload = json.loads(stored)
            record = payload["runs"][0] if section == "runs" else payload[section]
            record[field] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--store-dir", str(tmp_path)])
            assert excinfo.value.code == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            name = "AggregateMetrics" if section == "aggregate" else "RunMetrics"
            assert err[0].startswith(f"error: run {run_id!r}") and f"{name}.{field}" in err[0]

    def test_every_experiment_command_prints_the_seed(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--workload", "pairwise", "--nodes", "4",
                     "--noise", "0.0", "--seed", "9"]) == 0
        assert "seed: 9" in capsys.readouterr().out
        assert main(["ablations", "--which", "chunk_size", "--trials", "1", "--seed", "4"]) == 0
        assert "seed: 4" in capsys.readouterr().out


class TestRunStoreListing:
    """Listing and ``latest`` references read the run documents: nothing
    else is written, and the listing follows whatever is on disk."""

    def _store_with_runs(self, tmp_path, count=3):
        store = RunStore(tmp_path)
        workload = pairwise_workload()
        for _ in range(count):
            run_trials(workload, crs_oblivious_scheme(), trials=1, cache=None, store=store)
        return store

    def test_hand_deleted_run_file_heals_on_next_list(self, tmp_path):
        store = self._store_with_runs(tmp_path, count=3)
        victim = store.list_runs()[0]["run_id"]
        (tmp_path / f"{victim}.json").unlink()  # behind the store's back
        listed = {row["run_id"] for row in store.list_runs()}
        assert victim not in listed
        assert len(listed) == 2

    def test_hand_edited_run_file_heals_on_next_list(self, tmp_path):
        store = self._store_with_runs(tmp_path, count=2)
        target = store.list_runs()[0]["run_id"]
        path = tmp_path / f"{target}.json"
        payload = json.loads(path.read_text())
        payload["label"] = "edited-behind-the-stores-back"
        path.write_text(json.dumps(payload))
        labels = {row["run_id"]: row["label"] for row in store.list_runs()}
        assert labels[target] == "edited-behind-the-stores-back"

    def test_a_leftover_index_file_is_ignored_and_kept(self, tmp_path):
        """Older builds kept a listing cache in ``index.json``: whatever it
        holds, listing and ``latest`` follow the documents and leave it be."""
        store = self._store_with_runs(tmp_path, count=2)
        before = store.list_runs()
        stale = json.dumps({"schema": 1, "runs": {"run-000001": {"stat": [1, 1], "summary": None}}})
        for leftover in (stale, "} definitely not json {"):
            (tmp_path / "index.json").write_text(leftover)
            assert store.list_runs() == before
            assert store.load("latest")["run_id"] == before[-1]["run_id"]
            assert (tmp_path / "index.json").read_text() == leftover

    def test_store_root_holds_only_run_documents(self, tmp_path):
        store = self._store_with_runs(tmp_path, count=2)
        self._record(store)
        store.list_runs()
        store.load("latest", kind="trial_set")
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["run-000001.json", "run-000002.json", "run-000003.json"]

    def test_resolve_reads_newest_first_up_to_its_match(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.experiments.reporting import ExperimentReport

        store = self._store_with_runs(tmp_path, count=2)
        store.record_report(ExperimentReport(experiment="noise_sweep", rows=[{"x": 1}], parameters={}))
        store.record_report(ExperimentReport(experiment="noise_sweep", rows=[{"x": 2}], parameters={}))
        read = []
        original = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            read.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        assert store.load("latest")["run_id"] == "run-000004"
        assert read == ["run-000004.json"]
        read.clear()
        assert store.load("latest", kind="trial_set")["run_id"] == "run-000002"
        assert read == ["run-000004.json", "run-000003.json", "run-000002.json"]
        read.clear()
        assert store.load("latest~1", kind="report")["run_id"] == "run-000003"
        assert read == ["run-000004.json", "run-000003.json"]

    def test_runs_show_reads_each_document_once(self, tmp_path, monkeypatch, capsys):
        """``repro runs show latest~1`` parses the run it shows once: the
        reference hands back the document it read to find the match."""
        from collections import Counter
        from pathlib import Path

        from repro.cli import main

        self._store_with_runs(tmp_path, count=2)
        read = Counter()
        original = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            read[path.name] += 1
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        assert main(["runs", "show", "latest~1", "--store-dir", str(tmp_path)]) == 0
        assert "run-000001" in capsys.readouterr().out
        assert read == {"run-000002.json": 1, "run-000001.json": 1}

    def test_concurrent_writers_never_overwrite_each_other(self, tmp_path):
        """Two store handles on the same directory interleave run ids instead
        of clobbering (the exclusive hard-link claim)."""
        first, second = RunStore(tmp_path), RunStore(tmp_path)
        workload = pairwise_workload()
        ids = []
        for store in (first, second, first, second):
            run_trials(workload, crs_oblivious_scheme(), trials=1, cache=None, store=store)
            ids.append(store.list_runs()[-1]["run_id"])
        assert len(set(ids)) == 4
        assert {row["run_id"] for row in first.list_runs()} == set(ids)

    @staticmethod
    def _record(store):
        runs = [RunMetrics(scheme="crs", success=True, protocol_communication=1,
                           simulation_communication=2, corruptions=0, noise_fraction=0.0,
                           iterations_run=1, iterations_budget=1)]
        return store.record_trial_set(label="cell", runs=runs, aggregate=summarize_runs(runs))

    def test_listing_ignores_a_staged_document(self, tmp_path):
        """A concurrent writer's document is staged under ``.staging-*`` until
        its id is claimed; listing neither lists nor removes it."""
        store = RunStore(tmp_path)
        first = self._record(store)
        staging = tmp_path / ".staging-racer.json"
        staging.write_text("{}")
        second = self._record(store)
        assert [row["run_id"] for row in store.list_runs()] == [first, second]
        assert staging.exists()

    def test_listing_finds_a_run_claimed_by_another_writer(self, tmp_path):
        """A document another writer claimed (the hard link landed) behind
        this handle's back: the next listing and ``latest`` find it."""
        store = RunStore(tmp_path)
        first = self._record(store)
        payload = json.loads((tmp_path / f"{first}.json").read_text())
        payload["run_id"] = "run-000099"
        (tmp_path / "run-000099.json").write_text(json.dumps(payload))
        assert [row["run_id"] for row in store.list_runs()] == [first, "run-000099"]
        assert store.load("latest")["run_id"] == "run-000099"

    def test_threaded_writers_leave_the_listing_equal_to_disk(self, tmp_path):
        """Handles recording at once, like separate processes: whatever the
        interleaving, every run lands and the listing matches the files."""
        import sys
        import threading

        errors: list = []

        def writer() -> None:
            store = RunStore(tmp_path)  # one handle per writer
            try:
                for _ in range(10):
                    self._record(store)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so writes interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        on_disk = {path.stem for path in tmp_path.glob("run-*.json")}
        assert len(on_disk) == 30
        assert {row["run_id"] for row in RunStore(tmp_path).list_runs()} == on_disk

    def test_listing_a_nonexistent_store_creates_nothing(self, tmp_path):
        root = tmp_path / "never-created"
        assert RunStore(root).list_runs() == []
        assert not root.exists()


class TestCacheCompaction:
    def _warm_disk_cache(self, tmp_path, trials=3):
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        run_trials(workload, algorithm_a(), adversary_factory=RandomNoiseFactory(0.004),
                   trials=trials, cache=ResultCache(tmp_path))
        return tmp_path / "trials.jsonl"

    def test_compact_folds_duplicate_keys_to_the_latest_line(self, tmp_path):
        path = self._warm_disk_cache(tmp_path)
        original_lines = path.read_text().strip().splitlines()
        # Re-append every line (simulating re-stores of the same keys) …
        with path.open("a") as handle:
            for line in original_lines:
                handle.write(line + "\n")
        cache = ResultCache(tmp_path)
        result = cache.compact()
        assert result["kept"] == len(original_lines)
        assert result["dropped_superseded"] == len(original_lines)
        assert result["dropped_invalid"] == 0
        # … and the compacted file still serves every trial.
        assert len(ResultCache(tmp_path)) == len(original_lines)

    def test_compact_drops_version_mismatched_and_corrupt_lines(self, tmp_path):
        path = self._warm_disk_cache(tmp_path)
        keep = len(path.read_text().strip().splitlines())
        with path.open("a") as handle:
            handle.write('{"schema": 999, "key": "stale", "metrics": {}}\n')
            handle.write("not json at all\n")
        result = ResultCache(tmp_path).compact()
        assert result["kept"] == keep
        assert result["dropped_invalid"] == 2
        reloaded = ResultCache(tmp_path)
        assert len(reloaded) == keep

    def test_compact_treats_a_truncated_final_line_as_invalid(self, tmp_path):
        """A crash mid-append leaves a final line without its newline; compact
        drops it (exactly what load() would do) without touching valid lines."""
        path = self._warm_disk_cache(tmp_path)
        keep = len(path.read_text().strip().splitlines())
        with path.open("a") as handle:
            handle.write('{"schema": 1, "key": "trunc')  # no newline, no close
        result = ResultCache(tmp_path).compact()
        assert result["kept"] == keep
        assert result["dropped_invalid"] == 1
        assert len(ResultCache(tmp_path)) == keep

    def test_compact_keeps_exactly_what_load_serves(self, tmp_path):
        """A valid line, then the same key with a wrong-typed field, then an
        int key: load serves only the first, and compact keeps only it."""
        good = {"schema": CACHE_SCHEMA_VERSION, "key": "k", "metrics": _metrics_payload()}
        wrong_typed = dict(good, metrics=dict(good["metrics"], success="yes"))
        int_key = dict(good, key=12345)
        lines = [json.dumps(record) for record in (good, wrong_typed, int_key)]
        (tmp_path / "trials.jsonl").write_text("\n".join(lines) + "\n")
        before = ResultCache(tmp_path)._memory
        assert before == {"k": RunMetrics.from_payload(good["metrics"])}
        assert ResultCache(tmp_path).compact() == {
            "kept": 1, "dropped_superseded": 0, "dropped_invalid": 2,
        }
        assert ResultCache(tmp_path)._memory == before

    def test_a_non_utf8_line_is_skipped_not_fatal(self, tmp_path):
        good = {"schema": CACHE_SCHEMA_VERSION, "key": "k", "metrics": _metrics_payload()}
        (tmp_path / "trials.jsonl").write_bytes(b"\xff\xfe garbage\n" + json.dumps(good).encode() + b"\n")
        assert len(ResultCache(tmp_path)) == 1
        assert ResultCache(tmp_path).compact() == {"kept": 1, "dropped_superseded": 0, "dropped_invalid": 1}
        assert len(ResultCache(tmp_path)) == 1

    def test_compact_requires_a_disk_backed_cache(self):
        with pytest.raises(ValueError):
            ResultCache().compact()

    def test_compact_of_an_empty_cache_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._path.unlink(missing_ok=True)
        result = cache.compact()
        assert result == {"kept": 0, "dropped_superseded": 0, "dropped_invalid": 0}

    def test_cli_cache_compact(self, tmp_path, capsys):
        from repro.cli import main

        self._warm_disk_cache(tmp_path)
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "compacted" in capsys.readouterr().out
