"""Tests for :mod:`repro.obs`: metrics, tracing and their surfacing.

The guarantees pinned here:

1. the :class:`MetricsRegistry` accumulates counters (thread-safely) and
   snapshots them flat;
2. the :class:`Tracer` nests spans per thread, samples trials, adopts a pool
   chunk's spans onto its own trace id, and drains destructively;
3. the ambient :func:`use_obs` scope is thread-local and fingerprint-neutral
   (no ``TrialKey`` change, bit-identical results with obs on and off);
4. an instrumented engine run flushes the documented counter families
   (``engine.*``, ``transport.*``, ``hashing.*``);
5. traces persist to the :class:`RunStore` and render via ``repro runs
   trace``; metrics render via ``repro runs metrics`` and gate via
   ``repro runs diff --kind metrics``;
6. a 2-process pooled sweep yields ONE trace whose chunk spans hang off the
   caller's ``trial_set`` span.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.engine import simulate
from repro.core.parameters import SCHEME_PRESETS, algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload
from repro.obs import (
    DISABLED,
    MetricsRegistry,
    Tracer,
    counters_delta,
    critical_path,
    format_metrics_rows,
    get_obs,
    render_critical_path,
    render_trace_tree,
    use_obs,
)
from repro.runtime import (
    ProcessPoolBackend,
    RunStore,
    SerialBackend,
    build_trial_specs,
    derive_trial_seed,
    fingerprint_trial,
    use_runtime,
)


def _cell():
    workload = gossip_workload(topology="line", num_nodes=4, phases=6)
    return workload, algorithm_a(), RandomNoiseFactory(fraction=0.004)


def _run(backend=None, trials=3, **kwargs):
    workload, scheme, factory = _cell()
    return run_trials(
        workload, scheme, adversary_factory=factory, trials=trials, base_seed=3,
        backend=backend or SerialBackend(), cache=None, store=None, **kwargs,
    )


class TestMetricsRegistry:
    def test_counters_accumulate_and_skip_zero(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 4)
        registry.inc("a.zero", 0)  # never materialised
        registry.inc_many({"c": 2, "d": 0}, prefix="x.")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a.b": 5, "x.c": 2}

    def test_counters_delta_keeps_only_moved_keys(self):
        before = {"a": 1, "b": 2}
        after = {"a": 1, "b": 5, "c": 3}
        assert counters_delta(before, after) == {"b": 3, "c": 3}

    def test_format_rows_filters_by_prefix(self):
        rows = format_metrics_rows({"engine.x": 1.0, "cache.y": 2.0}, ("engine.",))
        assert [row["metric"] for row in rows] == ["engine.x"]
        assert rows[0]["value"] == 1  # integral floats render as ints

    def test_thread_safety_under_concurrent_inc(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(1000):
                registry.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.snapshot()["counters"]["n"] == 4000


class TestTracer:
    def test_spans_nest_on_the_open_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.drain()
        assert [span["name"] for span in spans] == ["inner", "outer"]  # close order
        assert all(span["trace_id"] == tracer.trace_id for span in spans)
        assert all(span["duration"] >= 0 for span in spans)

    def test_sampling_suppresses_unsampled_trials_and_their_children(self):
        tracer = Tracer(sample_every=2)
        for index in range(4):
            with tracer.trial(seed=index) as span:
                with tracer.span("phase"):
                    pass
                if index % 2 == 0:
                    assert span is not None
                else:
                    assert span is None
        spans = tracer.drain()
        # trials 0 and 2 recorded (trial + phase each); 1 and 3 fully suppressed
        assert len(spans) == 4
        assert sum(1 for span in spans if span["name"] == "trial") == 2

    def test_adopt_rewrites_the_trace_id(self):
        chunk = Tracer()
        with chunk.span("worker_chunk"):
            pass
        local = Tracer()
        adopted = local.adopt(chunk.drain())
        assert adopted == 1
        (span,) = local.drain()
        assert span["trace_id"] == local.trace_id
        assert span["name"] == "worker_chunk"

    def test_drain_is_destructive(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_explicit_parent_overrides_the_stack(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b", parent_id="elsewhere"):
                pass
        spans = {span["name"]: span for span in tracer.drain()}
        assert spans["b"]["parent_id"] == "elsewhere"

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestObsContext:
    def test_default_is_disabled(self):
        context = get_obs()
        assert context.metrics is None and context.tracer is None
        assert not DISABLED.enabled

    def test_use_obs_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            assert get_obs().metrics is registry
            assert get_obs().tracer is None
        assert get_obs().metrics is None

    def test_nesting_inherits_unset_fields(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_obs(metrics=registry, tracer=tracer):
            with use_obs(tracer=None):  # narrow: metrics stay, tracer off
                assert get_obs().metrics is registry
                assert get_obs().tracer is None
            assert get_obs().tracer is tracer

    def test_scope_is_thread_local(self):
        registry = MetricsRegistry()
        seen = {}

        def probe():
            seen["metrics"] = get_obs().metrics

        with use_obs(metrics=registry):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["metrics"] is None  # the override never leaked across threads


class TestEngineInstrumentation:
    def test_engine_flushes_the_documented_counter_families(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            _run(trials=2)
        counters = registry.snapshot()["counters"]
        assert counters["engine.trials"] == 2
        assert counters["engine.rounds_total"] > 0
        assert counters["transport.windows_exchanged"] > 0
        assert counters["transport.transmissions"] > 0
        assert counters["hashing.seed_derivations"] > 0
        # per-phase attribution sums over the documented phases
        phase_keys = [key for key in counters if key.startswith("engine.rounds.")]
        assert set(phase_keys) >= {"engine.rounds.meeting_points", "engine.rounds.simulation"}

    @pytest.mark.parametrize("preset", sorted(SCHEME_PRESETS))
    @pytest.mark.parametrize("topology", ["clique", "line"])
    def test_seed_derivations_count_each_link_once(self, preset, topology):
        """A noiseless trial derives two seed slots per link per iteration:
        both endpoints of a CRS or agreed link read one source."""
        workload = gossip_workload(topology, 5, 6, seed=1)
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            result = simulate(workload.protocol, scheme=SCHEME_PRESETS[preset](), seed=1)
        links = workload.protocol.graph.num_edges
        derivations = registry.snapshot()["counters"]["hashing.seed_derivations"]
        assert derivations == 2 * links * result.iterations_run

    def test_results_are_bit_identical_with_obs_on_and_off(self):
        plain = _run(trials=3)
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer()):
            observed = _run(trials=3)
        assert [run.to_payload() for run in plain.runs] == [
            run.to_payload() for run in observed.runs
        ]

    def test_metrics_only_and_full_tracing_are_bit_identical(self):
        """Observation buys data, never behaviour: a metrics-only scope and a
        full-sampling trace give the plain run's results, on a cell at
        Algorithm A's nominal noise."""
        workload = gossip_workload(topology="line", num_nodes=5, phases=8, seed=0)
        scheme = algorithm_a()
        factory = RandomNoiseFactory(fraction=scheme.nominal_noise_fraction(workload.graph))

        def cell():
            trial_set = run_trials(
                workload, scheme, adversary_factory=factory, trials=4, base_seed=3,
                backend=SerialBackend(), cache=None, store=None,
            )
            return [run.to_payload() for run in trial_set.runs]

        plain = cell()
        with use_obs(metrics=MetricsRegistry(), tracer=None):
            assert cell() == plain
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer(sample_every=1)):
            assert cell() == plain

    def test_fingerprints_are_obs_invisible(self):
        workload, scheme, factory = _cell()
        specs = build_trial_specs(workload, scheme, factory, [derive_trial_seed(3, 0)])
        cold = fingerprint_trial(specs[0]).digest
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer()):
            specs_obs = build_trial_specs(workload, scheme, factory, [derive_trial_seed(3, 0)])
            assert fingerprint_trial(specs_obs[0]).digest == cold

    def test_tracer_records_the_trial_phase_hierarchy(self):
        tracer = Tracer()
        with use_obs(tracer=tracer):
            _run(trials=1)
        spans = tracer.drain()
        names = {span["name"] for span in spans}
        assert {"trial_set", "trial", "iteration", "phase"} <= names
        by_id = {span["span_id"]: span for span in spans}
        phases = [span for span in spans if span["name"] == "phase"]
        assert phases and all(
            by_id[span["parent_id"]]["name"] == "iteration" for span in phases
        )


class TestStoreAndCli:
    def _record_observed_cell(self, tmp_path, fraction=0.004, trace=True):
        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        store = RunStore(tmp_path)
        tracer = Tracer() if trace else None
        with use_obs(metrics=MetricsRegistry(), tracer=tracer):
            run_trials(
                workload, algorithm_a(), adversary_factory=RandomNoiseFactory(fraction=fraction),
                trials=2, base_seed=3, backend=SerialBackend(), cache=None, store=store,
            )
        return store

    def test_trace_records_persist_and_render(self, tmp_path, capsys):
        from repro.cli import main

        store = self._record_observed_cell(tmp_path)
        (trace_row,) = store.query(kind="trace")
        assert main(["runs", "trace", trace_row["run_id"], "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trial_set" in out and "critical path" in out

    def test_runs_metrics_renders_and_filters(self, tmp_path, capsys):
        from repro.cli import main

        store = self._record_observed_cell(tmp_path, trace=False)
        (row,) = store.query(kind="trial_set")
        assert main([
            "runs", "metrics", row["run_id"], "--store-dir", str(tmp_path),
            "--prefix", "engine.",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine.trials" in out and "transport." not in out
        assert main(["runs", "metrics", row["run_id"], "--store-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["engine.trials"] == 2

    def test_runs_metrics_without_obs_fails_friendly(self, tmp_path, capsys):
        from repro.cli import main

        workload = gossip_workload(topology="line", num_nodes=4, phases=6)
        store = RunStore(tmp_path)
        run_trials(
            workload, algorithm_a(), trials=1, base_seed=3,
            backend=SerialBackend(), cache=None, store=store,
        )
        (row,) = store.query(kind="trial_set")
        with pytest.raises(SystemExit):
            main(["runs", "metrics", row["run_id"], "--store-dir", str(tmp_path)])
        assert "--obs" in capsys.readouterr().err

    def test_metrics_diff_passes_on_identical_runs(self, tmp_path, capsys):
        from repro.cli import main

        self._record_observed_cell(tmp_path, trace=False)
        self._record_observed_cell(tmp_path, trace=False)
        code = main([
            "runs", "diff", "latest~1", "latest",
            "--kind", "metrics", "--store-dir", str(tmp_path),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_metrics_diff_gates_on_counter_increase(self, tmp_path, capsys):
        from repro.cli import main

        self._record_observed_cell(tmp_path, fraction=0.0, trace=False)
        # More noise → more corruptions/rewinds → counters move; label matches
        # because the label only encodes workload/scheme.
        self._record_observed_cell(tmp_path, fraction=0.02, trace=False)
        code = main([
            "runs", "diff", "latest~1", "latest",
            "--kind", "metrics", "--store-dir", str(tmp_path),
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_runs_show_mentions_recorded_obs_metrics(self, tmp_path, capsys):
        from repro.cli import main

        store = self._record_observed_cell(tmp_path, trace=False)
        (row,) = store.query(kind="trial_set")
        assert main(["runs", "show", row["run_id"], "--store-dir", str(tmp_path)]) == 0
        assert "obs metrics" in capsys.readouterr().out

    def test_cli_obs_flag_records_metrics_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "noise-sweep", "--trials", "1", "--multipliers", "1.0",
            "--phases", "4", "--nodes", "4", "--obs", "--trace",
            "--store-dir", str(tmp_path),
        ])
        assert code == 0
        capsys.readouterr()
        store = RunStore(tmp_path)
        assert store.query(kind="trace")
        (cell,) = store.query(kind="trial_set")
        assert store.load(cell["run_id"])["obs_metrics"]


class TestPooledTracing:
    def test_two_process_sweep_yields_one_coherent_trace(self, tmp_path):
        workload, scheme, factory = _cell()
        store = RunStore(tmp_path)
        registry, tracer = MetricsRegistry(), Tracer()
        with ProcessPoolBackend(max_workers=2, chunk_size=1) as backend:  # one chunk per trial
            with use_obs(metrics=registry, tracer=tracer):
                with use_runtime(backend=backend, cache=None, store=store):
                    run_trials(workload, scheme, adversary_factory=factory, trials=6, base_seed=3)

        (trace_row,) = store.query(kind="trace")
        payload = store.load(trace_row["run_id"])
        spans = payload["spans"]
        # ONE trace id covers every span, from the caller and every chunk.
        assert {span["trace_id"] for span in spans} == {payload["trace_id"]}
        # Trial spans parent onto worker_chunk, which parents onto the
        # caller's trial_set — the cross-process chain is unbroken.
        by_id = {span["span_id"]: span for span in spans}
        chunks = [span for span in spans if span["name"] == "worker_chunk"]
        assert len(chunks) == 6
        for chunk in chunks:
            assert by_id[chunk["parent_id"]]["name"] == "trial_set"
        trials = [span for span in spans if span["name"] == "trial"]
        assert len(trials) == 6
        assert all(by_id[span["parent_id"]]["name"] == "worker_chunk" for span in trials)
        assert registry.snapshot()["counters"]["engine.trials"] == 6
        # The rendered tree and critical path cover every process.
        assert len(render_trace_tree(spans)) == len(spans)
        path = critical_path(spans)
        assert path[0]["name"] == "trial_set"
        assert render_critical_path(spans)[0].startswith("-> trial_set")


class TestSurfaceRendering:
    def _spans(self):
        return [
            {"name": "root", "span_id": "r", "parent_id": None, "start": 0.0,
             "duration": 10.0, "attrs": {}},
            {"name": "fast", "span_id": "f", "parent_id": "r", "start": 1.0,
             "duration": 2.0, "attrs": {}},
            {"name": "slow", "span_id": "s", "parent_id": "r", "start": 2.0,
             "duration": 7.0, "attrs": {"chunk": 1}},
        ]

    def test_tree_indents_children_under_parents(self):
        lines = render_trace_tree(self._spans())
        assert lines[0].startswith("root")
        assert lines[1].startswith("  fast")
        assert lines[2] == "  slow [7000.00 ms] chunk=1"

    def test_critical_path_follows_the_latest_finisher(self):
        path = critical_path(self._spans())
        assert [span["name"] for span in path] == ["root", "slow"]

    def test_orphan_spans_root_their_own_tree(self):
        spans = [{"name": "lonely", "span_id": "x", "parent_id": "missing",
                  "start": 0.0, "duration": 1.0, "attrs": {}}]
        assert render_trace_tree(spans) == ["lonely [1000.00 ms]"]
        assert render_critical_path(spans) == ["-> lonely [1000.00 ms]"]

    def test_empty_trace_renders_placeholders(self):
        assert render_trace_tree([]) == ["(no spans recorded)"]
        assert critical_path([]) == []
