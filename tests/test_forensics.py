"""Tests for the flight recorder and failure forensics.

The guarantees pinned here:

1. the :class:`FlightRecorder` ring is bounded (oldest events fall off,
   ``events_dropped`` counts them), dumps keep the full timeline only for
   failing trials, and ``drain``/``adopt`` behave like the tracer's;
2. ``classify_failure`` is **total** over failing trials — every dump lands
   in one of the four taxonomy causes, never "unknown" — and each cause is
   reachable;
3. the recorded Φ trajectory matches a hand-computed reference on a small
   scripted trial (and the engine's own ``PotentialTrace`` on a noisy one);
4. a seeded noise sweep with failures yields a concrete taxonomy cause for
   every failed trial, round-trips through the :class:`RunStore`, and
   renders via ``repro runs explain`` / ``repro runs flight``;
5. a process-pool run produces the same forensic dumps, engine counters and
   trial/iteration/phase spans as a serial run of the same specs (dumps are
   JSON-pure and sorted by seed, so the backend is invisible).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.adversary.base import NoiselessAdversary
from repro.analysis.forensics import (
    TAXONOMY,
    anatomy_rows,
    classify_failure,
    corruption_heatmap,
    explain_dump,
    failed_dumps,
    phi_trajectory,
    render_event,
    render_heatmap,
    render_trajectory,
    rewind_depth_trajectory,
)
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload
from repro.network.topologies import line_topology
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, use_obs
from repro.obs.recorder import classify_slot, link_label
from repro.protocols.random_protocol import RandomProtocol
from repro.runtime import ProcessPoolBackend, RunStore, SerialBackend


def _failing_cell():
    """A cell empirically known to fail some trials under these seeds
    (noise above algorithm_a's tolerance on a 4-node line)."""
    workload = gossip_workload(topology="line", num_nodes=4, phases=6)
    factory = RandomNoiseFactory(fraction=0.05, insertion_fraction=0.0125)
    return workload, algorithm_a(), factory


def _run_with_recorder(backend=None, store=None, trials=8, capacity=4096):
    workload, scheme, factory = _failing_cell()
    recorder = FlightRecorder(capacity=capacity)
    with use_obs(recorder=recorder):
        trial_set = run_trials(
            workload, scheme, adversary_factory=factory, trials=trials, base_seed=3,
            backend=backend or SerialBackend(), cache=None, store=store,
        )
    return trial_set


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        recorder.begin_trial(seed=1)
        for index in range(5):
            recorder.emit("rewind", iteration=index)
        assert recorder.events_total == 5
        assert recorder.events_dropped == 2
        dump = recorder.finish_trial(success=False)
        assert dump["events_recorded"] == 5
        assert dump["events_kept"] == 3
        # the *oldest* events fell off
        assert [event["iteration"] for event in dump["events"]] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_classify_slot_covers_all_transitions(self):
        assert classify_slot(1, 1) is None
        assert classify_slot(None, None) is None
        assert classify_slot(None, 1) == "insertion"
        assert classify_slot(1, None) == "deletion"
        assert classify_slot(1, 0) == "substitution"

    def test_record_window_emits_only_changed_slots(self):
        recorder = FlightRecorder()
        recorder.begin_trial(seed=0)
        recorder.record_window(
            link=link_label(0, 1), phase="simulation", iteration=2, base_round=10,
            sent=[1, 0, None, 1], delivered=[1, 1, 1, None],
        )
        dump = recorder.finish_trial(success=False)
        events = dump["events"]
        assert [event["round"] for event in events] == [11, 12, 13]
        assert [event["corruption"] for event in events] == [
            "substitution", "insertion", "deletion",
        ]
        assert all(event["link"] == "0->1" for event in events)

    def test_successful_trials_keep_only_the_count_summary(self):
        recorder = FlightRecorder()
        recorder.begin_trial(seed=7)
        recorder.emit("meeting_point", iteration=0)
        ok = recorder.finish_trial(success=True)
        assert ok["events"] == []
        assert ok["event_counts"] == {"meeting_point": 1}
        recorder.begin_trial(seed=8)
        recorder.emit("meeting_point", iteration=0)
        failed = recorder.finish_trial(success=False)
        assert len(failed["events"]) == 1

    def test_drain_is_destructive_and_adopt_merges(self):
        recorder = FlightRecorder()
        recorder.begin_trial(seed=1)
        recorder.finish_trial(success=True)
        remote = FlightRecorder()
        remote.begin_trial(seed=2)
        remote.finish_trial(success=True)
        assert recorder.adopt(remote.drain()) == 1
        dumps = recorder.drain()
        assert [dump["trial"]["seed"] for dump in dumps] == [1, 2]
        assert recorder.drain() == []

    def test_adopt_skips_non_dict_garbage(self):
        recorder = FlightRecorder()
        assert recorder.adopt([None, "junk", {"trial": {"seed": 5}}]) == 1

    def test_dumps_are_json_pure(self):
        recorder = FlightRecorder()
        recorder.begin_trial(seed=3, scheme="algorithm_a")
        recorder.record_window(
            link=link_label(0, 1), phase="simulation", iteration=0, base_round=0,
            sent=[1], delivered=[0],
        )
        dump = recorder.finish_trial(success=False, noise_fraction=0.1)
        assert json.loads(json.dumps(dump)) == dump


class TestClassifyFailure:
    def _dump(self, counts=None, **trial):
        trial.setdefault("success", False)
        return {"trial": trial, "event_counts": counts or {}, "events": []}

    def test_hash_collision_is_conclusive(self):
        dump = self._dump(
            counts={"hash_collision": 1},
            iterations_run=10, iterations_budget=10, noise_fraction=0.5, tolerance=0.01,
        )
        assert classify_failure(dump) == "hash-collision"

    def test_exhausted_over_tolerance_is_noise_budget(self):
        dump = self._dump(
            iterations_run=10, iterations_budget=10, noise_fraction=0.05, tolerance=0.01
        )
        assert classify_failure(dump) == "noise-budget-exhaustion"

    def test_exhausted_within_tolerance_is_rewind_exhaustion(self):
        dump = self._dump(
            iterations_run=10, iterations_budget=10, noise_fraction=0.005, tolerance=0.01
        )
        assert classify_failure(dump) == "rewind-exhaustion"

    def test_unexhausted_failure_is_decode_failure(self):
        dump = self._dump(
            iterations_run=4, iterations_budget=10, noise_fraction=0.5, tolerance=0.01
        )
        assert classify_failure(dump) == "decode-failure"

    def test_taxonomy_is_total_even_on_empty_dumps(self):
        # No events, no budget fields: classification still lands in the
        # taxonomy (never "unknown").
        assert classify_failure({"trial": {"success": False}}) in TAXONOMY
        assert classify_failure({}) in TAXONOMY


class TestForensicsAnalysis:
    def _failing_dump(self, seed, events, **trial):
        counts = {}
        for event in events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        trial.setdefault("success", False)
        trial["seed"] = seed
        return {
            "trial": trial,
            "event_counts": counts,
            "events_recorded": len(events),
            "events_kept": len(events),
            "events": events,
        }

    def test_heatmap_buckets_rounds_per_link(self):
        dump = self._failing_dump(1, [
            {"kind": "corruption", "link": "0->1", "round": 3},
            {"kind": "corruption", "link": "0->1", "round": 66},
            {"kind": "corruption", "link": "1->0", "round": 64},
            {"kind": "rewind", "iteration": 0},  # non-corruption: ignored
        ])
        assert corruption_heatmap([dump], round_bucket=64) == {
            "0->1": {0: 1, 64: 1},
            "1->0": {64: 1},
        }
        with pytest.raises(ValueError):
            corruption_heatmap([dump], round_bucket=0)

    def test_trajectories_sort_by_iteration(self):
        dump = self._failing_dump(1, [
            {"kind": "potential", "iteration": 2, "phi": 4.0},
            {"kind": "potential", "iteration": 0, "phi": 2.0},
            {"kind": "rewind", "iteration": 1},
            {"kind": "rewind", "iteration": 1},
            {"kind": "rewind", "iteration": 0},
        ])
        assert [event["phi"] for event in phi_trajectory(dump)] == [2.0, 4.0]
        assert rewind_depth_trajectory(dump) == [(0, 1), (1, 2)]

    def test_anatomy_rows_group_by_cause(self):
        dumps = [
            self._failing_dump(
                seed, [], iterations_run=10, iterations_budget=10,
                noise_fraction=0.05, tolerance=0.01, corruptions=20,
            )
            for seed in range(3)
        ] + [
            self._failing_dump(
                99, [{"kind": "hash_collision", "iteration": 1}],
                corruptions=1,
            ),
            {"trial": {"seed": 100, "success": True}, "event_counts": {}, "events": []},
        ]
        rows = {row["cause"]: row for row in anatomy_rows(dumps)}
        assert set(rows) == {"noise-budget-exhaustion", "hash-collision"}
        noise_row = rows["noise-budget-exhaustion"]
        assert noise_row["trials"] == 3
        assert noise_row["share"] == pytest.approx(0.75)
        assert noise_row["mean_corruptions"] == pytest.approx(20.0)
        assert noise_row["seeds"] == "0,1,2"

    def test_explain_dump_summarises_one_trial(self):
        dump = self._failing_dump(3, [
            {"kind": "potential", "iteration": 0, "phi": 2.0},
            {"kind": "rewind", "iteration": 0},
        ], iterations_run=10, iterations_budget=10, noise_fraction=0.05, tolerance=0.01)
        summary = explain_dump(dump)
        assert summary["cause"] == "noise-budget-exhaustion"
        assert summary["phi"] == [{"iteration": 0, "phi": 2.0}]
        assert summary["rewind_depth"] == [{"iteration": 0, "rewinds": 1}]
        assert explain_dump({"trial": {"success": True}})["cause"] is None

    def test_render_heatmap_rebuckets_to_fit(self):
        heatmap = {"0->1": {round_index: 1 for round_index in range(0, 640, 10)}}
        text = render_heatmap(heatmap, max_columns=8)
        header = text.splitlines()[0]
        assert header.count("r") <= 8
        assert "-" in header  # coarse buckets render as ranges
        assert render_heatmap({}) == "(no corruption events recorded)"

    def test_render_trajectory_and_event(self):
        text = render_trajectory([(0, 1.0), (1, -2.0)], "potential", width=4)
        assert "iter   0" in text and "####" in text
        line = render_event(
            {"kind": "corruption", "sent": 1, "round": 5, "link": "0->1", "corruption": "deletion"}
        )
        # anchor fields lead, the rest is sorted
        assert line == "[corruption] round=5 link=0->1 corruption=deletion sent=1"


class TestPhiTrajectory:
    """Satellite: the recorded Φ trajectory against hand-computed references."""

    def test_noiseless_trajectory_matches_hand_computed_reference(self):
        """On a noiseless line, every iteration commits one chunk per link in
        perfect agreement, so after iteration ``i`` (0-based):
        ``G* = H* = i + 1``, ``B* = 0`` and ``Φ = (k/m)·Σ G_uv − c1·k·B* =
        (k/m)·(m·(i+1)) = k·(i+1)``."""
        graph = line_topology(3)
        protocol = RandomProtocol(
            graph, {party: party + 1 for party in graph.nodes},
            num_rounds=24, density=0.5, seed=1,
        )
        recorder = FlightRecorder()
        with use_obs(recorder=recorder):
            simulator = InteractiveCodingSimulator(
                protocol, scheme=algorithm_a(), adversary=NoiselessAdversary(), seed=0
            )
            result = simulator.run()
        assert result.success
        events = [event for event in recorder._events if event["kind"] == "potential"]
        assert len(events) == result.iterations_run >= 3
        scale_k = simulator.scale_k
        for index, event in enumerate(events):
            assert event["iteration"] == index
            assert event["G_star"] == index + 1
            assert event["H_star"] == index + 1
            assert event["B_star"] == 0
            assert event["phi"] == pytest.approx(scale_k * (index + 1))

    def test_noisy_trajectory_matches_the_engines_own_potential_trace(self):
        """Under noise the trajectory is not hand-computable, but the engine
        can compute it twice: the recorder's ``potential`` events must equal
        the scheme-level ``PotentialTrace`` snapshot for snapshot."""
        import dataclasses

        graph = line_topology(4)
        protocol = RandomProtocol(
            graph, {party: party + 1 for party in graph.nodes},
            num_rounds=24, density=0.5, seed=2,
        )
        scheme = dataclasses.replace(algorithm_a(), trace_potential=True)
        adversary = RandomNoiseFactory(fraction=0.02)(5)
        recorder = FlightRecorder()
        with use_obs(recorder=recorder):
            simulator = InteractiveCodingSimulator(
                protocol, scheme=scheme, adversary=adversary, seed=5
            )
            result = simulator.run()
        events = [event for event in recorder._events if event["kind"] == "potential"]
        reference = [
            dict(snapshot.as_dict(), kind="potential")
            for snapshot in result.potential_trace.snapshots
        ]
        assert events == reference


class TestForensicsEndToEnd:
    def test_every_failed_trial_gets_a_concrete_cause(self):
        trial_set = _run_with_recorder()
        dumps = trial_set.forensics
        assert dumps is not None and len(dumps) == 8
        # dumps are sorted by seed and cover every executed trial
        seeds = [dump["trial"]["seed"] for dump in dumps]
        assert seeds == sorted(seeds)
        assert {dump["trial"]["success"] for dump in dumps} == {True, False}
        failures = failed_dumps(dumps)
        assert failures  # the cell is chosen to fail some trials
        causes = [classify_failure(dump) for dump in failures]
        # the acceptance bar is >=95% concrete; the taxonomy is total, so
        # every single one gets a named cause
        assert all(cause in TAXONOMY for cause in causes)
        for dump in failures:
            assert dump["events"], "failing trials must keep their timeline"
        for dump in dumps:
            if dump["trial"]["success"]:
                assert dump["events"] == []

    def test_forensics_round_trip_through_the_store(self, tmp_path):
        store = RunStore(tmp_path)
        trial_set = _run_with_recorder(store=store)
        (row,) = store.query(kind="trial_set")
        payload = store.load(row["run_id"])
        assert payload["forensics"] == trial_set.forensics

    def test_runs_explain_renders_anatomy_and_heatmap(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        _run_with_recorder(store=store)
        assert main(["runs", "explain", "latest", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "failure anatomy" in out
        assert "corruption heatmap" in out
        assert "Φ trajectory" in out
        assert any(cause in out for cause in TAXONOMY)

    def test_runs_explain_json_contract(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        trial_set = _run_with_recorder(store=store)
        assert main([
            "runs", "explain", "latest", "--store-dir", str(tmp_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 8
        assert payload["failed"] == len(failed_dumps(trial_set.forensics))
        assert payload["failed"] > 0
        assert {row["cause"] for row in payload["anatomy"]} <= set(TAXONOMY)
        assert len(payload["verdicts"]) == payload["failed"]
        for verdict in payload["verdicts"]:
            assert verdict["cause"] in TAXONOMY

    def test_runs_flight_renders_one_trial_timeline(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        trial_set = _run_with_recorder(store=store)
        failed_seed = failed_dumps(trial_set.forensics)[0]["trial"]["seed"]
        assert main([
            "runs", "flight", "latest", str(failed_seed), "--store-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out and "cause:" in out
        assert "[corruption]" in out and "[potential]" in out

    def test_runs_flight_unknown_seed_lists_recorded_ones(self, tmp_path, capsys):
        from repro.cli import main

        store = RunStore(tmp_path)
        _run_with_recorder(store=store)
        with pytest.raises(SystemExit):
            main(["runs", "flight", "latest", "424242", "--store-dir", str(tmp_path)])
        assert "recorded seeds" in capsys.readouterr().err

    def test_runs_explain_without_forensics_fails_friendly(self, tmp_path, capsys):
        from repro.cli import main

        workload, scheme, factory = _failing_cell()
        store = RunStore(tmp_path)
        run_trials(
            workload, scheme, adversary_factory=factory, trials=1, base_seed=3,
            backend=SerialBackend(), cache=None, store=store,
        )
        with pytest.raises(SystemExit):
            main(["runs", "explain", "latest", "--store-dir", str(tmp_path)])
        assert "--forensics" in capsys.readouterr().err


def _run_observed(backend=None):
    """The failing cell under every instrument: counters, a trace recording
    every trial, and (inside ``_run_with_recorder``) a flight recorder."""
    registry, tracer = MetricsRegistry(), Tracer(sample_every=1)
    with use_obs(metrics=registry, tracer=tracer):
        trial_set = _run_with_recorder(backend=backend, trials=6)
    counters = registry.flat_snapshot()
    span_counts = Counter(
        span["name"] for span in tracer.drain()
        if span["name"] in ("trial", "iteration", "phase")
    )
    return trial_set, counters, span_counts


class TestShippedChunkParity:
    def test_pool_records_what_serial_records(self):
        """Pool processes never see the ambient obs context; each chunk runs
        under matching local instruments and ships its counters, spans and
        dumps home, so a pool run records exactly what serial does."""
        serial, serial_counters, serial_spans = _run_observed()
        assert serial_counters and serial_spans["trial"] == 6
        with ProcessPoolBackend(max_workers=2, chunk_size=2) as backend:
            shipped, counters, spans = _run_observed(backend)
        assert [run.to_payload() for run in shipped.runs] == [
            run.to_payload() for run in serial.runs
        ]
        assert shipped.forensics == serial.forensics
        assert counters == serial_counters
        assert spans == serial_spans
