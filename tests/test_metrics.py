"""Tests for run metrics and aggregation."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import AggregateMetrics, RunMetrics, summarize_runs


def _run(success=True, cc_protocol=100, cc_simulation=500, corruptions=3, scheme="algorithm_a"):
    return RunMetrics(
        scheme=scheme,
        success=success,
        protocol_communication=cc_protocol,
        simulation_communication=cc_simulation,
        corruptions=corruptions,
        noise_fraction=corruptions / cc_simulation if cc_simulation else 0.0,
        iterations_run=7,
        iterations_budget=20,
    )


class TestRunMetrics:
    def test_overhead_and_rate(self):
        run = _run()
        assert run.overhead == pytest.approx(5.0)
        assert run.rate == pytest.approx(0.2)

    def test_degenerate_cases(self):
        assert _run(cc_protocol=0).overhead == float("inf")
        assert _run(cc_simulation=0).rate == 0.0

    def test_as_dict_contains_core_fields(self):
        data = _run().as_dict()
        for key in ("scheme", "success", "overhead", "rate", "corruptions", "noise_fraction"):
            assert key in data


class TestAggregation:
    def test_summary_statistics(self):
        runs = [_run(success=True), _run(success=False, cc_simulation=1000), _run(success=True)]
        aggregate = summarize_runs(runs)
        assert aggregate.trials == 3
        assert aggregate.successes == 2
        assert aggregate.success_rate == pytest.approx(2 / 3)
        assert aggregate.mean_overhead == pytest.approx((5 + 10 + 5) / 3)
        assert aggregate.scheme == "algorithm_a"

    def test_explicit_scheme_label(self):
        aggregate = summarize_runs([_run()], scheme="custom")
        assert aggregate.scheme == "custom"

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])

    def test_as_dict(self):
        data = summarize_runs([_run()]).as_dict()
        assert data["trials"] == 1
        assert data["success_rate"] == 1.0


class TestPayloadTypes:
    """``from_payload`` accepts exactly the JSON types of each field."""

    def test_round_trips_and_accepts_a_count_for_a_real(self):
        run = _run()
        assert RunMetrics.from_payload(run.to_payload()) == run
        payload = dict(run.to_payload(), noise_fraction=0)
        assert RunMetrics.from_payload(payload).noise_fraction == 0
        aggregate = summarize_runs([run])
        assert AggregateMetrics.from_payload(dict(aggregate.to_payload(), mean_overhead=5)).mean_overhead == 5

    @pytest.mark.parametrize(
        "field, value",
        [
            ("success", "yes"),
            ("success", 1),
            ("protocol_communication", "10"),
            ("protocol_communication", True),
            ("corruptions", 3.0),
            ("noise_fraction", False),
            ("scheme", 7),
            ("communication_by_phase", {"simulation": "4"}),
            ("corruptions_by_phase", [1, 2]),
            ("corruptions", -3),
            ("simulation_communication", -5),
            ("communication_by_phase", {"simulation": -4}),
        ],
    )
    def test_run_metrics_reject_a_wrong_typed_field(self, field, value):
        with pytest.raises(TypeError, match=f"RunMetrics.{field} must be"):
            RunMetrics.from_payload(dict(_run().to_payload(), **{field: value}))

    @pytest.mark.parametrize(
        "field, value", [("trials", "3"), ("successes", True), ("mean_overhead", "5"), ("trials", -3)]
    )
    def test_aggregate_metrics_reject_a_wrong_typed_field(self, field, value):
        payload = dict(summarize_runs([_run()]).to_payload(), **{field: value})
        with pytest.raises(TypeError, match=f"AggregateMetrics.{field} must be"):
            AggregateMetrics.from_payload(payload)

    def test_a_payload_that_is_not_an_object_is_rejected(self):
        with pytest.raises(TypeError):
            RunMetrics.from_payload(["scheme", "success"])
