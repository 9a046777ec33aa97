"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import bench
import layers
import run
from repro.analysis.metrics import RunMetrics


def test_p90_leaves_ten_samples_beyond_from_100_samples():
    values = list(range(1, 101))
    p90 = run.percentile(values, 90)
    assert sum(1 for value in values if value > p90) == 10 == run.samples_beyond(100, 90)
    assert run.samples_beyond(99, 90) < 10
    assert run.percentile(values, 50) == 50


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_frames(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(layers, "perf_counter", clock)
    tracer = layers.LayerTracer()

    def inner():
        clock.now += 2.0

    def same_layer():
        clock.now += 0.5  # a call into the layer it is already in: no new frame

    timed_inner = tracer.timed("inner", inner)
    timed_same = tracer.timed("outer", same_layer)

    def outer():
        clock.now += 1.0
        timed_inner()
        timed_same()
        with tracer.span("phase", phase="simulation"):  # an engine obs span in the same tree
            clock.now += 4.0
            timed_inner()
        clock.now += 3.0

    tracer.timed("outer", outer)()
    assert tracer.self_seconds == {"outer": 4.5, "inner": 4.0, "engine.simulation": 4.0}
    assert tracer.calls == {"outer": 1, "inner": 2, "engine.simulation": 1}
    assert tracer.stack == []


def test_traced_run_restores_entry_points_and_lists_missing(monkeypatch):
    monkeypatch.setattr(
        layers, "ENTRY_POINTS", layers.ENTRY_POINTS + (("gone", "repro.network.transport", "NoisyNetwork.exchange_removed", None),)
    )
    from repro.hashing.seeds import CrsSeedSource
    from repro.network.transport import NoisyNetwork

    original = NoisyNetwork.exchange_window
    with layers.traced() as traced:
        assert NoisyNetwork.exchange_window is not original
        assert "seeds_for_iteration" in CrsSeedSource.__dict__  # wrapped on the subclass
    assert NoisyNetwork.exchange_window is original
    assert "__post_init__" in NoisyNetwork.__dict__  # restored, not deleted
    assert "seeds_for_iteration" not in CrsSeedSource.__dict__  # inherited again
    assert traced.report()["missing"] == ["repro.network.transport.NoisyNetwork.exchange_removed"]


def test_seed_guard_rejects_repeats_and_warm_seeds():
    guard = bench.SeedGuard()
    guard.claim_warmup([5, 6])
    guard.claim_measured([7])
    with pytest.raises(bench.SeedReuseError):
        guard.claim_measured([7])
    with pytest.raises(bench.SeedReuseError):
        guard.claim_measured([6])
    with pytest.raises(bench.SeedReuseError):
        guard.claim_warmup([7])
    with pytest.raises(bench.SeedReuseError):
        guard.claim_measured([8, 8])


@pytest.mark.parametrize("workload", ["sweep_nominal", "table1_pool2"])
def test_warmup_seeds_never_meet_measured_seeds(workload):
    runner = bench.WORKLOADS[workload]()
    runner.build(0, "serial")
    for seed in (0, 1, 999, 123456):
        measured = {s for index in range(400) for s in runner.seeds(seed, index)}
        warm = {s for index in range(runner.group) for s in runner.seeds(seed + bench.WARMUP_OFFSET, index)}
        assert len(measured) == sum(len(runner.seeds(seed, index)) for index in range(400))
        assert not measured & warm


def test_perturbed_payload_fails_the_pin_check():
    metrics = RunMetrics(
        scheme="algorithm_a", success=True, protocol_communication=48, simulation_communication=4000,
        corruptions=3, noise_fraction=0.00075, iterations_run=9, iterations_budget=30,
    )
    pins = [bench.digest(metrics.to_payload())]
    payload = metrics.to_payload()
    payload["corruptions"] += 1
    good = {"slot": 0, "pin": bench.digest(metrics.to_payload()), "problems": []}
    bad = {"slot": 0, "pin": bench.digest(payload), "problems": []}
    assert bench.check_pins([good], pins) == 1 and not good["problems"]
    assert bench.check_pins([bad], pins) == 1 and bad["problems"]
    unpinned = {"slot": 1, "pin": bench.digest(payload), "problems": []}
    assert bench.check_pins([unpinned], pins) == 0 and not unpinned["problems"]


def test_committed_pins_match_their_seed():
    for workload in bench.WORKLOADS:
        assert bench.load_pins(workload), f"no pins for {workload}"
