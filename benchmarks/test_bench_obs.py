"""Overhead gate for the observability subsystem.

Two budgets, measured on one end-to-end experimental cell (``run_trials``
over a noisy gossip workload, serial backend, no cache):

* **disabled** — with no obs context installed, instrumentation must cost
  (near) nothing: the engine opens no spans and counts no phase rounds, the
  transport keeps plain int attributes, and no lock is ever acquired.
  Budget: ≤ 2% over the plain wall clock.  The paired measurement here is
  inherently jittery at the couple-percent level, so the in-process assert
  allows a small absolute epsilon on top; end-to-end speed against the base
  commit is measured by ``perfbench/``.
* **tracing enabled at full sampling** — metrics + a span per trial /
  iteration / phase must stay within 15% of the disabled wall clock.
* **flight recorder enabled** — per-slot corruption events plus a Φ
  snapshot per iteration must stay within 15% of the disabled wall clock,
  and memory stays bounded: the ring never keeps more than ``capacity``
  events however noisy the trial (oldest events drop, counted).

Every instrumented run must also be **bit-identical** to the plain run —
the overhead may only ever buy observation, never behaviour.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.core.parameters import algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, use_obs
from repro.runtime import SerialBackend

#: Paired-measurement jitter allowance (absolute seconds on top of the
#: fractional budget) — scheduler noise on a busy CI runner, not obs cost.
_EPSILON_SECONDS = 0.050


def _best_of(function, repetitions=5):
    best = None
    value = None
    for _ in range(repetitions):
        start = time.perf_counter()
        value = function()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, value


def _cell():
    workload = gossip_workload(topology="line", num_nodes=5, phases=8, seed=0)
    scheme = algorithm_a()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    return workload, scheme, RandomNoiseFactory(fraction=fraction)


def test_obs_overhead_disabled_and_tracing(benchmark, run_once):
    workload, scheme, factory = _cell()

    def cell():
        trial_set = run_trials(
            workload, scheme, adversary_factory=factory, trials=4, base_seed=3,
            backend=SerialBackend(), cache=None, store=None,
        )
        return [run.to_payload() for run in trial_set.runs]

    def cell_metrics_only():
        with use_obs(metrics=MetricsRegistry(), tracer=None):
            return cell()

    def cell_traced():
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer(sample_every=1)):
            return cell()

    plain_seconds, plain_result = _best_of(cell)
    metrics_seconds, metrics_result = _best_of(cell_metrics_only)
    traced_seconds, traced_result = _best_of(cell_traced)

    # Observation buys data, never behaviour: all three runs bit-identical.
    assert metrics_result == plain_result
    assert traced_result == plain_result

    # The persisted wall clock of this benchmark is the plain (disabled) run,
    # so the session-over-session perf gate tracks the disabled cost directly.
    result = run_once(benchmark, cell)
    assert result == plain_result

    metrics_ratio = metrics_seconds / plain_seconds
    traced_ratio = traced_seconds / plain_seconds
    benchmark.extra_info["plain_seconds"] = round(plain_seconds, 6)
    benchmark.extra_info["metrics_ratio"] = round(metrics_ratio, 4)
    benchmark.extra_info["traced_ratio"] = round(traced_ratio, 4)

    assert metrics_seconds <= plain_seconds * 1.02 + _EPSILON_SECONDS, (
        f"metrics-only observability cost {metrics_ratio:.1%} of the plain wall clock "
        "(budget: 2% + jitter epsilon)"
    )
    assert traced_seconds <= plain_seconds * 1.15 + _EPSILON_SECONDS, (
        f"full-sampling tracing cost {traced_ratio:.1%} of the plain wall clock "
        "(budget: 15% + jitter epsilon)"
    )


def test_recorder_overhead_and_bounded_memory(benchmark, run_once):
    workload, scheme, factory = _cell()

    def cell(recorder=None):
        scope = use_obs(recorder=recorder) if recorder is not None else nullcontext()
        with scope:
            trial_set = run_trials(
                workload, scheme, adversary_factory=factory, trials=4, base_seed=3,
                backend=SerialBackend(), cache=None, store=None,
            )
        return [run.to_payload() for run in trial_set.runs], trial_set.forensics

    plain_seconds, (plain_result, no_forensics) = _best_of(lambda: cell())
    recorded_seconds, (recorded_result, forensics) = _best_of(
        lambda: cell(FlightRecorder(capacity=4096))
    )

    # Recording buys dumps, never behaviour.
    assert no_forensics is None
    assert recorded_result == plain_result
    assert forensics is not None and len(forensics) == 4

    # The persisted wall clock is the recorder-enabled run, so the
    # session-over-session perf gate tracks the enabled cost directly; the
    # disabled cost rides test_obs_overhead_disabled_and_tracing's baseline.
    result, _ = run_once(benchmark, lambda: cell(FlightRecorder(capacity=4096)))
    assert result == plain_result

    recorder_ratio = recorded_seconds / plain_seconds
    benchmark.extra_info["plain_seconds"] = round(plain_seconds, 6)
    benchmark.extra_info["recorder_ratio"] = round(recorder_ratio, 4)
    assert recorded_seconds <= plain_seconds * 1.15 + _EPSILON_SECONDS, (
        f"flight recording cost {recorder_ratio:.1%} of the plain wall clock "
        "(budget: 15% + jitter epsilon)"
    )

    # Bounded memory: squeeze the same cell through a tiny ring — the kept
    # timeline must respect the capacity while the totals keep counting, and
    # the results must STILL be bit-identical (retention only affects what is
    # remembered, never what happens).
    tiny = 8
    _, (tiny_result, tiny_forensics) = _best_of(lambda: cell(FlightRecorder(capacity=tiny)), 1)
    assert tiny_result == plain_result
    assert [dump["trial"]["seed"] for dump in tiny_forensics] == [
        dump["trial"]["seed"] for dump in forensics
    ]
    for full_dump, tiny_dump in zip(forensics, tiny_forensics):
        assert tiny_dump["events_kept"] <= tiny
        assert tiny_dump["events_recorded"] == full_dump["events_recorded"]
    assert any(dump["events_recorded"] > tiny for dump in tiny_forensics), (
        "the cell must overflow the tiny ring for this to prove boundedness"
    )
