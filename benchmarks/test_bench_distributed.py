"""Experiment ``distributed_throughput``: serial vs 2-worker distributed
trial execution.

Not a paper experiment — an infrastructure benchmark for
``repro.runtime.distributed``.  It runs the same trial batch through
``SerialBackend`` and a ``DistributedBackend`` backed by two in-process
localhost workers, and records both wall-clock times in ``extra_info``.

Shape we assert: distributed execution is **bit-identical** to serial (the
runtime's determinism contract, now across the wire), and a ``cache=None``
re-run executes every trial again (workers cache nothing).  Speed-up is
recorded but not asserted — localhost workers share the CPU with the
coordinator, and on a loaded CI box two workers can legitimately lose to
serial for small batches.
"""

from __future__ import annotations

import time

from repro.core.parameters import algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.workloads import gossip_workload
from repro.runtime import DistributedBackend, SerialBackend, WorkerServer

TRIALS = 8


def _sweep(backend):
    workload = gossip_workload(topology="line", num_nodes=5, phases=6)
    return run_trials(
        workload,
        algorithm_a(),
        adversary_factory=RandomNoiseFactory(fraction=0.004),
        trials=TRIALS,
        backend=backend,
        cache=None,
    )


def test_serial_vs_two_worker_distributed_throughput(benchmark, run_once):
    serial_backend = SerialBackend()
    start = time.perf_counter()
    serial = _sweep(serial_backend)
    serial_seconds = time.perf_counter() - start

    workers = [WorkerServer().start(), WorkerServer().start()]
    try:
        addresses = [worker.address for worker in workers]
        distributed_backend = DistributedBackend(addresses, chunk_size=2)
        distributed = run_once(benchmark, _sweep, distributed_backend)

        # Determinism contract: remote execution is bit-identical to serial.
        assert distributed.runs == serial.runs
        assert distributed.aggregate == serial.aggregate
        assert distributed_backend.trials_executed == TRIALS
        assert sum(worker.trials_executed for worker in workers) == TRIALS

        # cache=None re-run: workers cache nothing, so every trial runs again.
        rerun_backend = DistributedBackend(addresses, chunk_size=2)
        rerun = _sweep(rerun_backend)
        assert rerun_backend.trials_executed == TRIALS
        assert sum(worker.trials_executed for worker in workers) == 2 * TRIALS
        assert rerun.runs == serial.runs
    finally:
        for worker in workers:
            worker.stop()

    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["distributed_speedup_vs_serial"] = (
        round(serial_seconds / benchmark.stats.stats.mean, 3)
        if benchmark.stats.stats.mean
        else None
    )
