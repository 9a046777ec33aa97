"""Shared helpers for the benchmark harness.

Every benchmark runs the regenerating code for one experiment exactly once
per measurement round (the experiment functions are relatively heavy),
records the wall-clock time via pytest-benchmark, and — more importantly —
asserts the *qualitative shape* the paper claims (who wins, what fails, what
stays flat).  Absolute numbers are recorded in ``benchmark.extra_info``.

At session end every benchmark's wall-clock stats and ``extra_info`` are
persisted as one ``bench`` record in a :class:`repro.runtime.RunStore`
(default ``benchmarks/.bench-runs``; override with ``$REPRO_BENCH_STORE``,
disable with ``REPRO_BENCH_STORE=off``).  That gives the perf trajectory a
memory: ``repro runs diff latest~1 latest --kind bench --store-dir
benchmarks/.bench-runs`` compares two sessions benchmark by benchmark and
exits non-zero on regression — ``benchmarks/check_perf_regression.py`` wraps
exactly that for CI.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional

import pytest

BENCH_STORE_ENV = "REPRO_BENCH_STORE"
_DEFAULT_BENCH_STORE = Path(__file__).resolve().parent / ".bench-runs"
_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

#: Set when this session deselected tests (-k/-m); a partial session must not
#: become the `latest` baseline — its missing cells would never gate again.
_SESSION_DESELECTED = False


def pytest_deselected(items):
    global _SESSION_DESELECTED
    if items:
        _SESSION_DESELECTED = True


@pytest.fixture
def run_once() -> Callable:
    """A helper that benchmarks a heavy experiment function with one round."""

    def _run(benchmark, function: Callable, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )

    return _run


def bench_store_root() -> Optional[Path]:
    """The run-store directory for benchmark sessions, or None when disabled."""
    value = os.environ.get(BENCH_STORE_ENV)
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(value)
    return _DEFAULT_BENCH_STORE


def pytest_sessionfinish(session, exitstatus):
    """Persist this session's benchmarks into the run store.

    Skipped when pytest-benchmark did not run anything (e.g. a tests/-only
    invocation), when the store is disabled via the environment, or when the
    session was partial — failed/interrupted, filtered with ``-k``/``-m``, or
    covering only a subset of the benchmark files.  A partial record would
    become `latest`, and every cell it is missing would show up as
    ``only-candidate``/``only-baseline`` in the next ``runs diff`` — which
    never gates — silently disarming the perf gate for those benchmarks.
    """
    if exitstatus != 0 or _SESSION_DESELECTED:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    root = bench_store_root()
    if root is None:
        return
    bench_dir = Path(__file__).resolve().parent
    all_files = {path.name for path in bench_dir.glob("test_*.py")}
    ran_files = {
        Path(str(bench.fullname).split("::")[0]).name for bench in bench_session.benchmarks
    }
    if not all_files <= ran_files:
        return  # path-subset session (e.g. `pytest benchmarks/test_bench_x.py`)
    from repro.runtime import RunStore  # deferred: needs repro on sys.path

    rows = []
    for bench in bench_session.benchmarks:
        try:
            stats = bench.stats
            row = {
                "name": bench.name,
                "fullname": bench.fullname,
                "group": bench.group,
                "mean_seconds": stats.mean,
                "min_seconds": stats.min,
                "max_seconds": stats.max,
                "stddev_seconds": stats.stddev,
                "rounds": stats.rounds,
                "extra_info": dict(bench.extra_info),
            }
        except Exception:  # a benchmark that errored mid-run has no stats
            continue
        rows.append(row)
    if not rows:
        return
    run_id = RunStore(root).record_bench(rows)
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    message = f"benchmark run persisted as {run_id} in {root}"
    if terminal is not None:
        terminal.write_line(message)
    else:  # pragma: no cover - no terminal reporter active
        print(message)
