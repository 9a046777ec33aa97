"""Shared helpers for the benchmark harness.

Every benchmark runs the regenerating code for one experiment exactly once
per measurement round (the experiment functions are relatively heavy),
records the wall-clock time via pytest-benchmark, and — more importantly —
asserts the *qualitative shape* the paper claims (who wins, what fails, what
stays flat).  Absolute numbers are recorded in ``benchmark.extra_info``.

Speed is compared against the base commit by ``perfbench/`` (see
``perfbench/README.md``); these benchmarks only check shapes.
"""

from __future__ import annotations

from typing import Callable

import pytest


@pytest.fixture
def run_once() -> Callable:
    """A helper that benchmarks a heavy experiment function with one round."""

    def _run(benchmark, function: Callable, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )

    return _run
