"""Smoke test for ``scripts/profile_hotpath.py``.

The profiler is the first tool every perf-minded PR reaches for, so it must
not rot: this runs it end to end on a tiny trial and
asserts it exits cleanly and actually prints the top-frame table.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "profile_hotpath.py"

_TINY_TRIAL = ["--phases", "2", "--nodes", "4", "--top", "5"]


def _run(extra_args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *_TINY_TRIAL, *extra_args],
        capture_output=True,
        text=True,
        timeout=180,
        env=dict(os.environ),
        cwd=str(REPO_ROOT),
    )


@pytest.mark.smoke
def test_profile_hotpath_prints_top_frames():
    result = _run([])
    assert result.returncode == 0, result.stderr
    assert "trial:" in result.stdout
    assert "cumulative time" in result.stdout  # the pstats header
    assert "engine.py" in result.stdout  # at least one repo frame in the table


@pytest.mark.smoke
def test_profile_hotpath_sorts_by_tottime():
    result = _run(["--sort", "tottime"])
    assert result.returncode == 0, result.stderr
    assert "tottime" in result.stdout


def _assert_usage_error(result):
    assert result.returncode == 2, result.stdout  # argparse usage error
    assert "unrecognized arguments" in result.stderr


@pytest.mark.smoke
def test_profile_hotpath_per_slot_path():
    """The per-slot transport is gone from the engine; so is its switch."""
    _assert_usage_error(_run(["--per-slot"]))


@pytest.mark.smoke
def test_profile_hotpath_no_packed_path():
    """The symbol-list transport is gone from the engine; so is its switch."""
    _assert_usage_error(_run(["--no-packed"]))


@pytest.mark.smoke
def test_profile_hotpath_compare_mode():
    """``--compare`` timed the default against the reference engine
    configuration, which is gone; the flag fails loudly."""
    _assert_usage_error(_run(["--compare"]))


@pytest.mark.smoke
def test_profile_hotpath_forensics():
    result = _run(["--forensics"])
    assert result.returncode == 0, result.stderr
    assert "flight recorder:" in result.stdout
    assert "events recorded:" in result.stdout
    assert "verdict:" in result.stdout
    # A noisy trial records the event kinds the recorder exists to capture.
    assert "corruption" in result.stdout
    assert "potential" in result.stdout
