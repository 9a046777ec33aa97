"""Golden results: the grid in ``tests/goldens_grid.py`` must reproduce
``tests/goldens/grid.json`` exactly.

A failure lists every (trial, field) that moved.  If the change is intended,
regenerate with ``PYTHONPATH=src python scripts/regen_goldens.py`` and say
why in CHANGES.md.
"""

from __future__ import annotations

import goldens_grid


def test_grid_matches_goldens():
    golden = goldens_grid.load()
    fresh = goldens_grid.run_grid()
    changes = goldens_grid.diff(golden, fresh)
    assert not changes, "golden results moved:\n" + "\n".join(changes[:50])


def test_unrecorded_engine_runs_match_the_goldens():
    """A flight recorder switches the meeting-points clean-link path off, so
    the grid's recorded trials never take it.  Run without a recorder,
    every engine trial must give every golden field but the recorder's."""
    split = goldens_grid.split_paths(goldens_grid.load(), goldens_grid.run_unrecorded())
    assert not split, "runs without a recorder differ:\n" + "\n".join(split[:50])


def test_split_paths_names_the_trial_and_field():
    """The recorder's own field is not compared; any other difference is
    one line naming the trial and field, which the regeneration script
    prints before it refuses to write."""
    recorded = {"t": {"rewinds": 2, "success": True, goldens_grid.RECORDER_FIELD: 5}}
    assert goldens_grid.split_paths(recorded, {"t": {"rewinds": 2, "success": True}}) == []
    assert goldens_grid.split_paths(recorded, {"t": {"rewinds": 3, "success": True}}) == [
        "t: rewinds 2 with a recorder, 3 without"
    ]


def test_golden_file_is_canonical():
    """The committed text is exactly what the regeneration script writes."""
    golden = goldens_grid.load()
    assert len(golden) == 288
    assert goldens_grid.GOLDEN_PATH.read_text() == goldens_grid.dumps(golden)


def test_grid_exercises_every_noise_kind():
    """The grid is only a safety net if its trials actually get corrupted
    and sometimes fail."""
    golden = goldens_grid.load()
    assert any(not fields["success"] for fields in golden.values())
    for kind in ("substitutions", "deletions", "insertions"):
        assert sum(fields[kind] for fields in golden.values()) > 0, kind
    assert sum(fields["rewinds"] for fields in golden.values()) > 0
    assert sum(fields["recorder_corruption_events"] for fields in golden.values()) > 0
