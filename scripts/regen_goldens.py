#!/usr/bin/env python
"""Rewrite ``tests/goldens/grid.json`` and print which golden numbers moved.

Runs the golden grid defined in ``tests/goldens_grid.py`` (288 end-to-end
trials under a flight recorder, and the 192 engine trials again without
one, about two seconds), prints one line per (trial, field) that differs
from the committed file, and rewrites the file::

    PYTHONPATH=src python scripts/regen_goldens.py

If a trial run without a recorder differs from its recorded run (a
recorder switches the meeting-points clean-link path off), the script
names the trial and field, writes nothing and exits 1.

To only check the file, run ``pytest tests/test_goldens.py``.
A golden change is a behaviour change: record why in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import goldens_grid


def main() -> int:
    path = goldens_grid.GOLDEN_PATH
    old = goldens_grid.load() if path.exists() else {}
    new = goldens_grid.run_grid()
    split = goldens_grid.split_paths(new, goldens_grid.run_unrecorded())
    if split:
        for line in split:
            print(line, file=sys.stderr)
        print(f"{len(split)} field(s) differ without a recorder; {path} not written", file=sys.stderr)
        return 1
    changes = goldens_grid.diff(old, new)
    for line in changes:
        print(line)
    print(f"{len(new)} trials, {len(changes)} changed field(s)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(goldens_grid.dumps(new))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
