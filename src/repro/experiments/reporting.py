"""Serialising experiment results to JSON and Markdown.

The command-line interface (:mod:`repro.cli`) and downstream users need a
stable way to persist the result of an experiment run: a plain-JSON document
with enough metadata to know what produced it, plus a Markdown rendering for
reports.  Only built-in types end up in the JSON so the files are stable and
diff-able across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.harness import format_table

Row = Dict[str, object]


@dataclass
class ExperimentReport:
    """A named collection of result rows with provenance metadata."""

    experiment: str
    rows: List[Row]
    parameters: Dict[str, object] = field(default_factory=dict)
    generated_at: Optional[str] = None

    def __post_init__(self) -> None:
        if self.generated_at is None:
            self.generated_at = datetime.now(timezone.utc).isoformat()

    # -- conversions -----------------------------------------------------------

    def columns(self) -> List[str]:
        """Union of the row keys, keeping first-seen order."""
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "generated_at": self.generated_at,
            "parameters": self.parameters,
            "rows": self.rows,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_markdown(self) -> str:
        """Render as a Markdown section with a fixed-width table."""
        header = f"## {self.experiment}\n\ngenerated: {self.generated_at}\n"
        if self.parameters:
            params = ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            header += f"parameters: {params}\n"
        table = format_table(self.rows, self.columns()) if self.rows else "(no rows)"
        return f"{header}\n```\n{table}\n```\n"

    # -- persistence ------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the report to ``path`` (format chosen by extension: .json or .md)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".md":
            path.write_text(self.to_markdown(), encoding="utf-8")
        else:
            path.write_text(self.to_json(), encoding="utf-8")
        return path
