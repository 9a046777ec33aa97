"""Analysis helpers: potential-function instrumentation, run metrics and
failure forensics."""

from repro.analysis.forensics import (
    TAXONOMY,
    anatomy_rows,
    classify_failure,
    corruption_heatmap,
    explain_dump,
    failed_dumps,
    phi_trajectory,
    render_event,
    render_heatmap,
    render_trajectory,
    rewind_depth_trajectory,
)
from repro.analysis.metrics import AggregateMetrics, RunMetrics, summarize_runs
from repro.analysis.potential import (
    PotentialSnapshot,
    compute_snapshot,
    link_agreement,
    link_divergence,
)

__all__ = [
    "AggregateMetrics",
    "RunMetrics",
    "summarize_runs",
    "PotentialSnapshot",
    "compute_snapshot",
    "link_agreement",
    "link_divergence",
    "TAXONOMY",
    "classify_failure",
    "failed_dumps",
    "corruption_heatmap",
    "phi_trajectory",
    "rewind_depth_trajectory",
    "anatomy_rows",
    "render_heatmap",
    "render_trajectory",
    "render_event",
    "explain_dump",
]
