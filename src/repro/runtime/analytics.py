"""Cross-run analytics over a :class:`~repro.runtime.store.RunStore`.

The store remembers runs; :func:`diff_runs` compares two of them: per-cell
success-rate and wall-clock deltas, classified against configurable
:class:`RegressionThresholds` so CI can gate on the result (`repro runs diff`
exits non-zero when any cell regresses).

A *cell* is the unit of comparison: for ``trial_set`` records it is the
record's label (one record is one experimental cell), and for ``report``
records it is one row keyed on the row's identity columns (its string-valued
entries — scheme, topology, noise type, …), so a regenerated Table 1 diffs
row against row and is gated the same way trial sets are.  Diffing runs of
different kinds is refused — the metrics are not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.runtime.store import RunStore

#: Cell statuses a :class:`CellDelta` can carry.  Only ``regression`` makes
#: :attr:`RunDiff.has_regression` true; cells present in a single run are
#: reported (they make the diff *informative*) but never gate CI on their own.
STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_ONLY_BASELINE = "only-baseline"
STATUS_ONLY_CANDIDATE = "only-candidate"


@dataclass(frozen=True)
class RegressionThresholds:
    """What counts as a regression when diffing two runs.

    ``max_wall_clock_increase`` is fractional: ``0.25`` tolerates candidate
    wall clocks up to 25% above the baseline.  ``max_success_rate_drop`` is
    absolute: ``0.0`` means any drop in success rate regresses.
    ``min_wall_clock_seconds`` is an absolute floor below which wall-clock
    ratios never gate — on sub-millisecond cells the scheduler jitter alone
    exceeds any sane ratio, and a CI gate that flakes is a gate that gets
    deleted.  ``max_counter_increase`` is fractional and applies only to the
    ``metrics`` view: obs counters are deterministic (rounds exchanged, hashes
    derived, symbols dispatched), so the default of ``0.0`` — any increase
    regresses — is not flaky the way a wall-clock gate would be.
    """

    max_wall_clock_increase: float = 0.25
    max_success_rate_drop: float = 0.0
    min_wall_clock_seconds: float = 0.005
    max_counter_increase: float = 0.0

    def __post_init__(self) -> None:
        if self.max_wall_clock_increase < 0:
            raise ValueError("max_wall_clock_increase must be >= 0")
        if self.max_success_rate_drop < 0:
            raise ValueError("max_success_rate_drop must be >= 0")
        if self.min_wall_clock_seconds < 0:
            raise ValueError("min_wall_clock_seconds must be >= 0")
        if self.max_counter_increase < 0:
            raise ValueError("max_counter_increase must be >= 0")


@dataclass(frozen=True)
class CellDelta:
    """One (cell, metric) comparison between two runs."""

    cell: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    status: str

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None or self.baseline == 0:
            return None
        return self.candidate / self.baseline

    def as_dict(self) -> Dict[str, object]:
        def fmt(value: Optional[float]) -> object:
            return "-" if value is None else value

        return {
            "cell": self.cell,
            "metric": self.metric,
            "baseline": fmt(self.baseline),
            "candidate": fmt(self.candidate),
            "delta": fmt(self.delta),
            "ratio": fmt(self.ratio),
            "status": self.status,
        }


@dataclass(frozen=True)
class RunDiff:
    """The full comparison of two runs, one :class:`CellDelta` per metric."""

    baseline_id: str
    candidate_id: str
    kind: str
    thresholds: RegressionThresholds
    rows: List[CellDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        return [row for row in self.rows if row.status == STATUS_REGRESSION]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)

    def as_rows(self) -> List[Dict[str, object]]:
        return [row.as_dict() for row in self.rows]


def _trial_set_cells(payload: Dict[str, object]) -> Tuple[Dict[str, Dict[str, float]], bool]:
    stored = RunStore.trial_set_from_payload(payload)
    metrics: Dict[str, float] = {
        "success_rate": stored.aggregate.success_rate,
        "mean_overhead": stored.aggregate.mean_overhead,
    }
    if stored.wall_clock_seconds is not None:
        metrics["wall_clock_seconds"] = float(stored.wall_clock_seconds)
    # A run that served any trial from the result cache did not pay for that
    # work, so its wall clock measures cache state, not this build's speed —
    # never gate on it (in either direction: a warm baseline would fake a
    # regression, a warm candidate would mask one).
    wall_clock_gated = not payload.get("cached_trials")
    return {stored.label: metrics}, wall_clock_gated


def _report_cells(payload: Dict[str, object]) -> Tuple[Dict[str, Dict[str, float]], bool]:
    """One cell per report row, keyed on the row's identity columns.

    A report row mixes identity (which experimental cell this is: scheme,
    topology, noise type, measured-vs-analytical kind — the string-valued
    entries) with measurements (the numeric entries).  The identity columns
    become the cell key, the numeric columns its metrics; booleans count as
    numeric (``success``-style flags diff as 1.0/0.0).  Rows whose identity
    columns collide — or rows with no string column at all — fall back to
    their position, which is stable because report generators emit rows in a
    deterministic order.
    """
    cells: Dict[str, Dict[str, float]] = {}
    for position, row in enumerate(payload.get("rows", [])):
        if not isinstance(row, Mapping):
            continue
        identity = ", ".join(
            f"{key}={row[key]}" for key in sorted(row) if isinstance(row[key], str)
        )
        cell = identity or f"row[{position}]"
        if cell in cells:
            cell = f"{cell} [{position}]"
        metrics: Dict[str, float] = {}
        for key in sorted(row):
            value = row[key]
            if isinstance(value, bool) or isinstance(value, (int, float)):
                metrics[key] = float(value)
        cells[cell] = metrics
    return cells, True


def _metrics_cells(payload: Dict[str, object]) -> Tuple[Dict[str, Dict[str, float]], bool]:
    """The ``metrics`` view over a ``trial_set``: the cell's obs counters.

    Requires the run to have been recorded under ``--obs`` (the harness only
    stores ``obs_metrics`` when a metrics registry was active) — a missing
    block is an explicit error rather than an empty diff, because an empty
    diff in CI reads as "no regressions" when it actually means "no data".
    """
    obs_metrics = payload.get("obs_metrics")
    if not isinstance(obs_metrics, Mapping) or not obs_metrics:
        raise ValueError(
            f"run {payload.get('run_id', '?')!r} carries no obs_metrics; "
            "re-run it with --obs to record counters"
        )
    stored = RunStore.trial_set_from_payload(payload)
    metrics = {str(name): float(value) for name, value in obs_metrics.items()}
    return {stored.label: metrics}, True


_CELL_EXTRACTORS = {
    "trial_set": _trial_set_cells,
    "report": _report_cells,
}

#: Counter-name suffixes that are timing- or histogram-derived and therefore
#: never gate in the ``metrics`` view: timings jitter, and a histogram's
#: ``.max``/``.sum`` move with scheduling even when the workload is identical.
#: No registry records histograms any more; records stored while one did
#: still carry these keys and diff as before.
_INFORMATIVE_SUFFIXES = ("_seconds", ".count", ".sum", ".min", ".max", ".p50", ".p90", ".p99")


def _classify_counter(baseline: float, candidate: float, thresholds: RegressionThresholds) -> str:
    if candidate > baseline * (1.0 + thresholds.max_counter_increase):
        return STATUS_REGRESSION
    if baseline == 0 and candidate > 0:
        return STATUS_REGRESSION
    if candidate < baseline:
        return STATUS_IMPROVED
    return STATUS_OK


def _classify(
    metric: str,
    baseline: float,
    candidate: float,
    thresholds: RegressionThresholds,
    gate_wall_clock: bool = True,
) -> str:
    if metric == "success_rate":
        if baseline - candidate > thresholds.max_success_rate_drop:
            return STATUS_REGRESSION
        return STATUS_IMPROVED if candidate > baseline else STATUS_OK
    if metric == "wall_clock_seconds":
        if (
            gate_wall_clock
            and baseline >= thresholds.min_wall_clock_seconds
            and baseline > 0
            and candidate / baseline > 1.0 + thresholds.max_wall_clock_increase
        ):
            return STATUS_REGRESSION
        return STATUS_IMPROVED if candidate < baseline else STATUS_OK
    # Remaining metrics (mean_overhead) are informative, never gating: the
    # overhead of a *successful* simulation is a property of the scheme, not
    # of this build's performance.
    return STATUS_OK


def diff_runs(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    thresholds: Optional[RegressionThresholds] = None,
    view: Optional[str] = None,
) -> RunDiff:
    """Compare two loaded run documents cell by cell.

    Both documents must be of the same, diffable kind (``trial_set`` or
    ``report``).  Cells present in only one run are reported with status
    ``only-baseline`` / ``only-candidate`` and never count as regressions —
    a disjoint diff is useless but not a CI failure.  Wall clock gates only
    when *both* runs computed every trial fresh (``cached_trials`` of 0);
    a warm result cache on either side turns it informative.

    ``view="metrics"`` switches a trial-set diff from its aggregate outcome
    to its obs counters (both runs must have been recorded under ``--obs``):
    every deterministic counter gates against ``max_counter_increase``, so CI
    can catch "this change doubled the rounds exchanged" even when the wall
    clock is too noisy to notice.
    """
    thresholds = thresholds or RegressionThresholds()
    kind_a, kind_b = baseline.get("kind"), candidate.get("kind")
    if kind_a != kind_b:
        raise ValueError(f"cannot diff a {kind_a!r} run against a {kind_b!r} run")
    if view == "metrics":
        if kind_a != "trial_set":
            raise ValueError(
                f"the metrics view diffs trial_set runs, not {kind_a!r} runs"
            )
        extractor = _metrics_cells
    elif view is not None:
        raise ValueError(f"unknown diff view {view!r} (views: metrics)")
    else:
        extractor = _CELL_EXTRACTORS.get(str(kind_a))
        if extractor is None:
            raise ValueError(
                f"runs of kind {kind_a!r} are not diffable (diffable kinds: "
                f"{', '.join(sorted(_CELL_EXTRACTORS))})"
            )
    cells_a, wall_gated_a = extractor(baseline)
    cells_b, wall_gated_b = extractor(candidate)
    gate_wall_clock = wall_gated_a and wall_gated_b

    rows: List[CellDelta] = []
    for cell in sorted(set(cells_a) | set(cells_b)):
        in_a, in_b = cell in cells_a, cell in cells_b
        if not in_b:
            rows.append(CellDelta(cell, "-", None, None, STATUS_ONLY_BASELINE))
            continue
        if not in_a:
            rows.append(CellDelta(cell, "-", None, None, STATUS_ONLY_CANDIDATE))
            continue
        for metric in sorted(set(cells_a[cell]) | set(cells_b[cell])):
            value_a = cells_a[cell].get(metric)
            value_b = cells_b[cell].get(metric)
            if value_a is None or value_b is None:
                # e.g. wall clock recorded on only one side (older writer)
                rows.append(CellDelta(cell, metric, value_a, value_b, STATUS_OK))
                continue
            if view == "metrics":
                if metric.endswith(_INFORMATIVE_SUFFIXES):
                    status = STATUS_OK
                else:
                    status = _classify_counter(value_a, value_b, thresholds)
            else:
                status = _classify(metric, value_a, value_b, thresholds, gate_wall_clock)
            rows.append(CellDelta(cell, metric, value_a, value_b, status))
    return RunDiff(
        baseline_id=str(baseline.get("run_id", "?")),
        candidate_id=str(candidate.get("run_id", "?")),
        kind=str(kind_a),
        thresholds=thresholds,
        rows=rows,
    )

