"""Command-line interface.

``python -m repro <command>`` regenerates the paper's experiments without
writing any Python:

* ``table1``        — the measured (and optionally analytical) rows of Table 1,
* ``noise-sweep``   — success probability around a scheme's nominal noise level,
* ``rate``          — the constant-rate check (overhead vs CC(Π)),
* ``ablations``     — flag-passing / rewind / hash-length / chunk-size ablations,
* ``simulate``      — one simulation of a chosen workload/scheme/noise level,
* ``runs``          — run-store analytics: ``list`` / ``show`` persisted runs,
  ``diff`` two runs cell by cell (non-zero exit on regression, so CI can gate
  on it; ``--kind metrics`` gates on obs counters instead of outcomes),
  ``trace`` / ``metrics`` render observability records captured under
  ``--trace`` / ``--obs``, ``explain`` / ``flight`` read the flight-recorder
  dumps captured under ``--forensics`` (failure taxonomy / one trial's event
  timeline),
* ``cache``         — trial-cache hygiene: ``cache compact`` rewrites the
  JSONL mirror keeping only the latest entry per trial key.

``runs diff|show`` accept either literal run ids (``run-000042``) or the
symbolic references ``latest`` / ``latest~N`` — the N-th newest run, after the
filters the command offers (``runs diff`` takes ``--kind``/``--experiment``).

Every command prints a fixed-width table and can also write a JSON or Markdown
report via ``--output``.  Each experiment runs in one scope that owns its
backend and closes it (pool processes) before the report is printed and
stored.  Experiment commands share the runtime flags:

* ``--jobs N``      — fan trials out over N worker processes (results are
  bit-identical to serial execution; see ``src/repro/runtime/README.md``);
  ``--jobs 1``, the default, runs them serially,
* ``--cache-dir``   — persist trial results so re-runs skip finished work,
* ``--no-cache``    — disable result caching entirely (even in-memory),
* ``--store-dir``   — persist every trial set and the final report to a run
  store that ``repro runs`` can browse later,
* ``--seed``        — the base seed; printed with every run so each published
  number can be regenerated from the command line,
* ``--obs``         — collect deterministic engine/transport/cache
  counters and store them with each trial set,
* ``--trace``       — record timing spans (implies ``--obs``); with
  ``--store-dir`` each cell persists one trace record,
* ``--forensics``   — flight-record protocol events per trial (corruptions,
  hash collisions, meeting points, rewinds, Φ); with ``--store-dir`` the
  dumps persist for ``repro runs explain`` / ``repro runs flight``,
* ``--trace-sample N`` / ``--forensics-capacity N`` — trace every N-th trial /
  keep N flight-recorder events per trial.

Observability never changes what is computed: results are bit-identical with
the flags on or off, and cache fingerprints are untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversary.strategies import RandomNoiseAdversary
from repro.analysis.forensics import (
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
from repro.core.engine import simulate
from repro.core.parameters import SCHEME_PRESETS, scheme_by_name
from repro.experiments.ablations import (
    chunk_size_ablation,
    flag_passing_ablation,
    hash_length_ablation,
    rewind_ablation,
)
from repro.experiments.harness import format_table
from repro.experiments.noise_sweep import noise_sweep
from repro.experiments.reporting import ExperimentReport
from repro.experiments.table1 import TABLE1_COLUMNS, build_table1
from repro.experiments.theorem_validation import rate_vs_protocol_size
from repro.experiments.workloads import WORKLOAD_BUILDERS, gossip_workload
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    format_metrics_rows,
    render_critical_path,
    render_trace_tree,
    use_obs,
)
from repro.runtime import (
    ExecutionBackend,
    ProcessPoolBackend,
    RegressionThresholds,
    ResultCache,
    RunStore,
    SerialBackend,
    diff_runs,
    use_runtime,
)

#: Default run-store location for the ``runs`` command (overridable per call).
DEFAULT_STORE_DIR = os.environ.get("REPRO_STORE_DIR", ".repro-runs")


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The runtime/reproducibility flags shared by all experiment commands."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for trial execution (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent trial-result cache (enables cross-run reuse)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable trial-result caching entirely (even within this run)",
    )
    parser.add_argument(
        "--store-dir", default=None,
        help="persist trial sets and the report to this run store (browse with 'repro runs')",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for all trials")
    parser.add_argument(
        "--obs", action="store_true",
        help="collect engine/transport/cache metrics; stored with each "
             "trial set (inspect with 'repro runs metrics', gate with "
             "'repro runs diff --kind metrics')",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record timing spans (implies --obs); traces persist to the run "
             "store for 'repro runs trace'",
    )
    parser.add_argument(
        "--forensics", action="store_true",
        help="flight-record protocol events per trial (corruptions, hash "
             "collisions, meeting points, rewinds, Φ); dumps persist with "
             "each trial set for 'repro runs explain' / 'repro runs flight'",
    )
    parser.add_argument(
        "--forensics-capacity", type=int, default=4096, metavar="N",
        help="flight-recorder ring size in events per trial (default 4096)",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="trace every N-th trial (default 1 = every trial)",
    )


def _obs_scope(args: argparse.Namespace):
    """The observability context the ``--obs``/``--trace``/``--forensics``
    flags ask for — a no-op context manager for commands without the flags
    (or with them off)."""
    tracing = bool(getattr(args, "trace", False))
    observing = tracing or bool(getattr(args, "obs", False))
    forensics = bool(getattr(args, "forensics", False))
    if not observing and not forensics:
        return nullcontext()
    sample = getattr(args, "trace_sample", 1)
    if sample < 1:
        raise _fail("--trace-sample must be a positive integer")
    tracer = Tracer(sample_every=sample) if tracing else None
    recorder = None
    if forensics:
        capacity = getattr(args, "forensics_capacity", 4096)
        if capacity < 1:
            raise _fail("--forensics-capacity must be a positive integer")
        recorder = FlightRecorder(capacity=capacity)
    return use_obs(
        metrics=MetricsRegistry() if observing else None,
        tracer=tracer,
        recorder=recorder,
    )


def _backend(args: argparse.Namespace) -> ExecutionBackend:
    """``--jobs N > 1`` selects a process pool, anything else the serial backend."""
    jobs = getattr(args, "jobs", 1)
    return ProcessPoolBackend(max_workers=jobs) if jobs > 1 else SerialBackend()


def _run_experiment(
    args: argparse.Namespace,
    experiment: str,
    parameters: Dict[str, object],
    columns: Sequence[str],
    compute: Callable[[], List[Dict[str, object]]],
) -> None:
    """The one experiment scope: ``compute()`` the rows under the runtime the
    flags ask for, closing the backend afterwards, then print the table,
    record the report in ``--store-dir`` and write ``--output``."""
    backend = _backend(args)
    cache = None if getattr(args, "no_cache", False) else ResultCache(getattr(args, "cache_dir", None))
    store = RunStore(args.store_dir) if args.store_dir else None
    with backend, use_runtime(backend=backend, cache=cache, store=store):
        rows = compute()
    report = ExperimentReport(experiment=experiment, rows=rows, parameters=parameters)
    print(f"seed: {args.seed}")
    print(format_table(report.rows, columns))
    if store is not None:
        print(f"\nrun persisted as {store.record_report(report)} in {store.root}")
    if args.output:
        print(f"\nreport written to {report.save(args.output)}")


def _cmd_table1(args: argparse.Namespace) -> None:
    _run_experiment(
        args,
        "table1",
        {"nodes": args.nodes, "phases": args.phases, "trials": args.trials, "seed": args.seed},
        TABLE1_COLUMNS,
        lambda: build_table1(
            topologies=tuple(args.topologies),
            num_nodes=args.nodes,
            phases=args.phases,
            trials=args.trials,
            base_seed=args.seed,
            include_analytical=not args.measured_only,
        ),
    )


def _cmd_noise_sweep(args: argparse.Namespace) -> None:
    workload = gossip_workload(topology=args.topology, num_nodes=args.nodes, phases=args.phases)
    scheme = scheme_by_name(args.scheme)
    _run_experiment(
        args,
        "noise_sweep",
        {"scheme": args.scheme, "topology": args.topology, "nodes": args.nodes, "seed": args.seed},
        ["multiplier", "target_fraction", "measured_fraction", "success_rate", "mean_overhead"],
        lambda: [
            point.as_dict()
            for point in noise_sweep(
                workload, scheme, multipliers=tuple(args.multipliers), trials=args.trials, base_seed=args.seed
            )
        ],
    )


def _cmd_rate(args: argparse.Namespace) -> None:
    scheme = scheme_by_name(args.scheme)
    _run_experiment(
        args,
        "rate_vs_protocol_size",
        {"scheme": args.scheme, "topology": args.topology, "seed": args.seed},
        ["x", "overhead", "rate", "success_rate"],
        lambda: [
            point.as_dict()
            for point in rate_vs_protocol_size(
                scheme,
                phases_grid=tuple(args.phases_grid),
                topology=args.topology,
                num_nodes=args.nodes,
                trials=args.trials,
                base_seed=args.seed,
            )
        ],
    )


_ABLATIONS = {
    "flag_passing": flag_passing_ablation,
    "rewind": rewind_ablation,
    "hash_length": hash_length_ablation,
    "chunk_size": chunk_size_ablation,
}


def _cmd_ablations(args: argparse.Namespace) -> None:
    _run_experiment(
        args,
        "ablations",
        {"which": args.which, "seed": args.seed},
        ["ablation", "label", "success_rate", "mean_overhead", "mean_iterations"],
        lambda: [
            dict(row.as_dict(), ablation=name)
            for name, ablation in _ABLATIONS.items()
            if args.which in (name, "all")
            for row in ablation(trials=args.trials, base_seed=args.seed)
        ],
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    builder = WORKLOAD_BUILDERS[args.workload]
    if args.workload in ("line_example", "token_ring"):
        # These workloads fix their own topology (a line / a ring).
        workload = builder(num_nodes=args.nodes)
    else:
        workload = builder(topology=args.topology, num_nodes=args.nodes)
    scheme = scheme_by_name(args.scheme)
    adversary = None
    if args.noise > 0.0:
        adversary = RandomNoiseAdversary(
            corruption_probability=args.noise, insertion_probability=args.noise / 4, seed=args.seed
        )
    _run_experiment(
        args,
        "simulate",
        {"workload": args.workload, "scheme": args.scheme, "noise": args.noise, "seed": args.seed},
        ["scheme", "success", "cc_protocol", "cc_simulation", "overhead", "noise_fraction"],
        lambda: [simulate(workload.protocol, scheme=scheme, adversary=adversary, seed=args.seed).summary()],
    )


_RUNS_COLUMNS = ["run_id", "kind", "experiment", "label", "trials", "success_rate", "created_at"]


def _fail(message: str) -> "SystemExit":
    """A friendly fatal error: one line on stderr, exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


def _load_run(
    store: RunStore,
    ref: str,
    kind: Optional[str] = None,
    experiment: Optional[str] = None,
) -> Dict[str, object]:
    """Load the run ``ref`` names, translating every failure mode (missing id,
    corrupt JSON, unknown schema, unreadable file, a run that is not of
    ``kind``, a trial set with a missing or wrong-typed field) into a
    friendly exit."""
    try:
        payload = store.load(ref, kind=kind, experiment=experiment)
    except KeyError as exc:
        raise _fail(str(exc.args[0]))
    except ValueError as exc:
        raise _fail(f"run {ref!r} in {store.root} is unreadable: {exc}")
    except OSError as exc:
        raise _fail(f"cannot read run {ref!r} from {store.root}: {exc}")
    if kind is not None and payload.get("kind") != kind:
        raise _fail(f"run {payload.get('run_id', ref)!r} is a {payload.get('kind')!r} run, not a {kind!r} run")
    if payload.get("kind") == "trial_set":
        try:
            RunStore.trial_set_from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise _fail(f"run {ref!r} in {store.root} is unreadable: {exc}")
    return payload


def _cmd_runs_list(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    rows = store.query(kind=args.kind, experiment=args.experiment)
    if not rows:
        print(f"(no runs in {store.root})")
        return
    print(format_table(rows, _RUNS_COLUMNS))


def _cmd_runs_show(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    payload = _load_run(store, args.run_id)
    if payload.get("kind") == "trial_set":
        stored = RunStore.trial_set_from_payload(payload)
        print(f"run {stored.run_id}: {stored.label} (recorded {stored.created_at})")
        if stored.parameters:
            print("parameters: " + json.dumps(stored.parameters, sort_keys=True, default=str))
        print()
        print(format_table([run.as_dict() for run in stored.runs], ["scheme", "success", "overhead", "noise_fraction", "iterations_run"]))
        print()
        print(format_table([stored.aggregate.as_dict()], ["scheme", "trials", "success_rate", "mean_overhead", "mean_noise_fraction"]))
        obs_metrics = payload.get("obs_metrics")
        if isinstance(obs_metrics, dict) and obs_metrics:
            print()
            print(f"obs metrics: {len(obs_metrics)} counter(s) recorded "
                  f"(show with 'repro runs metrics {stored.run_id}')")
    elif payload.get("kind") == "report":
        rows = list(payload.get("rows", []))
        print(f"run {payload['run_id']}: report {payload.get('experiment')} (recorded {payload.get('created_at')})")
        if payload.get("parameters"):
            print("parameters: " + json.dumps(payload["parameters"], sort_keys=True, default=str))
        print()
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        print(format_table(rows, columns) if rows else "(no rows)")
    elif payload.get("kind") == "trace":
        spans = list(payload.get("spans", []))
        print(f"run {payload['run_id']}: trace {payload.get('label')} (recorded {payload.get('created_at')})")
        print(f"trace {payload.get('trace_id')}: {len(spans)} span(s) — "
              f"full view: repro runs trace {payload['run_id']}")
        print()
        for line in render_trace_tree(spans):
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    store = RunStore(args.store_dir)
    # ``--kind metrics`` is a *view*: it resolves trial_set records but diffs
    # their obs counters instead of their aggregate outcome.
    view = "metrics" if args.kind == "metrics" else None
    record_kind = "trial_set" if view == "metrics" else args.kind
    baseline = _load_run(store, args.baseline, kind=record_kind, experiment=args.experiment)
    candidate = _load_run(store, args.candidate, kind=record_kind, experiment=args.experiment)
    try:
        thresholds = RegressionThresholds(
            max_wall_clock_increase=args.wall_clock_tolerance,
            max_success_rate_drop=args.success_tolerance,
            min_wall_clock_seconds=args.min_wall_clock,
            max_counter_increase=args.counter_tolerance,
        )
        diff = diff_runs(baseline, candidate, thresholds=thresholds, view=view)
    except ValueError as exc:
        raise _fail(str(exc))
    label = f"kind {diff.kind}" if view is None else f"kind {diff.kind} (metrics view)"
    print(f"diff {diff.baseline_id} (baseline) → {diff.candidate_id} (candidate), {label}")
    if view == "metrics":
        print(f"thresholds: counters +{thresholds.max_counter_increase:.0%} "
              "(timing metrics informative only)")
    else:
        print(
            f"thresholds: wall clock +{thresholds.max_wall_clock_increase:.0%}, "
            f"success rate -{thresholds.max_success_rate_drop:.3f}"
        )
    print()
    if not diff.rows:
        print("(no cells to compare)")
        return 0
    print(format_table(diff.as_rows(), ["cell", "metric", "baseline", "candidate", "delta", "ratio", "status"]))
    print()
    if diff.has_regression:
        print(f"REGRESSION: {len(diff.regressions)} metric(s) exceeded the threshold")
        return 1
    print("no regressions")
    return 0


def _cmd_runs_trace(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    payload = _load_run(store, args.run_id, kind="trace")
    spans = list(payload.get("spans", []))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return
    print(f"run {payload['run_id']}: trace {payload.get('label')} (recorded {payload.get('created_at')})")
    print(f"trace {payload.get('trace_id')}: {len(spans)} span(s)")
    print()
    for line in render_trace_tree(spans):
        print(line)
    print()
    print("critical path (what the wall clock waited for):")
    for line in render_critical_path(spans):
        print(line)


def _cmd_runs_metrics(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    payload = _load_run(store, args.run_id, kind="trial_set")
    obs_metrics = payload.get("obs_metrics")
    if not isinstance(obs_metrics, dict) or not obs_metrics:
        raise _fail(
            f"run {payload.get('run_id', args.run_id)!r} carries no obs "
            "metrics; re-run the experiment with --obs to record them"
        )
    if args.json:
        print(json.dumps(obs_metrics, indent=2, sort_keys=True, default=str))
        return
    prefixes = tuple(args.prefix) if args.prefix else None
    rows = format_metrics_rows(obs_metrics, prefixes)
    print(f"run {payload['run_id']}: {payload.get('label')} — "
          f"{len(rows)}/{len(obs_metrics)} metric(s)")
    print()
    print(format_table(list(rows), ["metric", "value"]) if rows else "(no matching metrics)")


def _load_forensics(store: RunStore, ref: str) -> Dict[str, object]:
    """Load a trial_set run that carries flight-recorder dumps (or fail
    with the flag that would have recorded them)."""
    payload = _load_run(store, ref, kind="trial_set")
    dumps = payload.get("forensics")
    if not isinstance(dumps, list) or not dumps:
        raise _fail(
            f"run {payload.get('run_id', ref)!r} carries no flight-recorder "
            "dumps; re-run the experiment with --forensics to record them"
        )
    return payload


#: At most this many failed trials get their trajectories rendered inline by
#: ``runs explain`` (the rest remain one ``runs flight`` away).
_EXPLAIN_TRAJECTORY_LIMIT = 3


def _cmd_runs_explain(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    payload = _load_forensics(store, args.run_id)
    dumps = list(payload["forensics"])
    failures = failed_dumps(dumps)
    if args.json:
        print(json.dumps(
            {
                "run_id": payload.get("run_id"),
                "label": payload.get("label"),
                "trials": len(dumps),
                "failed": len(failures),
                "anatomy": anatomy_rows(dumps),
                "heatmap": {
                    link: {str(bucket): count for bucket, count in row.items()}
                    for link, row in sorted(
                        corruption_heatmap(failures, round_bucket=args.round_bucket).items()
                    )
                },
                "verdicts": [explain_dump(dump) for dump in failures],
            },
            indent=2, sort_keys=True, default=str,
        ))
        return
    print(f"run {payload['run_id']}: {payload.get('label')} — "
          f"{len(dumps)} trial(s), {len(failures)} failed")
    if not failures:
        print("\nevery trial succeeded — nothing to explain")
        return
    print()
    print("failure anatomy (why trials failed, in the paper's vocabulary):")
    print(format_table(
        anatomy_rows(dumps),
        ["cause", "trials", "share", "mean_corruptions", "mean_noise_fraction",
         "mean_rewinds", "mean_iterations", "seeds"],
    ))
    print()
    print("corruption heatmap (failed trials, link × round):")
    print(render_heatmap(corruption_heatmap(failures, round_bucket=args.round_bucket)))
    for dump in failures[:_EXPLAIN_TRAJECTORY_LIMIT]:
        trial = dump.get("trial") or {}
        print()
        print(f"trial seed={trial.get('seed')} — cause: {classify_failure(dump)}")
        phi_points = [
            (event.get("iteration", 0), float(event.get("phi", 0.0)))
            for event in phi_trajectory(dump)
        ]
        print("Φ trajectory:")
        print(render_trajectory(phi_points, "potential"))
        rewind_points = [
            (iteration, float(count))
            for iteration, count in rewind_depth_trajectory(dump)
        ]
        print("rewind activity:")
        print(render_trajectory(rewind_points, "rewind"))
    if len(failures) > _EXPLAIN_TRAJECTORY_LIMIT:
        print()
        print(f"({len(failures) - _EXPLAIN_TRAJECTORY_LIMIT} more failed trial(s) — "
              f"inspect each with 'repro runs flight {payload['run_id']} <seed>')")


def _cmd_runs_flight(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    payload = _load_forensics(store, args.run_id)
    dumps = list(payload["forensics"])
    match = next(
        (dump for dump in dumps if (dump.get("trial") or {}).get("seed") == args.seed),
        None,
    )
    if match is None:
        seeds = ", ".join(str((dump.get("trial") or {}).get("seed")) for dump in dumps)
        raise _fail(
            f"run {payload['run_id']} has no trial with seed {args.seed} "
            f"(recorded seeds: {seeds})"
        )
    if args.json:
        print(json.dumps(
            dict(explain_dump(match), events=list(match.get("events") or ())),
            indent=2, sort_keys=True, default=str,
        ))
        return
    trial = match.get("trial") or {}
    print(f"run {payload['run_id']}: trial seed={args.seed} "
          f"({'success' if trial.get('success') else 'FAILED'})")
    print("trial: " + json.dumps(trial, sort_keys=True, default=str))
    if not trial.get("success", True):
        print(f"cause: {classify_failure(match)}")
    counts = match.get("event_counts") or {}
    kept = match.get("events_kept", 0)
    recorded = match.get("events_recorded", 0)
    print(f"events: {recorded} recorded, {kept} kept"
          + (f" (ring overflowed, oldest {recorded - kept} dropped)" if recorded > kept else ""))
    if counts:
        print("counts: " + ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts)))
    events = list(match.get("events") or ())
    if not events:
        print("\n(successful trial: only the event-count summary is kept — "
              "failing trials keep the full timeline)")
        return
    print()
    for event in events:
        print(render_event(event))


def _cmd_cache_compact(args: argparse.Namespace) -> None:
    cache = ResultCache(args.cache_dir)
    try:
        result = cache.compact()
    except ValueError as exc:
        raise _fail(str(exc))
    print(
        f"compacted {cache.cache_dir}/trials.jsonl: kept {result['kept']} entr(ies), "
        f"dropped {result['dropped_superseded']} superseded and "
        f"{result['dropped_invalid']} stale/corrupt line(s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--topologies", nargs="+", default=["line", "star", "clique"])
    table1.add_argument("--nodes", type=int, default=5)
    table1.add_argument("--phases", type=int, default=12)
    table1.add_argument("--trials", type=int, default=2)
    table1.add_argument("--measured-only", action="store_true")
    table1.add_argument("--output")
    _add_runtime_arguments(table1)
    table1.set_defaults(func=_cmd_table1)

    sweep = sub.add_parser("noise-sweep", help="success probability vs noise level")
    sweep.add_argument("--scheme", choices=sorted(SCHEME_PRESETS), default="algorithm_a")
    sweep.add_argument("--topology", default="line")
    sweep.add_argument("--nodes", type=int, default=5)
    sweep.add_argument("--phases", type=int, default=10)
    sweep.add_argument("--multipliers", nargs="+", type=float, default=[0.5, 1.0, 4.0, 16.0])
    sweep.add_argument("--trials", type=int, default=3)
    sweep.add_argument("--output")
    _add_runtime_arguments(sweep)
    sweep.set_defaults(func=_cmd_noise_sweep)

    rate = sub.add_parser("rate", help="constant-rate check (overhead vs CC(Pi))")
    rate.add_argument("--scheme", choices=sorted(SCHEME_PRESETS), default="algorithm_crs")
    rate.add_argument("--topology", default="clique")
    rate.add_argument("--nodes", type=int, default=5)
    rate.add_argument("--phases-grid", nargs="+", type=int, default=[8, 24, 48])
    rate.add_argument("--trials", type=int, default=1)
    rate.add_argument("--output")
    _add_runtime_arguments(rate)
    rate.set_defaults(func=_cmd_rate)

    ablations = sub.add_parser("ablations", help="design-choice ablations")
    ablations.add_argument(
        "--which", choices=["flag_passing", "rewind", "hash_length", "chunk_size", "all"], default="all"
    )
    ablations.add_argument("--trials", type=int, default=2)
    ablations.add_argument("--output")
    _add_runtime_arguments(ablations)
    ablations.set_defaults(func=_cmd_ablations)

    run = sub.add_parser("simulate", help="run one noise-resilient simulation")
    run.add_argument("--workload", choices=sorted(WORKLOAD_BUILDERS), default="gossip")
    run.add_argument("--topology", default="line")
    run.add_argument("--nodes", type=int, default=5)
    run.add_argument("--scheme", choices=sorted(SCHEME_PRESETS), default="algorithm_a")
    run.add_argument("--noise", type=float, default=0.002)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--store-dir", default=None, help="persist the result to this run store")
    run.add_argument("--output")
    run.set_defaults(func=_cmd_simulate)

    cache = sub.add_parser("cache", help="trial-result cache hygiene")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_compact = cache_sub.add_parser(
        "compact", help="rewrite trials.jsonl keeping only the latest entry per trial key"
    )
    cache_compact.add_argument("--cache-dir", required=True,
                               help="the cache directory to compact")
    cache_compact.set_defaults(func=_cmd_cache_compact)

    runs = sub.add_parser("runs", help="list or inspect persisted experiment runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="list all runs in a store")
    runs_list.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_list.add_argument("--kind", choices=["trial_set", "report", "trace"], default=None)
    runs_list.add_argument("--experiment", default=None)
    runs_list.set_defaults(func=_cmd_runs_list)

    runs_show = runs_sub.add_parser("show", help="show one persisted run")
    runs_show.add_argument("run_id", help="run id, or latest / latest~N")
    runs_show.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_show.set_defaults(func=_cmd_runs_show)

    runs_trace = runs_sub.add_parser(
        "trace", help="render a stored trace: span tree + critical path"
    )
    runs_trace.add_argument("run_id", help="trace run id, or latest / latest~N")
    runs_trace.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_trace.add_argument("--json", action="store_true",
                            help="dump the raw trace record as JSON")
    runs_trace.set_defaults(func=_cmd_runs_trace)

    runs_metrics = runs_sub.add_parser(
        "metrics", help="show the obs counters stored with a trial set (--obs)"
    )
    runs_metrics.add_argument("run_id", help="trial_set run id, or latest / latest~N")
    runs_metrics.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_metrics.add_argument("--prefix", action="append", default=None, metavar="PREFIX",
                              help="only metrics starting with PREFIX (repeatable)")
    runs_metrics.add_argument("--json", action="store_true",
                              help="dump the metrics map as JSON")
    runs_metrics.set_defaults(func=_cmd_runs_metrics)

    runs_explain = runs_sub.add_parser(
        "explain", help="classify every failed trial of a run (--forensics) "
                        "into the failure taxonomy, with corruption heatmap "
                        "and Φ/rewind trajectories"
    )
    runs_explain.add_argument("run_id", help="trial_set run id, or latest / latest~N")
    runs_explain.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_explain.add_argument("--round-bucket", type=int, default=1, metavar="N",
                              help="group the heatmap's rounds into buckets of N (default 1)")
    runs_explain.add_argument("--json", action="store_true",
                              help="dump the full forensic analysis as JSON")
    runs_explain.set_defaults(func=_cmd_runs_explain)

    runs_flight = runs_sub.add_parser(
        "flight", help="print one trial's flight-recorder event timeline (--forensics)"
    )
    runs_flight.add_argument("run_id", help="trial_set run id, or latest / latest~N")
    runs_flight.add_argument("seed", type=int, help="the trial's seed (shown by 'runs explain')")
    runs_flight.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_flight.add_argument("--json", action="store_true",
                             help="dump the trial's forensic record as JSON")
    runs_flight.set_defaults(func=_cmd_runs_flight)

    runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs cell by cell; exits 1 on regression"
    )
    runs_diff.add_argument("baseline", help="baseline run id, or latest / latest~N")
    runs_diff.add_argument("candidate", help="candidate run id, or latest / latest~N")
    runs_diff.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_diff.add_argument(
        "--kind", choices=["trial_set", "report", "metrics"], default=None,
        help="restrict latest/latest~N resolution to this record kind; "
             "'metrics' diffs trial_set obs counters instead of outcomes",
    )
    runs_diff.add_argument(
        "--experiment", default=None,
        help="restrict latest/latest~N resolution to this experiment",
    )
    runs_diff.add_argument(
        "--wall-clock-tolerance", type=float, default=0.25,
        help="allowed fractional wall-clock increase (default 0.25)",
    )
    runs_diff.add_argument(
        "--success-tolerance", type=float, default=0.0,
        help="allowed absolute success-rate drop (default 0.0)",
    )
    runs_diff.add_argument(
        "--min-wall-clock", type=float, default=0.005,
        help="wall-clock floor in seconds below which ratios never gate (default 0.005)",
    )
    runs_diff.add_argument(
        "--counter-tolerance", type=float, default=0.0,
        help="allowed fractional counter increase for --kind metrics (default 0.0 "
             "— obs counters are deterministic, any increase regresses)",
    )
    runs_diff.set_defaults(func=_cmd_runs_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _obs_scope(args):
            result = args.func(args)
    except BrokenPipeError:  # e.g. `repro runs list | head` closing the pipe early
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    return int(result) if result is not None else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
