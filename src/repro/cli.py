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
  timeline), ``merge`` trial sets of the same cell, ``gc`` old runs,
* ``worker``        — ``worker serve`` runs a distributed-execution worker
  daemon (see ``--backend distributed`` below),
* ``cache``         — trial-cache hygiene: ``cache compact`` rewrites the
  JSONL mirror keeping only the latest entry per trial key.

``runs diff|show|merge`` accept either literal run ids (``run-000042``) or the
symbolic references ``latest`` / ``latest~N`` — the N-th newest run, after the
filters the command offers (``runs diff`` takes ``--kind``/``--experiment``;
``runs merge`` resolves against trial_set records only).

Every command prints a fixed-width table and can also write a JSON or Markdown
report via ``--output``.  Experiment commands share the runtime flags:

* ``--jobs N``      — fan trials out over N worker processes (results are
  bit-identical to serial execution; see ``src/repro/runtime/README.md``),
* ``--backend``     — pick the execution backend explicitly: ``serial``,
  ``process-pool`` (what ``--jobs N`` implies) or ``distributed``,
* ``--workers``     — comma-separated ``host:port`` list of ``repro worker
  serve`` daemons for ``--backend distributed``,
* ``--cache-dir``   — persist trial results so re-runs skip finished work,
* ``--no-cache``    — disable result caching entirely (even in-memory),
* ``--store-dir``   — persist every trial set and the final report to a run
  store that ``repro runs`` can browse later,
* ``--seed``        — the base seed; printed with every run so each published
  number can be regenerated from the command line,
* ``--obs``         — collect deterministic engine/transport/cache/cluster
  counters and store them with each trial set,
* ``--trace``       — record timing spans (implies ``--obs``); with
  ``--store-dir`` each cell persists one trace record,
* ``--forensics``   — flight-record protocol events per trial (corruptions,
  hash collisions, meeting points, rewinds, Φ); with ``--store-dir`` the
  dumps persist for ``repro runs explain`` / ``repro runs flight``,
* ``--trace-sample N`` / ``--log-level`` / ``--log-json`` — trace sampling and
  structured-log output controls.

Observability never changes what is computed: results are bit-identical with
the flags on or off, and cache fingerprints are untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

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
from repro.core.config import DEFAULT_ENGINE_CONFIG, REFERENCE_ENGINE_CONFIG, EngineConfig
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
    configure_logging,
    format_metrics_rows,
    render_critical_path,
    render_trace_tree,
    use_obs,
)
from repro.runtime import (
    DistributedBackend,
    ProcessPoolBackend,
    RegressionThresholds,
    ResultCache,
    RunStore,
    SerialBackend,
    WorkerServer,
    diff_runs,
    gc_runs,
    merge_runs,
    use_runtime,
)

#: Default run-store location for the ``runs`` command (overridable per call).
DEFAULT_STORE_DIR = os.environ.get("REPRO_STORE_DIR", ".repro-runs")


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine-configuration flags (``--engine-*``).

    Engine configuration selects among bit-identical execution paths
    (:class:`~repro.core.config.EngineConfig`): results and cache keys never
    change, only speed.  The flags exist for benchmarking and for bisecting a
    suspected fast-path bug against the reference semantics.
    """
    parser.add_argument(
        "--engine-reference", action="store_true",
        help="run on the reference engine paths (every fast path off); "
             "results are bit-identical, only slower",
    )
    for switch, what in [
        ("fast-hashing", "table-stepped small-bias hashing"),
        ("batched-transport", "batched window exchange"),
        ("packed", "packed (bitmask-plane) transport and transcripts"),
    ]:
        parser.add_argument(
            f"--engine-no-{switch}", action="store_true",
            help=f"disable {what} (bit-identical, for benchmarking/bisecting)",
        )


def _engine_config(args: argparse.Namespace) -> Optional[EngineConfig]:
    """Translate ``--engine-*`` flags into an :class:`EngineConfig`.

    Returns ``None`` (ambient/default configuration) when no flag is given, so
    plain invocations keep deferring to the runtime context.
    """
    if getattr(args, "engine_reference", False):
        return REFERENCE_ENGINE_CONFIG
    overrides = {
        name: False
        for flag, name in [
            ("engine_no_fast_hashing", "fast_hashing"),
            ("engine_no_batched_transport", "batched_transport"),
            ("engine_no_packed", "packed"),
        ]
        if getattr(args, flag, False)
    }
    if not overrides:
        return None
    return DEFAULT_ENGINE_CONFIG.with_overrides(**overrides)


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The runtime/reproducibility flags shared by all experiment commands."""
    _add_engine_arguments(parser)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for trial execution (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--backend", choices=["serial", "process-pool", "distributed"], default=None,
        help="execution backend (default: serial, or process-pool when --jobs > 1)",
    )
    parser.add_argument(
        "--workers", default=None,
        help="comma-separated host:port list of worker daemons (--backend distributed)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=10.0,
        help="seconds without a worker frame before it is declared dead "
             "(--backend distributed; stretched automatically for workers "
             "announcing a slower --heartbeat-interval)",
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
        help="collect engine/transport/cache/cluster metrics; stored with each "
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
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"], default="warning",
        help="structured-log verbosity for repro.* events (default warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured logs as JSON lines instead of human-readable text",
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
    sample = getattr(args, "trace_sample", 1) or 1
    if sample < 1:
        raise _fail("--trace-sample must be a positive integer")
    tracer = Tracer(sample_every=int(sample)) if tracing else None
    recorder = None
    if forensics:
        capacity = getattr(args, "forensics_capacity", 4096) or 4096
        if capacity < 1:
            raise _fail("--forensics-capacity must be a positive integer")
        recorder = FlightRecorder(capacity=int(capacity))
    return use_obs(
        metrics=MetricsRegistry() if observing else None,
        tracer=tracer,
        recorder=recorder,
    )


def _runtime_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """Translate CLI flags into a runtime-context override for ``use_runtime``."""
    backend_name = args.backend or ("process-pool" if args.jobs > 1 else "serial")
    if backend_name == "distributed":
        addresses = [part.strip() for part in (args.workers or "").split(",") if part.strip()]
        if not addresses:
            raise _fail("--backend distributed needs --workers host:port[,host:port...]")
        try:
            backend = DistributedBackend(workers=addresses, heartbeat_timeout=args.heartbeat_timeout)
        except ValueError as exc:
            raise _fail(str(exc))
    elif backend_name == "process-pool":
        backend = ProcessPoolBackend(max_workers=args.jobs if args.jobs > 1 else None)
    else:
        backend = SerialBackend()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = RunStore(args.store_dir) if args.store_dir else None
    return {"backend": backend, "cache": cache, "store": store, "engine": _engine_config(args)}


def _emit(
    report: ExperimentReport,
    columns: Sequence[str],
    output: Optional[str],
    seed: Optional[int] = None,
    store: Optional[RunStore] = None,
) -> None:
    if seed is not None:
        print(f"seed: {seed}")
    print(format_table(report.rows, columns))
    if store is not None:
        run_id = report.save_to_store(store)
        print(f"\nrun persisted as {run_id} in {store.root}")
    if output:
        path = report.save(output)
        print(f"\nreport written to {path}")


def _cmd_table1(args: argparse.Namespace) -> None:
    overrides = _runtime_overrides(args)
    with use_runtime(**overrides):
        rows = build_table1(
            topologies=tuple(args.topologies),
            num_nodes=args.nodes,
            phases=args.phases,
            trials=args.trials,
            base_seed=args.seed,
            include_analytical=not args.measured_only,
        )
    report = ExperimentReport(
        experiment="table1",
        rows=rows,
        parameters={"nodes": args.nodes, "phases": args.phases, "trials": args.trials, "seed": args.seed},
    )
    _emit(report, TABLE1_COLUMNS, args.output, seed=args.seed, store=overrides["store"])


def _cmd_noise_sweep(args: argparse.Namespace) -> None:
    workload = gossip_workload(topology=args.topology, num_nodes=args.nodes, phases=args.phases)
    scheme = scheme_by_name(args.scheme)
    overrides = _runtime_overrides(args)
    with use_runtime(**overrides):
        points = noise_sweep(
            workload, scheme, multipliers=tuple(args.multipliers), trials=args.trials,
            base_seed=args.seed,
        )
    rows = [point.as_dict() for point in points]
    report = ExperimentReport(
        experiment="noise_sweep",
        rows=rows,
        parameters={"scheme": args.scheme, "topology": args.topology, "nodes": args.nodes, "seed": args.seed},
    )
    _emit(
        report,
        ["multiplier", "target_fraction", "measured_fraction", "success_rate", "mean_overhead"],
        args.output,
        seed=args.seed,
        store=overrides["store"],
    )


def _cmd_rate(args: argparse.Namespace) -> None:
    scheme = scheme_by_name(args.scheme)
    overrides = _runtime_overrides(args)
    with use_runtime(**overrides):
        points = rate_vs_protocol_size(
            scheme,
            phases_grid=tuple(args.phases_grid),
            topology=args.topology,
            num_nodes=args.nodes,
            trials=args.trials,
            base_seed=args.seed,
        )
    rows = [point.as_dict() for point in points]
    report = ExperimentReport(
        experiment="rate_vs_protocol_size",
        rows=rows,
        parameters={"scheme": args.scheme, "topology": args.topology, "seed": args.seed},
    )
    _emit(report, ["x", "overhead", "rate", "success_rate"], args.output, seed=args.seed, store=overrides["store"])


def _cmd_ablations(args: argparse.Namespace) -> None:
    overrides = _runtime_overrides(args)
    rows: List[Dict[str, object]] = []
    with use_runtime(**overrides):
        if args.which in ("flag_passing", "all"):
            rows += [
                dict(row.as_dict(), ablation="flag_passing")
                for row in flag_passing_ablation(trials=args.trials, base_seed=args.seed)
            ]
        if args.which in ("rewind", "all"):
            rows += [
                dict(row.as_dict(), ablation="rewind")
                for row in rewind_ablation(trials=args.trials, base_seed=args.seed)
            ]
        if args.which in ("hash_length", "all"):
            rows += [
                dict(row.as_dict(), ablation="hash_length")
                for row in hash_length_ablation(trials=args.trials, base_seed=args.seed)
            ]
        if args.which in ("chunk_size", "all"):
            rows += [
                dict(row.as_dict(), ablation="chunk_size")
                for row in chunk_size_ablation(trials=args.trials, base_seed=args.seed)
            ]
    report = ExperimentReport(
        experiment="ablations", rows=rows, parameters={"which": args.which, "seed": args.seed}
    )
    _emit(
        report,
        ["ablation", "label", "success_rate", "mean_overhead", "mean_iterations"],
        args.output,
        seed=args.seed,
        store=overrides["store"],
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
    result = simulate(
        workload.protocol,
        scheme=scheme,
        adversary=adversary,
        seed=args.seed,
        config=_engine_config(args),
    )
    rows = [result.summary()]
    report = ExperimentReport(
        experiment="simulate",
        rows=rows,
        parameters={"workload": args.workload, "scheme": args.scheme, "noise": args.noise, "seed": args.seed},
    )
    store = RunStore(args.store_dir) if args.store_dir else None
    _emit(
        report,
        ["scheme", "success", "cc_protocol", "cc_simulation", "overhead", "noise_fraction"],
        args.output,
        seed=args.seed,
        store=store,
    )


_RUNS_COLUMNS = ["run_id", "kind", "experiment", "label", "trials", "success_rate", "created_at"]

#: Environment defaults for the ``runs diff`` thresholds, so CI pipelines can
#: tune the gate without editing the command line.
DIFF_WALL_CLOCK_ENV = "REPRO_DIFF_WALL_CLOCK_TOLERANCE"
DIFF_SUCCESS_DROP_ENV = "REPRO_DIFF_SUCCESS_TOLERANCE"


def _fail(message: str) -> "SystemExit":
    """A friendly fatal error: one line on stderr, exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(1)


def _env_float(name: str, fallback: float) -> float:
    """An environment-variable float default, resolved at command time so a
    malformed value fails the one command that uses it — friendly, not a
    parser-construction traceback for every ``repro`` invocation."""
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return float(value)
    except ValueError:
        raise _fail(f"{name}={value!r} is not a number")


def _load_run(
    store: RunStore,
    ref: str,
    kind: Optional[str] = None,
    experiment: Optional[str] = None,
) -> Dict[str, object]:
    """Resolve + load one run, translating every failure mode (missing id,
    corrupt JSON, unknown schema, unreadable file) into a friendly exit."""
    try:
        run_id = store.resolve(ref, kind=kind, experiment=experiment)
        return store.load(run_id)
    except KeyError as exc:
        raise _fail(str(exc.args[0]))
    except ValueError as exc:
        raise _fail(f"run {ref!r} in {store.root} is unreadable: {exc}")
    except OSError as exc:
        raise _fail(f"cannot read run {ref!r} from {store.root}: {exc}")


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
        attribution = payload.get("workers")
        if isinstance(attribution, dict) and attribution.get("workers"):
            print()
            print(f"workers ({attribution.get('backend', '?')} backend, "
                  f"{attribution.get('trials_total', '?')} trial(s), "
                  f"{attribution.get('remote_cache_hits', 0)} remote cache hit(s)):")
            worker_rows = [
                dict({"worker": worker_id}, **stats)
                for worker_id, stats in sorted(attribution["workers"].items())
            ]
            print(format_table(
                worker_rows,
                ["worker", "dispatched", "stolen", "redispatched", "trials_executed", "cache_hits"],
            ))
            for failure in attribution.get("unreachable_workers", []):
                print(f"  unreachable: {failure}")
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
    elif payload.get("kind") == "bench":
        rows = list(payload.get("benchmarks", []))
        print(f"run {payload['run_id']}: benchmark session (recorded {payload.get('created_at')})")
        print()
        bench_columns = ["name", "mean_seconds", "min_seconds", "max_seconds", "rounds"]
        print(format_table(rows, bench_columns) if rows else "(no benchmarks)")
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
    wall_clock_tolerance = (
        args.wall_clock_tolerance
        if args.wall_clock_tolerance is not None
        else _env_float(DIFF_WALL_CLOCK_ENV, 0.25)
    )
    success_tolerance = (
        args.success_tolerance
        if args.success_tolerance is not None
        else _env_float(DIFF_SUCCESS_DROP_ENV, 0.0)
    )
    try:
        thresholds = RegressionThresholds(
            max_wall_clock_increase=wall_clock_tolerance,
            max_success_rate_drop=success_tolerance,
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
    if payload.get("kind") != "trace":
        raise _fail(
            f"run {payload.get('run_id', args.run_id)!r} is a "
            f"{payload.get('kind')!r}, not a trace; record one with --trace"
        )
    spans = list(payload.get("spans", []))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return
    print(f"run {payload['run_id']}: trace {payload.get('label')} (recorded {payload.get('created_at')})")
    print(f"trace {payload.get('trace_id')}: {len(spans)} span(s) across "
          f"{len({span.get('worker') for span in spans})} worker(s)")
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
    if payload.get("kind") != "trial_set":
        raise _fail(
            f"run {payload.get('run_id', args.run_id)!r} is a "
            f"{payload.get('kind')!r}; obs metrics live on trial_set runs"
        )
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
    if payload.get("kind") != "trial_set":
        raise _fail(
            f"run {payload.get('run_id', ref)!r} is a "
            f"{payload.get('kind')!r}; forensics live on trial_set runs"
        )
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


def _cmd_runs_merge(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    refs: List[str] = []
    for ref in args.run_ids:
        try:
            refs.append(store.resolve(ref, kind="trial_set"))
        except KeyError as exc:
            raise _fail(str(exc.args[0]))
    try:
        result = merge_runs(store, refs, label=args.label)
    except KeyError as exc:
        raise _fail(str(exc.args[0]))
    except ValueError as exc:
        raise _fail(str(exc))
    for run_id in result.created:
        print(f"merged run persisted as {run_id} in {store.root}")
    if result.skipped:
        print(f"skipped (no partner cell): {', '.join(result.skipped)}")
    if not result.created:
        raise _fail("nothing merged: no two input runs share an (experiment, label) cell")


def _cmd_runs_gc(args: argparse.Namespace) -> None:
    store = RunStore(args.store_dir)
    try:
        result = gc_runs(
            store,
            max_age_days=args.max_age_days,
            keep_count=args.keep,
            dry_run=args.dry_run,
        )
    except ValueError as exc:
        raise _fail(str(exc))
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {len(result.deleted)} run(s), kept {len(result.kept)} in {store.root}")
    for run_id in result.deleted:
        print(f"  {verb}: {run_id}")


def _cmd_worker_serve(args: argparse.Namespace) -> None:
    try:
        server = WorkerServer(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat_interval,
            status_port=args.status_port,
        )
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot start worker: {exc}")
    # One parseable line so scripts can discover an OS-assigned port (--port 0).
    print(f"worker {server.worker_id} listening on {server.address}", flush=True)
    if server.status_port is not None:
        print(f"status: http://{server.host}:{server.status_port}/", flush=True)
    if args.cache_dir:
        print(f"cache: {args.cache_dir} ({len(server.cache)} entries)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"worker {server.worker_id}: executed {server.trials_executed} trial(s), shutting down")


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
    _add_engine_arguments(run)
    run.set_defaults(func=_cmd_simulate)

    worker = sub.add_parser("worker", help="distributed-execution worker daemon")
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    worker_serve = worker_sub.add_parser(
        "serve", help="serve trials on this host until interrupted"
    )
    worker_serve.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default 127.0.0.1; 0.0.0.0 for remote coordinators)")
    worker_serve.add_argument("--port", type=int, default=0,
                              help="TCP port (default 0 = OS-assigned, printed on startup)")
    worker_serve.add_argument("--cache-dir", default=None,
                              help="persist executed trials here and answer cache probes from it")
    worker_serve.add_argument("--worker-id", default=None,
                              help="stable id recorded in run attribution (default host:port)")
    worker_serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                              help="seconds between liveness frames while a chunk runs (default 1.0)")
    worker_serve.add_argument("--status-port", type=int, default=None,
                              help="serve a live JSON status/metrics snapshot over HTTP "
                                   "on this port (0 = OS-assigned, printed on startup)")
    worker_serve.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                              default="warning", help="structured-log verbosity (default warning)")
    worker_serve.add_argument("--log-json", action="store_true",
                              help="emit structured logs as JSON lines")
    worker_serve.set_defaults(func=_cmd_worker_serve)

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
    runs_list.add_argument("--kind", choices=["trial_set", "report", "bench", "trace"], default=None)
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
        "--kind", choices=["trial_set", "bench", "report", "metrics"], default=None,
        help="restrict latest/latest~N resolution to this record kind; "
             "'metrics' diffs trial_set obs counters instead of outcomes",
    )
    runs_diff.add_argument(
        "--experiment", default=None,
        help="restrict latest/latest~N resolution to this experiment",
    )
    runs_diff.add_argument(
        "--wall-clock-tolerance", type=float, default=None,
        help=f"allowed fractional wall-clock increase (default 0.25, env {DIFF_WALL_CLOCK_ENV})",
    )
    runs_diff.add_argument(
        "--success-tolerance", type=float, default=None,
        help=f"allowed absolute success-rate drop (default 0.0, env {DIFF_SUCCESS_DROP_ENV})",
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

    runs_merge = runs_sub.add_parser(
        "merge", help="union trial sets of identical cells into a new, larger run"
    )
    runs_merge.add_argument("run_ids", nargs="+", metavar="run_id",
                            help="two or more trial_set run ids (or latest / latest~N)")
    runs_merge.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_merge.add_argument("--label", default=None, help="label for the merged run(s)")
    runs_merge.set_defaults(func=_cmd_runs_merge)

    runs_gc = runs_sub.add_parser(
        "gc", help="prune old runs (never drops the latest run of an experiment)"
    )
    runs_gc.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    runs_gc.add_argument("--max-age-days", type=float, default=None,
                         help="delete runs older than this many days")
    runs_gc.add_argument("--keep", type=int, default=None,
                         help="keep only the N newest runs")
    runs_gc.add_argument("--dry-run", action="store_true",
                         help="report what would be deleted without deleting")
    runs_gc.set_defaults(func=_cmd_runs_gc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        level=getattr(args, "log_level", "warning"),
        json_output=bool(getattr(args, "log_json", False)),
    )
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
