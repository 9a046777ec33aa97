"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep_nominal --seed 0 --seconds 30 --trace 0

Every sample runs in a fresh interpreter (``bench.py``), so no cache is warm
from an earlier run.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``: the set-up time is the median over several set-up-only
processes plus the measured one.  ``--trace 1`` reports the per-layer
metrics: an untraced run of ``--seconds``/2, then a traced serial run of the
same items (``layers.py``); ``table1_pool2`` adds an untraced serial run of
those items, which gives the trace overhead and the pool efficiency.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every result checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from probe import at_nominal_speed, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_nominal", "sweep_storm", "table1_pool2")
SCHEMES = ("crs", "algorithm_a", "algorithm_b", "algorithm_c")
ENGINE_PHASES = ("meeting_points", "flag_passing", "simulation", "rewind")
#: Set-up-only processes per end-to-end run (the measured one adds a sample).
SETUP_SAMPLES = 6
#: The whole command must finish within this many seconds.
TIME_LIMIT = 170.0
#: Layers whose self time ``coverage`` sums (glue spans are left out).
LAYERS = (
    "coding.encode", "coding.decode", "randomness_exchange", "hashing.expand", "hashing.seeds",
    "hashing.digest", "meeting_points.build", "meeting_points.reply", "engine.run",
    *(f"engine.{phase}" for phase in ENGINE_PHASES), "transport", "adversary", "baselines",
    "runtime.specs", "runtime.fingerprint", "runtime.cache",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile: the value at index ``ceil(n*rank/100) - 1``."""
    if not values:
        raise BenchmarkError("no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * rank / 100) - 1)]


def samples_beyond(count: int, rank: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(count * rank / 100))


def run_child(arguments: List[str], deadline: float) -> Dict[str, object]:
    """Run ``bench.py`` in a fresh interpreter; its set-up time is measured
    from just before the process is started."""
    probes = speed_probe(every_cpu=True)
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"bench.py {' '.join(arguments)} ran out of time")
    finally:
        try:  # a pool worker the child left behind
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise BenchmarkError(f"bench.py {' '.join(arguments)} exited {process.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = at_nominal_speed(result["ready_at"] - started, probes + result["ready_probes"])
    return result


def nominal_wall(record: Dict[str, object]) -> float:
    return at_nominal_speed(record["wall"], record["probes"])


def speed_scale(child: Dict[str, object]) -> float:
    """Nominal over measured time across the child's timed calls."""
    records = child["records"]
    return sum(nominal_wall(record) for record in records) / sum(record["wall"] for record in records)


def end_to_end(main: Dict[str, object], setups: List[Dict[str, object]]) -> Dict[str, float]:
    records = [record for record in main["records"] if record["trials"]]
    walls = [nominal_wall(record) for record in records]
    per_trial = [1e3 * wall / record["trials"] for wall, record in zip(walls, records)]
    metrics = {
        "trials_per_s": sum(record["trials"] for record in records) / sum(walls),
        "trial_ms_p50": percentile(per_trial, 50),
        "trial_ms_p90": percentile(per_trial, 90),
        "cell_ms_p50": percentile([1e3 * wall for wall in walls], 50),
        "cell_ms_p90": percentile([1e3 * wall for wall in walls], 90),
        "setup_s": statistics.median(sample["setup_s"] for sample in [*setups, main]),
        "peak_rss_mb": main["peak_rss_mb"],
        "success_rate": sum(record["successes"] for record in records) / sum(record["trials"] for record in records),
    }
    for scheme in SCHEMES:
        # A mean, not a median: at 16x noise a scheme's trial times split
        # into recovered and budget-exhausted modes, and the median jumps
        # between them from one seed set to the next.
        mine = [(wall, record["trials"]) for wall, record in zip(walls, records) if record["group"] == scheme]
        metrics[f"trial_ms_mean.{scheme}"] = 1e3 * sum(wall for wall, _ in mine) / sum(trials for _, trials in mine)
    beyond = samples_beyond(len(records), 90)
    print(
        f"{len(records)} timed calls ({beyond} beyond p90); host ran at {1 / speed_scale(main):.2f}x nominal speed; "
        f"unscaled trials_per_s {sum(r['trials'] for r in records) / sum(r['wall'] for r in records):.4f}"
    )
    if beyond < 10:
        print("warning: fewer than 10 samples beyond p90; raise --seconds", file=sys.stderr)
    return metrics


def per_layer(reference: Dict[str, object], untraced: Dict[str, object], traced: Dict[str, object]) -> Dict[str, float]:
    """Per-trial layer metrics of ``traced``; ``untraced`` ran the same items
    without tracing, ``reference`` on the workload's own backend."""
    layers = traced["layers"]
    trials = sum(record["trials"] for record in traced["records"]) or 1
    self_seconds, calls, obs = layers["self_seconds"], layers["calls"], layers["obs"]
    counters = layers["counters"]
    scale = speed_scale(traced)

    def self_ms(layer: str) -> float:
        return 1e3 * self_seconds.get(layer, 0.0) * scale / trials

    def per_trial(value: float) -> float:
        return value / trials

    metrics = {
        "coding.encode.self_ms": self_ms("coding.encode"),
        "coding.decode.self_ms": self_ms("coding.decode"),
        "coding.decode_errors": per_trial(layers["errors"].get("coding.decode", 0)),
        "randomness_exchange.self_ms": self_ms("randomness_exchange"),
        "randomness_exchange.failures": per_trial(counters.get("randomness_exchange.failures", 0)),
        "hashing.expand.self_ms": self_ms("hashing.expand"),
        "hashing.seeds.self_ms": self_ms("hashing.seeds"),
        "hashing.digest.self_ms": self_ms("hashing.digest"),
        "hashing.seed_bits_requested": per_trial(counters.get("hashing.seed_bits_requested", 0)),
        "hashing.stream_span_bits": per_trial(counters.get("hashing.stream_span_bits", 0)),
        "hashing.expand_useful_ratio": (
            counters.get("hashing.seed_bits_requested", 0) / counters["hashing.stream_span_bits"]
            if counters.get("hashing.stream_span_bits") else 0.0
        ),
        "meeting_points.build.self_ms": self_ms("meeting_points.build"),
        "meeting_points.reply.self_ms": self_ms("meeting_points.reply"),
        "meeting_points.match_ratio": (
            1.0 - obs.get("engine.hash_mismatches", 0) / calls["meeting_points.reply"]
            if calls.get("meeting_points.reply") else 0.0
        ),
        "engine.run.self_ms": self_ms("engine.run"),
        "transport.self_ms": self_ms("transport"),
        "adversary.self_ms": self_ms("adversary"),
        "adversary.calls": per_trial(calls.get("adversary", 0)),
        "baselines.self_ms": self_ms("baselines"),
        "runtime.specs.self_ms": self_ms("runtime.specs"),
        "runtime.fingerprint.self_ms": self_ms("runtime.fingerprint"),
        "runtime.cache.self_ms": self_ms("runtime.cache"),
    }
    for phase in ENGINE_PHASES:
        metrics[f"engine.{phase}.self_ms"] = self_ms(f"engine.{phase}")
    for name in (
        "hashing.seed_derivations", "hashing.packed_builds", "engine.iterations_run", "engine.rounds_total",
        *(f"engine.rounds.{phase}" for phase in ENGINE_PHASES), "engine.rewinds_sent",
        "engine.meeting_point_truncations", "engine.hash_mismatches", "engine.hash_collisions",
        *(f"transport.{counter}" for counter in (
            "transmissions", "windows_exchanged", "packed_dispatches", "sparse_dispatches", "dense_dispatches",
            "idle_rounds_collapsed", "substitutions", "deletions", "insertions",
        )),
        "adversary.corruptions_spent",
    ):
        metrics[name] = per_trial(obs.get(name, 0))
    engine_cells = sum(1 for record in reference["records"] if record["engine"])
    backend_seconds = reference["backend_seconds"] * speed_scale(reference)
    metrics["runtime.backend_ms_per_cell"] = 1e3 * backend_seconds / max(engine_cells, 1)
    metrics["runtime.pool_efficiency"] = (
        untraced["backend_seconds"] * speed_scale(untraced) / (2 * backend_seconds) if untraced is not reference else 0.0
    )
    metrics["trace_overhead"] = (
        sum(map(nominal_wall, traced["records"])) / sum(map(nominal_wall, untraced["records"])) - 1.0
    )
    traced_wall = sum(record["wall"] for record in traced["records"])
    metrics["coverage"] = sum(self_seconds.get(layer, 0.0) for layer in LAYERS) / traced_wall
    return metrics


def provenance(version: str) -> Dict[str, object]:
    """Informative fields for comparing machines; nothing is gated on them."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "repro_version": version,
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_s": min(speed_probe()[0] for _ in range(50)),  # the probe loop, fastest of 50
    }


def run(args: argparse.Namespace) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        reference = run_child(
            ["measure", *common, "--seconds", str(args.seconds / 2), "--backend-timer"], deadline
        )
        same_items = [*common, "--items", str(reference["items"]), "--backend", "serial", "--no-recheck"]
        untraced = reference
        if reference["backend"] != "serial":
            untraced = run_child(["measure", *same_items, "--backend-timer"], deadline)
        traced = run_child(["measure", *same_items, "--trace"], deadline)
        children = [reference, traced] if untraced is reference else [reference, untraced, traced]
        computed = per_layer(reference, untraced, traced)
        declared_metrics = declared["per_layer"]
        missing = traced["layers"]["missing"]
        if missing:
            print(f"entry points not found (their layers read 0): {', '.join(missing)}")
    else:
        setups = [run_child(["setup", *common], deadline) for _ in range(SETUP_SAMPLES)]
        main = run_child(["measure", *common, "--seconds", str(args.seconds)], deadline)
        children = [main]
        computed = end_to_end(main, setups)
        declared_metrics = declared["end_to_end"]

    absent = [metric["name"] for metric in declared_metrics if metric["name"] not in computed]
    if absent:
        raise BenchmarkError(f"BENCHMARK.json declares metrics this run does not compute: {absent}")
    attempted = sum(len(child["records"]) for child in children)
    failed = sum(child["failed"] for child in children)
    problems = [problem for child in children for problem in child["problems"] + child["recheck_problems"]]
    correct = failed == 0 and not problems
    pinned = children[0]["pinned"]
    print("provenance: " + json.dumps(provenance(children[0]["version"])))
    print(
        f"{args.workload} seed {args.seed}: {children[0]['items']} items, "
        + (f"{children[0]['pinned_checked']} checked against pins" if pinned else "unpinned seed")
        + f", {failed} failed of {attempted}"
    )
    for problem in problems[:10]:
        print(f"problem: {problem}")
    metrics = {
        metric["name"]: {"value": computed[metric["name"]], "unit": metric["unit"]} for metric in declared_metrics
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
