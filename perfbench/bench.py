"""One measured run of a benchmark workload, in a fresh interpreter.

``run.py`` starts this module once per sample, so every measured run begins
with cold process-wide caches (the delta-biased stream cache, the payload
memo, the result cache).  It prints one JSON object as its last stdout line.

    python3 perfbench/bench.py setup   --workload sweep_nominal --seed 0
    python3 perfbench/bench.py measure --workload sweep_storm --seed 3 --seconds 20
    python3 perfbench/bench.py measure --workload table1_pool2 --seed 0 --items 12 --backend serial --trace
    python3 perfbench/bench.py pin     --workload sweep_nominal --count 800

``setup`` stops after set-up (imports, workload and scheme construction, pool
start-up, warm-up on disjoint seeds); ``measure`` then runs items until
``--seconds`` have passed or ``--items`` are done, checks every result and
reports per-item wall times; ``pin`` regenerates ``pins/<workload>.json`` for
the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import resource
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from itertools import count
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import speed_probe  # noqa: E402
from repro import __version__  # noqa: E402
from repro.core.parameters import crs_oblivious_scheme, scheme_by_name  # noqa: E402
from repro.experiments import table1  # noqa: E402
from repro.experiments.factories import RandomNoiseFactory  # noqa: E402
from repro.experiments.harness import run_trials  # noqa: E402
from repro.experiments.workloads import gossip_workload  # noqa: E402
from repro.runtime import (  # noqa: E402
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    derive_trial_seed,
    use_runtime,
)

#: The seed whose results are pinned in ``pins/``.
DEFAULT_SEED = 0
PINS = HERE / "pins"
POOL_WORKERS = 2
#: Warm-up seeds come from ``derive_trial_seed(seed + WARMUP_OFFSET, k)``:
#: congruent to ``seed + 517`` mod 1000, never to the measured ``seed + 17``.
WARMUP_OFFSET = 500
#: Items re-executed on another backend after the measured phase.
RECHECK_ITEMS = 8
SWEEP_SCHEMES = ("algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c")
ROW_FIELDS = ("scheme", "topology", "rate", "success_rate", "mean_overhead")
#: What each timed call reports to ``run.py``.
REPORTED_FIELDS = ("group", "engine", "wall", "probes", "trials", "successes")


class SeedReuseError(RuntimeError):
    """A measured seed was already run in this process."""


class SeedGuard:
    """Keeps measured seeds cold: each is run once, never after a warm-up.

    A repeated seed finds its delta-biased streams in the process-wide
    ``small_bias._STREAM_STATES`` cache and runs 2-3x faster, which is not
    what a sweep over distinct seeds pays.
    """

    def __init__(self) -> None:
        self.warmup: Set[int] = set()
        self.measured: Set[int] = set()

    def claim_warmup(self, seeds: List[int]) -> None:
        reused = self.measured.intersection(seeds)
        if reused:
            raise SeedReuseError(f"warm-up seeds {sorted(reused)} were measured")
        self.warmup.update(seeds)

    def claim_measured(self, seeds: List[int]) -> None:
        reused = (self.measured | self.warmup).intersection(seeds)
        if reused or len(set(seeds)) != len(seeds):
            raise SeedReuseError(f"measured seeds {sorted(reused) or seeds} already ran in this process")
        self.measured.update(seeds)


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def timed(call: Callable[[], object], every_cpu: bool = False) -> Tuple[object, float, List[float]]:
    """``(result, wall seconds, speed probe readings just before and after)``."""
    before = speed_probe(every_cpu)
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    return result, wall, before + speed_probe(every_cpu)


def scheme_label(name: str) -> str:
    return "crs" if name == "algorithm_crs" else name


def run_metrics_problems(metrics, scheme: str) -> List[str]:
    """Invariants every RunMetrics satisfies, whatever the seed."""
    problems = []
    if metrics.scheme != scheme:
        problems.append(f"scheme {metrics.scheme!r} != {scheme!r}")
    if not 1 <= metrics.iterations_run <= metrics.iterations_budget:
        problems.append(f"iterations {metrics.iterations_run}/{metrics.iterations_budget}")
    if metrics.corruptions != sum(metrics.corruptions_by_phase.values()):
        problems.append("corruptions differ from their per-phase sum")
    if metrics.simulation_communication != sum(metrics.communication_by_phase.values()):
        problems.append("communication differs from its per-phase sum")
    if metrics.protocol_communication <= 0 or not isinstance(metrics.success, bool):
        problems.append("malformed result")
    return problems


class Sweep:
    """One noise-sweep cell: parity gossip on an 8-clique, 6 phases, the four
    schemes in turn at ``multiplier`` x each scheme's nominal noise fraction.
    Item ``i`` is one ``run_trials`` call on seed ``derive_trial_seed(seed, i)``."""

    group = 4  # items per round: one trial of each scheme
    primary_backend = "serial"

    def __init__(self, multiplier: float) -> None:
        self.multiplier = multiplier

    def build(self, seed: int, backend_kind: str) -> None:
        # The gossip inputs stay fixed: some input sets make the parity
        # outputs survive storm noise far more often, which would turn the
        # success rate into a property of the seed's inputs.
        self.workload = gossip_workload(topology="clique", num_nodes=8, phases=6)
        self.schemes = [scheme_by_name(name) for name in SWEEP_SCHEMES]
        self.factories = [
            RandomNoiseFactory(scheme.nominal_noise_fraction(self.workload.graph) * self.multiplier)
            for scheme in self.schemes
        ]
        self.backend = SerialBackend() if backend_kind == "serial" else ProcessPoolBackend(POOL_WORKERS)

    def seeds(self, base: int, index: int) -> List[int]:
        return [derive_trial_seed(base, index)]

    def run(self, base: int, index: int) -> List[Dict[str, object]]:
        scheme = self.schemes[index % len(self.schemes)]
        factory = self.factories[index % len(self.factories)]
        trial_set, wall, probes = timed(
            lambda: run_trials(self.workload, scheme, adversary_factory=factory, seeds=self.seeds(base, index))
        )
        metrics = trial_set.runs[0]
        return [
            {
                "slot": index,
                "group": scheme_label(scheme.name),
                "engine": True,
                "wall": wall,
                "probes": probes,
                "trials": 1,
                "successes": int(metrics.success),
                "pin": digest(metrics.to_payload()),
                "problems": run_metrics_problems(metrics, scheme.name),
            }
        ]

    def digests(self, base: int, indices: List[int], backend) -> Dict[int, str]:
        """Result digests of the given items, run on ``backend`` without a cache."""
        digests = {}
        for offset, (scheme, factory) in enumerate(zip(self.schemes, self.factories)):
            mine = [index for index in indices if index % len(self.schemes) == offset]
            if mine:
                trial_set = run_trials(
                    self.workload, scheme, adversary_factory=factory,
                    seeds=[seed for index in mine for seed in self.seeds(base, index)], backend=backend, cache=None,
                )
                digests.update((index, digest(metrics.to_payload())) for index, metrics in zip(mine, trial_set.runs))
        return digests

    def recheck(self, base: int, records: List[Dict[str, object]]) -> List[str]:
        """Re-run the first items in fresh pool workers; results must match."""
        with ProcessPoolBackend(POOL_WORKERS) as pool:
            digests = self.digests(base, list(range(min(RECHECK_ITEMS, len(records)))), pool)
        return [
            f"item {index}: pool result differs from the measured one"
            for index, value in digests.items()
            if value != records[index]["pin"]
        ]


class Table1:
    """``build_table1`` with its defaults (line, star and clique with 5 nodes
    and 12 phases; Algorithms A, B, C, uncoded and repetition(3)) plus the
    CRS scheme's row under Algorithm A's noise, one timed ``measure_cell``
    call per cell, trials fanned out over a 2-worker process pool.
    Item ``j`` is one whole table on base seed ``derive_trial_seed(seed, 2j)``
    (spaced so no trial seed of one table repeats in another)."""

    group = 1
    primary_backend = "pool"

    def build(self, seed: int, backend_kind: str) -> None:
        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(table1.build_table1).parameters.items()
        }
        self.topologies = defaults["topologies"]
        self.num_nodes = defaults["num_nodes"]
        self.phases = defaults["phases"]
        self.epsilon = defaults["epsilon"]
        self.trials = defaults["trials"]
        cells = table1.default_cells(self.epsilon)
        oblivious = cells[0]  # Algorithm A: the oblivious-noise cell the CRS scheme shares
        self.cells = cells + [
            table1.Table1Cell(
                "Algorithm 1 (CRS)", crs_oblivious_scheme(), oblivious.noise_type,
                oblivious.nominal_noise, oblivious.adversary_factory,
            )
        ]
        self.backend = SerialBackend() if backend_kind == "serial" else ProcessPoolBackend(POOL_WORKERS)

    def seeds(self, base: int, index: int) -> List[int]:
        table_seed = derive_trial_seed(base, 2 * index)
        return [derive_trial_seed(table_seed, trial) for trial in range(self.trials)]

    def run(self, base: int, index: int) -> List[Dict[str, object]]:
        table_seed = derive_trial_seed(base, 2 * index)
        records = []
        for topology in self.topologies:
            workload = gossip_workload(topology=topology, num_nodes=self.num_nodes, phases=self.phases, seed=table_seed)
            for cell in self.cells:
                slot = index * len(self.topologies) * len(self.cells) + len(records)
                row, wall, probes = timed(
                    lambda: table1.measure_cell(
                        cell, workload, topology_label=topology, epsilon=self.epsilon,
                        trials=self.trials, base_seed=table_seed,
                    ),
                    every_cpu=True,
                )
                problems = []
                if row["scheme"] != cell.scheme_label or not 0.0 <= row["success_rate"] <= 1.0 or row["rate"] <= 0:
                    problems.append(f"malformed row {row}")
                records.append(
                    {
                        "slot": slot,
                        "group": scheme_label(cell.scheme.name) if cell.scheme is not None else "baselines",
                        "engine": cell.scheme is not None,
                        "wall": wall,
                        "probes": probes,
                        "trials": self.trials,
                        "successes": round(row["success_rate"] * self.trials),
                        "pin": [row[field] for field in ROW_FIELDS],
                        "problems": problems,
                    }
                )
        return records

    def recheck(self, base: int, records: List[Dict[str, object]]) -> List[str]:
        """Re-run the first table serially without a cache; rows must match."""
        with use_runtime(backend=SerialBackend(), cache=None):
            again = self.run(base, 0)
        return [
            f"cell {index}: serial row {fresh['pin']} differs from pool row {measured['pin']}"
            for index, (fresh, measured) in enumerate(zip(again, records))
            if fresh["pin"] != measured["pin"]
        ]


WORKLOADS = {
    "sweep_nominal": lambda: Sweep(1.0),
    "sweep_storm": lambda: Sweep(16.0),
    "table1_pool2": Table1,
}


def load_pins(name: str) -> List[object]:
    path = PINS / f"{name}.json"
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if data.get("seed") != DEFAULT_SEED:
        return []
    return data["items"]


def check_pins(records: List[Dict[str, object]], pins: List[object]) -> int:
    """Flag each record whose result differs from its pin; returns how many
    records had one."""
    checked = 0
    for record in records:
        slot = record.get("slot")
        if slot is None or slot >= len(pins):
            continue
        checked += 1
        if record["pin"] != pins[slot]:
            record["problems"].append(f"result {slot} differs from its pin: {record['pin']} != {pins[slot]}")
    return checked


def peak_rss_mb(backend) -> float:
    """Peak RSS of this process plus the live pool workers, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    executor = getattr(backend, "_executor", None)
    for pid in getattr(executor, "_processes", None) or {}:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def items(limit: Optional[int], deadline: float, group: int) -> Iterator[int]:
    """Item indices until ``limit`` items are done or the deadline passes at
    the end of a round (so every scheme of a sweep gets equal counts)."""
    for index in count():
        if limit is not None and index >= limit:
            return
        if limit is None and index % group == 0 and index and time.perf_counter() >= deadline:
            return
        yield index


def measure(args: argparse.Namespace) -> Dict[str, object]:
    workload = WORKLOADS[args.workload]()
    backend_kind = args.backend or workload.primary_backend
    guard = SeedGuard()
    workload.build(args.seed, backend_kind)
    with ExitStack() as stack:
        if isinstance(workload.backend, ProcessPoolBackend):
            stack.enter_context(workload.backend)
        stack.enter_context(use_runtime(backend=workload.backend, cache=ResultCache()))
        warm_base = args.seed + WARMUP_OFFSET
        for index in range(workload.group):
            guard.claim_warmup(workload.seeds(warm_base, index))
            workload.run(warm_base, index)
        ready_at = time.monotonic()
        result: Dict[str, object] = {
            "version": __version__, "backend": backend_kind, "ready_at": ready_at,
            "ready_probes": speed_probe(every_cpu=True),
        }
        if args.mode == "setup":
            return result

        traced_run = None
        if args.trace:
            import layers  # imported here: untraced runs never load it

            traced_run = stack.enter_context(layers.traced())
        backend_seconds = [0.0]
        if args.backend_timer:
            stack.enter_context(timed_backend(workload.backend, backend_seconds))

        records: List[Dict[str, object]] = []
        errors: List[str] = []
        for index in items(args.items, time.perf_counter() + args.seconds, workload.group):
            try:
                guard.claim_measured(workload.seeds(args.seed, index))
                produced = workload.run(args.seed, index)
            except SeedReuseError:
                raise
            except Exception:  # noqa: BLE001 - a raising item is counted, not fatal
                errors.append(f"item {index}: {traceback.format_exc(limit=3)}")
                produced = [{"group": "error", "engine": False, "wall": 0.0, "probes": [0.0], "trials": 0,
                             "successes": 0, "pin": None, "problems": ["raised"]}]
            for record in produced:
                record["item"] = index
            records.extend(produced)
        rss = peak_rss_mb(workload.backend)
        if traced_run is not None:
            result["layers"] = traced_run.report()

    pins = load_pins(args.workload) if args.seed == DEFAULT_SEED else []
    pinned_checked = check_pins(records, pins)
    recheck = [] if args.no_recheck or not records else workload.recheck(args.seed, records)
    result.update(
        items=len({record["item"] for record in records}),
        records=[{key: record[key] for key in REPORTED_FIELDS} for record in records],
        failed=sum(1 for record in records if record["problems"]),
        problems=[problem for record in records for problem in record["problems"]][:20] + errors[:5],
        recheck_problems=recheck,
        pinned=bool(pins),
        pinned_checked=pinned_checked,
        backend_seconds=backend_seconds[0],
        peak_rss_mb=rss,
    )
    return result


@contextmanager
def timed_backend(backend, total: List[float]) -> Iterator[None]:
    """Adds the parent's wall time inside ``backend.run`` to ``total[0]``."""
    original = backend.run

    def run(specs):
        started = time.perf_counter()
        try:
            return original(specs)
        finally:
            total[0] += time.perf_counter() - started

    backend.run = run
    try:
        yield
    finally:
        del backend.run


def pin(args: argparse.Namespace) -> None:
    """Write the default seed's results for ``--count`` items to ``pins/``."""
    workload = WORKLOADS[args.workload]()
    workload.build(DEFAULT_SEED, "pool")
    with workload.backend, use_runtime(backend=workload.backend, cache=None):
        if isinstance(workload, Sweep):
            digests = workload.digests(DEFAULT_SEED, list(range(args.count)), workload.backend)
            items_out = [digests[index] for index in range(args.count)]
        else:
            items_out = [record["pin"] for index in range(args.count) for record in workload.run(DEFAULT_SEED, index)]
    path = PINS / f"{args.workload}.json"
    header = json.dumps({"seed": DEFAULT_SEED, "version": __version__})[:-1]
    path.write_text(header + ', "items": [\n' + ",\n".join(json.dumps(item) for item in items_out) + "\n]}\n")
    print(f"wrote {len(items_out)} pinned results to {path}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "pin"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--items", type=int, help="run exactly this many items instead of --seconds")
    parser.add_argument("--backend", choices=("serial", "pool"), help="default: the workload's own")
    parser.add_argument("--trace", action="store_true", help="time each layer (see layers.py)")
    parser.add_argument("--backend-timer", action="store_true", help="time the parent inside backend.run")
    parser.add_argument("--no-recheck", action="store_true", help="skip the cross-backend re-execution")
    parser.add_argument("--count", type=int, default=0, help="items to pin (pin mode)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.mode == "pin":
        pin(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
