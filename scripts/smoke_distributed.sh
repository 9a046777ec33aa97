#!/usr/bin/env bash
# End-to-end smoke test of the distributed runtime, with real processes:
#
#   1. start two `repro worker serve` daemons on OS-assigned localhost ports
#      (workers cache nothing);
#   2. run a small observed (`--obs`) noise sweep on them (`--workers`)
#      with a run store and a coordinator cache directory, then
#      the identical sweep serially into a second store;
#   3. assert the distributed run's trial-set records carry the same
#      per-trial metrics (the result fingerprints) and the same engine,
#      transport, hashing and adversary counters as the serial run's, and
#      that worker attribution was recorded;
#   4. re-run the distributed sweep against the same coordinator cache and
#      assert it was served from that cache without dispatching a trial;
#   5. re-run it with `--no-cache` and assert every trial was executed again.
#
# Exits non-zero on any mismatch.  The tier-1 suite runs it as
# `tests/test_distributed.py::TestSmokeScript` (marker `smoke`), or run it
# directly: bash scripts/smoke_distributed.sh

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
WORKER_PIDS=()

cleanup() {
    for pid in "${WORKER_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# $1 = name; sets PORT.  Runs in this shell (never inside "$(...)"), so the
# worker's pid lands in WORKER_PIDS and cleanup stops it.
start_worker() {
    local log="$WORK/$1.log"
    python -m repro worker serve --host 127.0.0.1 --port 0 \
        --worker-id "$1" > "$log" 2>&1 &
    WORKER_PIDS+=($!)
    for _ in $(seq 1 50); do
        if grep -q "listening on" "$log" 2>/dev/null; then
            PORT="$(sed -n 's/.*listening on [^:]*:\([0-9]*\)$/\1/p' "$log")"
            return 0
        fi
        sleep 0.1
    done
    echo "worker $1 did not come up; log:" >&2
    cat "$log" >&2
    return 1
}

echo "== starting two localhost workers"
start_worker worker-a
PORT_A="$PORT"
start_worker worker-b
PORT_B="$PORT"
WORKERS="127.0.0.1:$PORT_A,127.0.0.1:$PORT_B"
echo "   workers: $WORKERS"

SWEEP_ARGS=(noise-sweep --topology line --nodes 4 --phases 4
            --multipliers 0.5 4.0 --trials 2 --seed 11)
DIST_ARGS=(--workers "$WORKERS")

echo "== distributed sweep"
python -m repro "${SWEEP_ARGS[@]}" "${DIST_ARGS[@]}" --cache-dir "$WORK/coord-cache" \
    --store-dir "$WORK/dist-store" --obs > "$WORK/dist.out"

echo "== serial sweep"
python -m repro "${SWEEP_ARGS[@]}" --no-cache --store-dir "$WORK/serial-store" --obs > "$WORK/serial.out"

echo "== comparing run-record fingerprints, counters and attribution"
python - "$WORK/dist-store" "$WORK/serial-store" <<'PY'
import sys
from repro.runtime import RunStore

dist_store, serial_store = RunStore(sys.argv[1]), RunStore(sys.argv[2])

def trial_sets(store):
    rows = store.query(kind="trial_set")
    assert rows, f"no trial_set records in {store.root}"
    return {row["label"]: store.load(row["run_id"]) for row in rows}

dist, serial = trial_sets(dist_store), trial_sets(serial_store)
assert set(dist) == set(serial), f"cell labels differ: {set(dist) ^ set(serial)}"
for label in sorted(dist):
    assert dist[label]["runs"] == serial[label]["runs"], \
        f"per-trial metrics differ for cell {label!r}"
    assert dist[label]["aggregate"] == serial[label]["aggregate"], \
        f"aggregate differs for cell {label!r}"
    counters = [
        {name: value for name, value in (record.get("obs_metrics") or {}).items()
         if name.startswith(("engine.", "transport.", "hashing.", "adversary."))}
        for record in (dist[label], serial[label])
    ]
    assert counters[1], f"serial cell {label!r} recorded no engine counters"
    assert counters[0] == counters[1], f"engine counters differ for cell {label!r}"
    workers = dist[label].get("workers", {})
    assert workers.get("backend") == "distributed", \
        f"missing distributed attribution for cell {label!r}"
print(f"   {len(dist)} cell(s) bit-identical with equal counters, attribution recorded")
PY

# $1 = store dir, $2 = "cached" (every trial served by the coordinator
# cache, none dispatched) or "executed" (every trial dispatched and run).
# Either way each cell's per-trial metrics must equal the first run's.
check_rerun() {
    python - "$1" "$2" "$WORK/dist-store" <<'PY'
import sys
from repro.runtime import RunStore

store, expect, first = RunStore(sys.argv[1]), sys.argv[2], RunStore(sys.argv[3])
first_runs = {row["label"]: first.load(row["run_id"])["runs"] for row in first.query(kind="trial_set")}
rows = store.query(kind="trial_set")
assert rows, f"no trial_set records in {store.root}"
for row in rows:
    payload = store.load(row["run_id"])
    trials, label = len(payload["runs"]), payload["label"]
    assert payload["runs"] == first_runs[label], f"per-trial metrics differ for cell {label!r}"
    attribution = payload.get("workers", {})
    executed = sum(
        stats.get("trials_executed", 0)
        for stats in attribution.get("workers", {}).values()
    )
    cached = payload.get("cached_trials")
    if expect == "cached":
        assert executed == 0 and cached == trials, \
            f"cell {label!r}: {executed} executed, {cached} cached of {trials}; expected all cached"
    else:
        assert executed == trials and cached == 0, \
            f"cell {label!r}: {executed} executed, {cached} cached of {trials}; expected all executed"
print(f"   {len(rows)} cell(s): every trial {expect}")
PY
}

echo "== coordinator-cache re-run (expect zero dispatched trials)"
python -m repro "${SWEEP_ARGS[@]}" "${DIST_ARGS[@]}" --cache-dir "$WORK/coord-cache" \
    --store-dir "$WORK/cached-store" > "$WORK/cached.out"
check_rerun "$WORK/cached-store" cached

echo "== --no-cache re-run (expect every trial executed)"
python -m repro "${SWEEP_ARGS[@]}" "${DIST_ARGS[@]}" --no-cache \
    --store-dir "$WORK/uncached-store" > "$WORK/uncached.out"
check_rerun "$WORK/uncached-store" executed

echo "smoke_distributed: OK"
