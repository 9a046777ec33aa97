"""repro.runtime — parallel trial execution, result caching, run persistence.

The runtime is the layer between the experiment harnesses (which decide
*what* to measure) and the simulator core (which measures it).  It provides:

* :class:`~repro.runtime.backends.ExecutionBackend` with
  :class:`~repro.runtime.backends.SerialBackend` and
  :class:`~repro.runtime.backends.ProcessPoolBackend` (bit-identical results
  on one core or many — see README.md in this directory);
* :class:`~repro.runtime.spec.TrialSpec` /
  :func:`~repro.runtime.spec.fingerprint_trial` — trial keys hashed from
  what determines a trial's result;
* :class:`~repro.runtime.cache.ResultCache` — skip already-computed trials,
  optionally persisted to disk;
* :class:`~repro.runtime.store.RunStore` — a queryable on-disk history of
  every run;
* :func:`~repro.runtime.analytics.diff_runs` — cross-run comparison over a
  store;
* :func:`~repro.runtime.context.use_runtime` — ambient configuration so deep
  call stacks (CLI → experiment → harness) share one backend/cache/store.

Typical use::

    from repro.runtime import ProcessPoolBackend, ResultCache, use_runtime

    with use_runtime(backend=ProcessPoolBackend(max_workers=4),
                     cache=ResultCache(".repro-cache")):
        rows = build_table1()          # trials fan out, repeats are cached
"""

from repro.runtime.analytics import (
    CellDelta,
    RegressionThresholds,
    RunDiff,
    diff_runs,
)
from repro.runtime.backends import ExecutionBackend, ProcessPoolBackend, SerialBackend, execute_trial
from repro.runtime.cache import CACHE_SCHEMA_VERSION, CacheStats, ResultCache
from repro.runtime.context import RuntimeContext, get_runtime, use_runtime
from repro.runtime.executor import execute_trials
from repro.runtime.spec import (
    REALISATION,
    TRIAL_KEY_SCHEMA,
    TrialSpec,
    build_trial_specs,
    derive_trial_seed,
    fingerprint_trial,
)
from repro.runtime.store import STORE_SCHEMA_VERSION, RunStore, StoredRun

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "execute_trial",
    "execute_trials",
    "TrialSpec",
    "TRIAL_KEY_SCHEMA",
    "REALISATION",
    "build_trial_specs",
    "derive_trial_seed",
    "fingerprint_trial",
    "ResultCache",
    "CacheStats",
    "CACHE_SCHEMA_VERSION",
    "RunStore",
    "StoredRun",
    "STORE_SCHEMA_VERSION",
    "CellDelta",
    "RunDiff",
    "RegressionThresholds",
    "diff_runs",
    "RuntimeContext",
    "get_runtime",
    "use_runtime",
]
