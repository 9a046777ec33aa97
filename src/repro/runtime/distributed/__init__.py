"""repro.runtime.distributed — multi-host trial execution.

A stdlib-only coordinator/worker pair (sockets + length-prefixed JSON
frames; see :mod:`~repro.runtime.distributed.wire`):

* :class:`~repro.runtime.distributed.worker.WorkerServer` — the daemon
  behind ``repro worker serve``; answers ``hello``, ``ping`` and
  ``execute``, and heartbeats while a chunk runs;
* :class:`~repro.runtime.distributed.coordinator.DistributedBackend` — an
  :class:`~repro.runtime.backends.ExecutionBackend` that hands out chunks
  from one shared queue and re-dispatches a dead worker's chunk to a
  survivor.

Workers cache nothing: the coordinator's result cache decides which trials
reach the backend at all.

Results are bit-identical to :class:`~repro.runtime.backends.SerialBackend`
(specs carry fully-derived seeds; the handshake refuses version-mismatched
workers).  See ``docs/architecture.md`` and ``src/repro/runtime/README.md``
for the wire format and failure semantics.
"""

from repro.runtime.distributed.coordinator import (
    DistributedBackend,
    TrialExecutionError,
    parse_worker_address,
)
from repro.runtime.distributed.wire import PROTOCOL_VERSION, WireError
from repro.runtime.distributed.worker import WorkerServer

__all__ = [
    "DistributedBackend",
    "WorkerServer",
    "TrialExecutionError",
    "WireError",
    "PROTOCOL_VERSION",
    "parse_worker_address",
]
