"""The coordinator: :class:`DistributedBackend` fans trials out to workers.

``run(specs)`` receives only the trials the coordinator's result cache
(:mod:`repro.runtime.cache`) could not serve — ``execute_trials`` consults
it first, under the same ``cache=`` rule as every backend — so every spec
it is handed is dispatched.  The trials are split into contiguous chunks
(roughly four per worker, same policy as the process pool) and put in one
FIFO queue.  Each worker is driven by one coordinator thread that takes the
next chunk from that queue whenever its worker is free — so a fast worker
simply runs more chunks than a slow one.  While a chunk runs, the worker
heartbeats; if no frame arrives within ``heartbeat_timeout`` (or the
connection drops), the worker is declared dead and its in-flight chunk goes
back to the front of the queue, to be **re-dispatched** to a survivor.  A
chunk's results are only ever accepted once, so a crash can never duplicate
a seed.

Determinism: specs carry fully-derived seeds and workers run the same
:func:`~repro.runtime.backends.execute_trial` as every local backend, so the
returned metrics are bit-identical to :class:`~repro.runtime.backends.SerialBackend`
regardless of which worker ran what, in what order, or how many died on the
way.  The hello handshake refuses workers running a different ``repro``
version, closing the one hole in that guarantee.

Attribution: after each ``run`` the backend exposes a per-worker summary
(chunks dispatched / re-dispatched, trials executed)
via :meth:`DistributedBackend.pop_last_attribution`; ``run_trials`` records
it into the run store so ``repro runs show`` answers "who computed this?".
"""

from __future__ import annotations

import math
import socket
import threading
import time
import warnings
from collections import deque
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.obs import MetricsRegistry, ObsContext, get_logger, get_obs
from repro.runtime.backends import ExecutionBackend, adopt_chunk, chunk_request
from repro.runtime.distributed.wire import (
    PROTOCOL_VERSION,
    WireError,
    encode_specs,
    recv_frame,
    send_frame,
)
from repro.runtime.spec import TrialSpec

#: A chunk: (chunk_id, [(index into the run's spec list, spec), ...]).
_Chunk = Tuple[int, List[Tuple[int, TrialSpec]]]

_log = get_logger("distributed")

#: Seconds to wait for a worker to accept a TCP connection.
CONNECT_TIMEOUT = 5.0


def parse_worker_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``ValueError`` when malformed."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"worker address {address!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"worker address {address!r} has a non-numeric port")
    if not (0 < port < 65536):
        raise ValueError(f"worker address {address!r} has an out-of-range port")
    return host, port


class _WorkerLink:
    """One coordinator-side connection to one worker."""

    def __init__(self, address: str, heartbeat_timeout: float) -> None:
        self.address = address
        host, port = parse_worker_address(address)
        self.sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)
        self.sock.settimeout(heartbeat_timeout)
        send_frame(self.sock, {"type": "hello"})
        hello = recv_frame(self.sock)
        # A worker configured with a slow pulse (--heartbeat-interval 15)
        # must not be declared dead by a coordinator expecting the default:
        # stretch the read deadline to at least three missed beats.
        try:
            announced = float(hello.get("heartbeat_interval") or 0.0)
        except (TypeError, ValueError):
            announced = 0.0
        if announced > 0:
            self.sock.settimeout(max(heartbeat_timeout, announced * 3))
        if hello.get("type") != "hello":
            raise WireError(f"worker {address} answered the handshake with {hello.get('type')!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            raise WireError(
                f"worker {address} speaks protocol {hello.get('protocol')!r}, "
                f"this coordinator speaks {PROTOCOL_VERSION}"
            )
        from repro import __version__

        if hello.get("version") != __version__:
            raise WireError(
                f"worker {address} runs repro {hello.get('version')!r}, coordinator runs "
                f"{__version__!r} — mixed versions cannot guarantee bit-identical results"
            )
        self.worker_id = str(hello.get("worker_id") or address)

    def ping(self) -> None:
        """One liveness round-trip; raises when the link is no longer usable."""
        send_frame(self.sock, {"type": "ping"})
        if recv_frame(self.sock).get("type") != "pong":
            raise WireError(f"worker {self.address} answered a ping with something else")

    def execute(
        self,
        chunk_id: int,
        specs: Sequence[TrialSpec],
        obs: Dict[str, Any],
        registry: Optional[MetricsRegistry] = None,
    ) -> Tuple[List[RunMetrics], Dict[str, Any]]:
        """Run one chunk remotely; heartbeat frames reset the read timeout.

        ``obs`` is the :func:`~repro.runtime.backends.chunk_request` the
        worker runs the chunk under; the result frame's ``obs`` dict (its
        counters, spans and dumps) is returned with the metrics for the
        caller to adopt — only ever from the one accepted result, so a chunk
        re-dispatched after a worker death never duplicates a trial's dump.
        ``registry`` receives the observed inter-frame gap as the
        ``distributed.heartbeat_seconds`` histogram — the live measure of how
        close a worker runs to its declared pulse (and how near the timeout
        the cluster is operating).
        """
        try:
            encoded = encode_specs(specs)
        except Exception as exc:
            # Unpicklable spec (lambda/closure workload or factory): a
            # deterministic caller error, not a worker failure — same
            # contract ProcessPoolBackend imposes, said out loud.
            raise TrialExecutionError(
                "trial specs must be picklable to cross the wire (module-level "
                f"functions or dataclasses, never lambdas/closures): {exc}"
            ) from exc
        send_frame(self.sock, {"type": "execute", "chunk_id": chunk_id, "specs": encoded, "obs": obs})
        previous_frame = time.monotonic()
        while True:
            frame = recv_frame(self.sock)  # socket timeout = heartbeat_timeout
            if registry is not None:
                now = time.monotonic()
                registry.observe("distributed.heartbeat_seconds", now - previous_frame)
                previous_frame = now
            kind = frame.get("type")
            if kind == "heartbeat":
                continue
            if kind == "result":
                payloads = frame.get("metrics", [])
                if frame.get("chunk_id") != chunk_id or len(payloads) != len(specs):
                    raise WireError(f"worker {self.address} returned a mismatched result frame")
                return [RunMetrics.from_payload(payload) for payload in payloads], frame.get("obs") or {}
            if kind == "error":
                raise TrialExecutionError(
                    f"worker {self.worker_id} ({self.address}) failed a trial: {frame.get('message')}"
                )
            raise WireError(f"worker {self.address} sent unexpected frame {kind!r} during execute")

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class TrialExecutionError(RuntimeError):
    """A trial itself raised on a worker — deterministic, so never re-dispatched."""


class _ChunkQueue:
    """The one FIFO of chunks every drive thread pulls from, with
    re-dispatch and completion tracking.

    The subtlety is liveness: a survivor that finds the queue empty must not
    exit while another worker still has a chunk in flight — that chunk comes
    back via :meth:`done` if its worker dies.  :meth:`take` therefore blocks
    on a condition variable until there is either work to hand out or
    provably none left (nothing queued, nothing in flight)."""

    def __init__(self, chunks: Sequence[_Chunk]) -> None:
        self._condition = threading.Condition()
        self._chunks: deque = deque((chunk, False) for chunk in chunks)
        self._in_flight = 0
        self._aborted = False

    def take(self) -> Optional[Tuple[_Chunk, bool]]:
        """The next chunk and whether it is a re-dispatch; blocks while work
        might still come back from a dying worker; None when the run is
        drained or aborted."""
        with self._condition:
            while True:
                if self._aborted:
                    return None
                if self._chunks:
                    self._in_flight += 1
                    return self._chunks.popleft()
                if self._in_flight == 0:
                    return None
                self._condition.wait()

    def done(self, requeue: Optional[_Chunk] = None) -> None:
        """A taken chunk finished, or its worker died and ``requeue`` goes
        back to the front of the queue."""
        with self._condition:
            self._in_flight -= 1
            if requeue is not None:
                self._chunks.appendleft((requeue, True))
            self._condition.notify_all()

    def abort(self) -> None:
        """Stop handing out work (a trial failed deterministically)."""
        with self._condition:
            self._aborted = True
            self._condition.notify_all()

    def outstanding(self) -> int:
        with self._condition:
            return len(self._chunks)


class DistributedBackend(ExecutionBackend):
    """Execute trials on remote workers from one shared chunk queue, with
    re-dispatch.

    ``workers`` is a list of ``host:port`` strings (one per
    ``repro worker serve`` daemon).  ``chunk_size=None`` targets roughly four
    chunks per worker.  ``heartbeat_timeout`` must comfortably exceed the
    workers' heartbeat interval (default 1 s); it bounds how long a dead
    worker can stall the run.  Every spec passed to :meth:`run` is executed:
    skipping known trials is the coordinator-side cache's job
    (``run_trials(..., cache=...)``), exactly as for the local backends.

    Worker connections are dialled lazily and **reused across ``run()``
    calls** — an experiment grid calls ``run_trials`` once per cell, and
    paying TCP + handshake per cell would eat the speedup (the process
    pool's reused-executor rationale, across hosts).  Each run revalidates
    kept links with a ping and redials the ones that fail it.  Call
    :meth:`close` (or use the backend as a context manager) to drop the
    connections early; otherwise they die with the process.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Sequence[str],
        chunk_size: Optional[int] = None,
        heartbeat_timeout: float = 10.0,
    ) -> None:
        super().__init__()
        # Deduplicate while preserving order: the same address twice is the
        # same worker, and two driver threads must never share one socket.
        addresses = list(dict.fromkeys(address.strip() for address in workers if address.strip()))
        if not addresses:
            raise ValueError("DistributedBackend needs at least one worker address")
        for address in addresses:
            parse_worker_address(address)  # fail fast on malformed flags
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        self.workers = addresses
        self.chunk_size = chunk_size
        self.heartbeat_timeout = heartbeat_timeout
        self._last_attribution: Optional[Dict[str, object]] = None
        self._connect_failures: List[str] = []
        #: Worker links kept open across run() calls — an experiment grid
        #: calls run_trials once per cell, and paying TCP + handshake per
        #: cell would eat the speedup (same rationale as the process pool's
        #: reused executor).  Revalidated with a ping and reconnected as
        #: needed at the start of every run.
        self._links: Dict[str, _WorkerLink] = {}

    # -- attribution ---------------------------------------------------------

    def pop_last_attribution(self) -> Optional[Dict[str, object]]:
        """The per-worker summary of the most recent ``run`` (then cleared, so
        a caller can never attribute one cell's work to another)."""
        attribution, self._last_attribution = self._last_attribution, None
        return attribution

    # -- execution -----------------------------------------------------------

    def _connect(self) -> List[_WorkerLink]:
        """Live links to every reachable worker: existing links revalidated
        with a ping (a restarted or dead worker fails it and is reconnected
        from scratch), missing ones dialled fresh."""
        links: List[_WorkerLink] = []
        failures: List[str] = []
        for address in self.workers:
            link = self._links.pop(address, None)
            if link is not None:
                try:
                    link.ping()
                except (OSError, ConnectionError, WireError):
                    link.close()
                    link = None
            if link is None:
                try:
                    link = _WorkerLink(address, self.heartbeat_timeout)
                except (OSError, WireError) as exc:
                    failures.append(f"{address}: {exc}")
                    continue
            self._links[address] = link
            links.append(link)
        if not links:
            raise RuntimeError(
                "no distributed worker is reachable — " + "; ".join(failures)
            )
        if failures:
            # Running degraded is better than failing a long sweep, but never
            # silently: the operator asked for a bigger cluster than they got.
            # The warning stays (callers assert on it); the structured event
            # carries the same facts for log aggregation.
            _log.warning(
                "cluster_degraded",
                reachable=len(links),
                requested=len(self.workers),
                unreachable="; ".join(failures),
            )
            warnings.warn(
                f"distributed run degraded to {len(links)}/{len(self.workers)} worker(s); "
                "unreachable: " + "; ".join(failures),
                RuntimeWarning,
                stacklevel=3,
            )
        self._connect_failures = failures
        # Stats and attribution are keyed by worker_id; ids are worker-chosen
        # (--worker-id), so collisions across links must be disambiguated or
        # two workers would merge into one row.
        seen: Dict[str, int] = {}
        for link in links:
            count = seen.get(link.worker_id, 0)
            seen[link.worker_id] = count + 1
            if count:
                link.worker_id = f"{link.worker_id}[{link.address}]"
        return links

    def _discard(self, link: _WorkerLink) -> None:
        """Forget a link whose worker died; the next run redials it."""
        self._links.pop(link.address, None)
        link.close()

    def close(self) -> None:
        """Drop every kept worker connection (idempotent; run() redials)."""
        for link in list(self._links.values()):
            link.close()
        self._links.clear()

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        results: List[Optional[RunMetrics]] = [None] * len(specs)
        if not specs:
            self._last_attribution = {"backend": self.name, "workers": {}}
            return []
        # Capture the ambient obs context on the caller's thread: the drive
        # threads below cannot see its thread-local scope, so the context
        # travels to them explicitly.
        obs = get_obs()
        links = self._connect()
        stats: Dict[str, Dict[str, int]] = {
            link.worker_id: {"dispatched": 0, "redispatched": 0, "trials_executed": 0}
            for link in links
        }
        self.trials_executed += len(specs)
        try:
            self._dispatch_phase(links, list(enumerate(specs)), results, stats, obs)
        finally:
            self._last_attribution = {
                "backend": self.name,
                "workers": stats,
                "trials_total": len(specs),
            }
            if self._connect_failures:
                # A degraded run must say so in its stored record, not just
                # in a transient warning.
                self._last_attribution["unreachable_workers"] = list(self._connect_failures)
            if obs.metrics is not None:
                obs.metrics.inc_many({
                    "distributed.runs": 1,
                    "distributed.trials_total": len(specs),
                    "distributed.chunks_dispatched": sum(r["dispatched"] for r in stats.values()),
                    "distributed.chunks_redispatched": sum(r["redispatched"] for r in stats.values()),
                    "distributed.remote_trials_executed": sum(r["trials_executed"] for r in stats.values()),
                    "distributed.unreachable_workers": len(self._connect_failures),
                })
        missing = [index for index, value in enumerate(results) if value is None]
        if missing:  # pragma: no cover - defended against above, belt and braces
            raise RuntimeError(f"{len(missing)} trial(s) were never executed")
        return results  # type: ignore[return-value]

    def _dispatch_phase(
        self,
        links: List[_WorkerLink],
        pending: List[Tuple[int, TrialSpec]],
        results: List[Optional[RunMetrics]],
        stats: Dict[str, Dict[str, int]],
        obs: ObsContext,
    ) -> None:
        tracer = obs.tracer
        # The caller's innermost span (run_trials' trial_set span) becomes
        # the explicit parent of every dispatch_chunk span — drive threads
        # have empty thread-local span stacks, so auto-parenting cannot work.
        parent_span = tracer.current_span_id() if tracer is not None else None
        chunk_size = self.chunk_size or max(1, math.ceil(len(pending) / (len(links) * 4)))
        queue = _ChunkQueue([
            (chunk_id, pending[start : start + chunk_size])
            for chunk_id, start in enumerate(range(0, len(pending), chunk_size))
        ])

        errors: List[BaseException] = []
        results_lock = threading.Lock()

        def drive(link: _WorkerLink) -> None:
            while True:
                taken = queue.take()
                if taken is None:
                    return
                chunk, redispatched = taken
                chunk_id, members = chunk
                scope = (
                    nullcontext()
                    if tracer is None
                    else tracer.span(
                        "dispatch_chunk",
                        parent_id=parent_span,
                        chunk=chunk_id,
                        worker=link.worker_id,
                        redispatched=redispatched,
                        trials=len(members),
                    )
                )
                try:
                    with scope as dispatch_span:
                        metrics, recorded = link.execute(
                            chunk_id,
                            [spec for _, spec in members],
                            chunk_request(obs, dispatch_span.span_id if dispatch_span is not None else None),
                            obs.metrics,
                        )
                except TrialExecutionError as exc:
                    # Deterministic failure: re-dispatching would fail again
                    # everywhere.  Surface it and stop the whole run.
                    with results_lock:
                        errors.append(exc)
                    queue.abort()
                    return
                except (OSError, ConnectionError, WireError, socket.timeout) as exc:
                    # Dead worker (crash, kill, network): give its work back
                    # and forget the connection so the next run redials.
                    _log.warning(
                        "worker_dead",
                        worker=link.worker_id,
                        address=link.address,
                        chunk=chunk_id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self._discard(link)
                    queue.done(requeue=chunk)
                    return
                except BaseException as exc:  # never strand in-flight work
                    with results_lock:
                        errors.append(exc)
                    queue.abort()
                    return
                adopt_chunk(obs, recorded)
                with results_lock:
                    stats[link.worker_id]["dispatched"] += 1
                    stats[link.worker_id]["redispatched"] += redispatched
                    stats[link.worker_id]["trials_executed"] += len(members)
                    for (index, _), value in zip(members, metrics):
                        results[index] = value
                queue.done()

        threads = [threading.Thread(target=drive, args=(link,), daemon=True) for link in links]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        if queue.outstanding():
            raise RuntimeError(
                "every distributed worker died before the run finished "
                f"({queue.outstanding()} chunk(s) left)"
            )
