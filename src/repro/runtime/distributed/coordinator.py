"""The coordinator: :class:`DistributedBackend` fans trials out to workers.

``run(specs)`` receives only the trials the coordinator's result cache
(:mod:`repro.runtime.cache`) could not serve — ``execute_trials`` consults
it first, under the same ``cache=`` rule as every backend — so every spec
it is handed is dispatched.  The trials are split into contiguous chunks
(roughly four per worker, same policy as the process pool) and dealt
round-robin into per-worker queues.  Each worker is driven
by one coordinator thread that drains its own queue first, then **steals**
from the back of the longest other queue — so a fast worker never idles
while a slow one has a backlog.  While a chunk runs, the worker heartbeats;
if no frame arrives within ``heartbeat_timeout`` (or the connection drops),
the worker is declared dead and its in-flight chunk is **re-dispatched** to
the survivors.  A chunk's results are only ever accepted once, so a crash
can never duplicate a seed.

Determinism: specs carry fully-derived seeds and workers run the same
:func:`~repro.runtime.backends.execute_trial` as every local backend, so the
returned metrics are bit-identical to :class:`~repro.runtime.backends.SerialBackend`
regardless of which worker ran what, in what order, or how many died on the
way.  The hello handshake refuses workers running a different ``repro``
version, closing the one hole in that guarantee.

Attribution: after each ``run`` the backend exposes a per-worker summary
(chunks dispatched / stolen / re-dispatched, trials executed)
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, get_logger, get_obs
from repro.runtime.backends import ExecutionBackend
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

    def __init__(self, address: str, connect_timeout: float, heartbeat_timeout: float) -> None:
        self.address = address
        host, port = parse_worker_address(address)
        self.sock = socket.create_connection((host, port), timeout=connect_timeout)
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
        trace: Optional[Dict[str, Any]] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> List[RunMetrics]:
        """Run one chunk remotely; heartbeat frames reset the read timeout.

        ``trace`` rides inside the execute frame so the worker records this
        chunk's spans under the coordinator's trace id; the result frame's
        ``spans`` are adopted into ``tracer``.  ``registry`` receives the
        observed inter-frame gap as the ``distributed.heartbeat_seconds``
        histogram — the live measure of how close a worker runs to its
        declared pulse (and how near the timeout the cluster is operating).
        ``recorder`` turns on the worker-side flight recorder for this chunk
        (sized to the coordinator recorder's capacity); the result frame's
        ``forensics`` dumps are adopted into it.  Dumps only ever travel in
        the result frame, so a chunk re-dispatched after a worker death can
        never duplicate a trial's dump.
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
        request: Dict[str, Any] = {"type": "execute", "chunk_id": chunk_id, "specs": encoded}
        if trace is not None:
            request["trace"] = trace
        if recorder is not None:
            request["forensics"] = {"enabled": True, "capacity": recorder.capacity}
        send_frame(self.sock, request)
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
                if tracer is not None:
                    tracer.adopt(frame.get("spans") or ())
                if recorder is not None:
                    recorder.adopt(frame.get("forensics") or ())
                return [RunMetrics.from_payload(payload) for payload in payloads]
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


class _WorkQueues:
    """Per-worker chunk queues with stealing, re-dispatch and completion
    tracking.

    The subtlety is liveness: a survivor whose queues look empty must not
    exit while another worker still has a chunk in flight — that chunk may
    come back via :meth:`requeue` if its worker dies.  :meth:`take` therefore
    blocks on a condition variable until there is either work to hand out or
    provably none left anywhere (no queued chunks, nothing in flight)."""

    def __init__(self, worker_ids: Sequence[str]) -> None:
        self._condition = threading.Condition()
        self._queues: Dict[str, deque] = {worker_id: deque() for worker_id in worker_ids}
        self._redispatch: deque = deque()
        self._in_flight = 0
        self._aborted = False

    def assign(self, worker_id: str, chunk: _Chunk) -> None:
        self._queues[worker_id].append(chunk)

    def take(self, worker_id: str) -> Optional[Tuple[_Chunk, str]]:
        """Next chunk for ``worker_id`` and how it got it (``own`` /
        ``stolen`` / ``redispatched``); blocks while work might still come
        back from a dying worker; None when the run is drained or aborted."""
        with self._condition:
            while True:
                if self._aborted:
                    return None
                if self._redispatch:
                    self._in_flight += 1
                    return self._redispatch.popleft(), "redispatched"
                own = self._queues.get(worker_id)
                if own:
                    self._in_flight += 1
                    return own.popleft(), "own"
                victim = max(
                    (queue for key, queue in self._queues.items() if key != worker_id and queue),
                    key=len,
                    default=None,
                )
                if victim is not None:
                    self._in_flight += 1
                    return victim.pop(), "stolen"  # steal from the back: coldest work
                if self._in_flight == 0:
                    return None
                self._condition.wait()

    def done(self, chunk_completed: bool, chunk: Optional[_Chunk] = None) -> None:
        """A taken chunk finished (``chunk_completed``) or its worker died
        (``chunk`` goes back into the re-dispatch pool)."""
        with self._condition:
            self._in_flight -= 1
            if not chunk_completed and chunk is not None:
                self._redispatch.append(chunk)
            self._condition.notify_all()

    def drop_queue(self, worker_id: str) -> None:
        """Move a dead worker's unstarted chunks into the re-dispatch pool."""
        with self._condition:
            for chunk in self._queues.pop(worker_id, ()):  # preserves order
                self._redispatch.append(chunk)
            self._condition.notify_all()

    def abort(self) -> None:
        """Stop handing out work (a trial failed deterministically)."""
        with self._condition:
            self._aborted = True
            self._condition.notify_all()

    def outstanding(self) -> int:
        with self._condition:
            return len(self._redispatch) + sum(len(queue) for queue in self._queues.values())


class DistributedBackend(ExecutionBackend):
    """Execute trials on remote workers, with work stealing and re-dispatch.

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
        connect_timeout: float = 5.0,
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
        self.connect_timeout = connect_timeout
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
                    link = _WorkerLink(address, self.connect_timeout, self.heartbeat_timeout)
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
        # Queues, stats and attribution are keyed by worker_id; ids are
        # worker-chosen (--worker-id), so collisions across links must be
        # disambiguated or two workers would merge into one queue/row.
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

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        results: List[Optional[RunMetrics]] = [None] * len(specs)
        if not specs:
            self._last_attribution = {"backend": self.name, "workers": {}}
            return []
        # Capture the ambient obs context on the caller's thread: the drive
        # threads below cannot see its thread-local scope, so the registry,
        # tracer and parent span id travel to them explicitly.
        obs = get_obs()
        registry, tracer, recorder = obs.metrics, obs.tracer, obs.recorder
        links = self._connect()
        stats: Dict[str, Dict[str, int]] = {
            link.worker_id: {"dispatched": 0, "stolen": 0, "redispatched": 0, "trials_executed": 0}
            for link in links
        }
        self.trials_executed += len(specs)
        try:
            self._dispatch_phase(
                links, list(enumerate(specs)), results, stats, registry, tracer, recorder
            )
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
            if registry is not None:
                registry.inc_many({
                    "distributed.runs": 1,
                    "distributed.trials_total": len(specs),
                    "distributed.chunks_dispatched": sum(r["dispatched"] for r in stats.values()),
                    "distributed.chunks_stolen": sum(r["stolen"] for r in stats.values()),
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
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        # The caller's innermost span (run_trials' trial_set span) becomes
        # the explicit parent of every dispatch_chunk span — drive threads
        # have empty thread-local span stacks, so auto-parenting cannot work.
        parent_span = tracer.current_span_id() if tracer is not None else None
        chunk_size = self.chunk_size or max(1, math.ceil(len(pending) / (len(links) * 4)))
        chunks: List[_Chunk] = [
            (chunk_id, pending[start : start + chunk_size])
            for chunk_id, start in enumerate(range(0, len(pending), chunk_size))
        ]
        queues = _WorkQueues([link.worker_id for link in links])
        for position, chunk in enumerate(chunks):
            queues.assign(links[position % len(links)].worker_id, chunk)

        errors: List[BaseException] = []
        results_lock = threading.Lock()

        def drive(link: _WorkerLink) -> None:
            while True:
                taken = queues.take(link.worker_id)
                if taken is None:
                    return
                chunk, provenance = taken
                chunk_id, members = chunk
                chunk_specs = [spec for _, spec in members]
                try:
                    if tracer is not None:
                        with tracer.span(
                            "dispatch_chunk",
                            parent_id=parent_span,
                            chunk=chunk_id,
                            worker=link.worker_id,
                            provenance=provenance,
                            trials=len(members),
                        ) as dispatch_span:
                            metrics = link.execute(
                                chunk_id,
                                chunk_specs,
                                trace={
                                    "trace_id": tracer.trace_id,
                                    "parent": dispatch_span.span_id if dispatch_span is not None else None,
                                    "sample_every": tracer.sample_every,
                                },
                                registry=registry,
                                tracer=tracer,
                                recorder=recorder,
                            )
                    else:
                        metrics = link.execute(
                            chunk_id, chunk_specs, registry=registry, recorder=recorder
                        )
                except TrialExecutionError as exc:
                    # Deterministic failure: re-dispatching would fail again
                    # everywhere.  Surface it and stop the whole run.
                    with results_lock:
                        errors.append(exc)
                    queues.done(chunk_completed=False, chunk=chunk)
                    queues.abort()
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
                    queues.done(chunk_completed=False, chunk=chunk)
                    queues.drop_queue(link.worker_id)
                    return
                except BaseException as exc:  # never strand in-flight work
                    with results_lock:
                        errors.append(exc)
                    queues.done(chunk_completed=False, chunk=chunk)
                    queues.abort()
                    return
                with results_lock:
                    stats[link.worker_id]["dispatched"] += 1
                    if provenance == "stolen":
                        stats[link.worker_id]["stolen"] += 1
                    elif provenance == "redispatched":
                        stats[link.worker_id]["redispatched"] += 1
                    stats[link.worker_id]["trials_executed"] += len(members)
                    for (index, _), value in zip(members, metrics):
                        results[index] = value
                queues.done(chunk_completed=True)

        threads = [threading.Thread(target=drive, args=(link,), daemon=True) for link in links]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        if queues.outstanding():
            raise RuntimeError(
                "every distributed worker died before the run finished "
                f"({queues.outstanding()} chunk(s) left)"
            )
