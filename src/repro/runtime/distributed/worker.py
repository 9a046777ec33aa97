"""The worker daemon: executes trial chunks for a coordinator.

``repro worker serve --port P`` runs one of these per host.  A worker is
deliberately dumb: it holds no view of the overall run and caches nothing
(the coordinator's result cache, :mod:`repro.runtime.cache`, is the one
place a result is kept).  It answers three requests:

* ``hello`` — its id, protocol and package version, and heartbeat interval;
* ``ping`` — a liveness round-trip;
* ``execute`` — runs a chunk through the same
  :func:`~repro.runtime.backends.run_chunk` the process pool uses (each
  spec carries its fully-derived seed, so results are bit-identical to
  serial execution by construction), emitting ``heartbeat`` frames every
  ``heartbeat_interval`` seconds while it runs, so the coordinator can tell
  "slow trial" from "dead worker" without a side channel.  The result
  frame's ``obs`` field carries the counters, spans and forensic dumps the
  coordinator asked for.

Which worker runs which chunk is the coordinator's business: each of its
drive threads sends its worker the next chunk from one shared queue.

The server is a thread-per-connection ``socket`` loop — trial execution is
CPU-bound Python, so one connection (the coordinator's) does the real work.
``crash_after_trials`` is a failure-injection knob for tests and the smoke
script: the worker drops dead (closes every socket without a result frame)
after executing that many trials, which is exactly what a SIGKILL mid-chunk
looks like from the coordinator's side.
"""

from __future__ import annotations

import json
import socket
import threading
from functools import partial
from typing import Any, Dict, Optional

from repro.obs import MetricsRegistry, get_logger
from repro.runtime.backends import run_chunk
from repro.runtime.distributed.wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_specs,
    recv_frame,
    send_frame,
)


class WorkerCrash(Exception):
    """Raised internally when the failure-injection knob fires."""


class WorkerServer:
    """A single trial-execution worker listening on one TCP port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = 1.0,
        crash_after_trials: Optional[int] = None,
        status_port: Optional[int] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.heartbeat_interval = heartbeat_interval
        self.crash_after_trials = crash_after_trials
        #: Trials this worker has simulated over its lifetime.
        self.trials_executed = 0
        #: Always-on per-daemon metrics: every chunk records its counters
        #: and they are folded in here when it finishes, so engine/transport
        #: counters accumulate for the whole daemon lifetime.  Exposed by
        #: the ``--status-port`` HTTP endpoint.
        self.registry = MetricsRegistry()
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self.worker_id = worker_id or f"{socket.gethostname()}:{self.port}"
        self._log = get_logger("worker")
        self._shutdown = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()  # guards trials_executed
        #: The bound status port (None when the endpoint is disabled).
        self.status_port: Optional[int] = None
        self._status_server = None
        if status_port is not None:
            self._start_status_server(status_port)

    @property
    def address(self) -> str:
        """The ``host:port`` string a coordinator connects to."""
        return f"{self.host}:{self.port}"

    # -- status endpoint -----------------------------------------------------

    def status_snapshot(self) -> Dict[str, Any]:
        """Everything an operator wants at a glance: identity, progress and
        the live metrics registry."""
        return {
            "worker_id": self.worker_id,
            "address": self.address,
            "trials_executed": self.trials_executed,
            "metrics": self.registry.snapshot(),
        }

    def _start_status_server(self, port: int) -> None:
        """Serve :meth:`status_snapshot` as JSON on ``GET /`` (``--status-port``)."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        worker = self

        class _StatusHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server naming
                body = json.dumps(worker.status_snapshot(), sort_keys=True, default=str).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # keep HTTP chatter out of the daemon's stderr

        self._status_server = ThreadingHTTPServer((self.host, port), _StatusHandler)
        self.status_port = self._status_server.server_address[1]
        threading.Thread(target=self._status_server.serve_forever, daemon=True).start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve in a background thread (for tests and in-process use)."""
        self._accept_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop`."""
        self._server.settimeout(0.2)  # so the loop notices the shutdown flag
        while not self._shutdown.is_set():
            try:
                connection, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listening socket closed under us by stop()
            thread = threading.Thread(target=self._serve_connection, args=(connection,), daemon=True)
            thread.start()
        self._server.close()

    def stop(self) -> None:
        """Stop accepting and unblock :meth:`serve_forever` (idempotent)."""
        self._shutdown.set()
        try:
            self._server.close()
        except OSError:
            pass
        if self._status_server is not None:
            self._status_server.shutdown()
            self._status_server.server_close()
            self._status_server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    # -- connection handling ---------------------------------------------------

    def _serve_connection(self, connection: socket.socket) -> None:
        write_lock = threading.Lock()  # heartbeats interleave with the result frame
        try:
            with connection:
                while not self._shutdown.is_set():
                    try:
                        request = recv_frame(connection)
                    except (ConnectionError, WireError, OSError):
                        return
                    try:
                        self._dispatch(connection, write_lock, request)
                    except (ConnectionError, OSError):
                        # The coordinator hung up while we were answering
                        # (e.g. it timed us out mid-chunk and moved on) — an
                        # expected lifecycle event, not a worker fault.
                        return
        except WorkerCrash:
            # Failure injection: die without a goodbye, like a real crash.
            self.stop()

    def _dispatch(self, connection: socket.socket, write_lock: threading.Lock, request: Dict[str, Any]) -> None:
        """Answer one ``hello``, ``ping`` or ``execute`` request."""
        kind = request.get("type")
        if kind == "hello":
            from repro import __version__

            send_frame(connection, {
                "type": "hello",
                "worker_id": self.worker_id,
                "protocol": PROTOCOL_VERSION,
                "version": __version__,
                # Announced so the coordinator can size its read deadline to
                # this worker's actual pulse instead of assuming the default.
                "heartbeat_interval": self.heartbeat_interval,
            })
        elif kind == "ping":
            send_frame(connection, {"type": "pong", "worker_id": self.worker_id})
        elif kind == "execute":
            self._handle_execute(connection, write_lock, request)
        else:
            send_frame(connection, {"type": "error", "message": f"unknown request type {kind!r}"})

    def _handle_execute(self, connection: socket.socket, write_lock: threading.Lock, request: Dict[str, Any]) -> None:
        """Run one chunk, heartbeating while it executes."""
        chunk_id = request.get("chunk_id")
        done = threading.Event()

        def heartbeat() -> None:
            while not done.wait(self.heartbeat_interval):
                try:
                    with write_lock:
                        send_frame(connection, {"type": "heartbeat", "worker_id": self.worker_id})
                except OSError:
                    return

        pulse = threading.Thread(target=heartbeat, daemon=True)
        pulse.start()
        try:
            # Parsed inside the try: a malformed request gets an error frame.
            wanted = request.get("obs") or {}
            metrics, recorded = run_chunk(
                decode_specs(request["specs"]),
                # Counters always: the --status-port registry shows them.
                dict(wanted, counters=True),
                worker=self.worker_id,
                before_trial=partial(self._before_trial, connection),
            )
            self.registry.inc_many(recorded["counters"])
            if not wanted.get("counters"):
                del recorded["counters"]
            response: Dict[str, Any] = {
                "type": "result",
                "worker_id": self.worker_id,
                "chunk_id": chunk_id,
                "metrics": [value.to_payload() for value in metrics],
                "obs": recorded,
            }
        except WorkerCrash:
            raise
        except Exception as exc:  # deterministic simulation failure → report, don't die
            self._log.warning(
                "chunk_failed", worker=self.worker_id, chunk=chunk_id, error=f"{type(exc).__name__}: {exc}"
            )
            response = {
                "type": "error",
                "worker_id": self.worker_id,
                "chunk_id": chunk_id,
                "message": f"{type(exc).__name__}: {exc}",
            }
        finally:
            done.set()
        pulse.join(timeout=self.heartbeat_interval * 2)
        with write_lock:
            send_frame(connection, response)

    def _before_trial(self, connection: socket.socket) -> None:
        """Count the trial about to run, or fire the failure-injection knob."""
        if self.crash_after_trials is not None and self.trials_executed >= self.crash_after_trials:
            # Slam the door: no result frame, no goodbye — the coordinator's
            # heartbeat timeout / connection error is the only signal.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
            raise WorkerCrash()
        with self._lock:
            self.trials_executed += 1
