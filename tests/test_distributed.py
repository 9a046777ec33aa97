"""Tests for the distributed runtime: wire format, worker, coordinator.

The acceptance criteria of the subsystem are pinned here:

1. ``DistributedBackend`` is **bit-identical** to ``SerialBackend`` — with
   one worker or many, on a plain trial set and on a full noise-sweep cell;
2. workers cache nothing: with ``cache=None`` every run executes every
   trial, so the coordinator's cache is the only way a trial is skipped;
3. a worker killed mid-chunk has its work re-dispatched to the survivors
   without duplicating a single seed, and the run still completes;
4. a worker speaking another protocol or package version is refused at
   hello;
5. per-worker attribution lands in the run store without disturbing the
   existing analytics (``runs diff`` keeps working on distributed records).

All workers run in-process (``WorkerServer.start()`` serves from a daemon
thread on an OS-assigned localhost port); the subprocess path is covered by
``scripts/smoke_distributed.sh`` (see ``TestSmokeScript``).
"""

from __future__ import annotations

import socket
import subprocess
from pathlib import Path

import pytest

from repro.core.parameters import algorithm_a
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.harness import run_trials
from repro.experiments.noise_sweep import noise_sweep
from repro.experiments.workloads import gossip_workload
from repro.runtime import (
    DistributedBackend,
    ResultCache,
    RunStore,
    SerialBackend,
    WorkerServer,
    diff_runs,
    use_runtime,
)
from repro.runtime.distributed.coordinator import parse_worker_address
from repro.runtime.distributed.wire import (
    PROTOCOL_VERSION,
    WireError,
    encode_specs,
    recv_frame,
    send_frame,
)
from repro.runtime.spec import build_trial_specs, derive_trial_seed


def _cell():
    """One standard experimental cell used throughout this module."""
    workload = gossip_workload(topology="line", num_nodes=5, phases=6)
    return workload, algorithm_a(), RandomNoiseFactory(fraction=0.004)


def _run(backend, trials=6, cache=None, **kwargs):
    workload, scheme, factory = _cell()
    return run_trials(
        workload, scheme, adversary_factory=factory, trials=trials, base_seed=3,
        backend=backend, cache=cache, **kwargs,
    )


@pytest.fixture
def worker():
    server = WorkerServer().start()
    yield server
    server.stop()


@pytest.fixture
def worker_pair():
    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    for server in servers:
        server.stop()


class TestWireFormat:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "execute", "specs": "a" * 64, "nested": {"x": [1, 2.5, None]}}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_oversized_announced_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall((2**31 - 1).to_bytes(4, "big"))
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_message_payload_is_refused(self):
        a, b = socket.socketpair()
        try:
            payload = b"[1, 2, 3]"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(WireError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("bad", ["nohost", ":123", "host:", "host:notaport", "host:0", "host:70000"])
    def test_malformed_worker_addresses_are_refused(self, bad):
        with pytest.raises(ValueError):
            parse_worker_address(bad)
        with pytest.raises(ValueError):
            DistributedBackend([bad])

    def test_backend_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            DistributedBackend([])

    def test_duplicate_worker_addresses_are_deduplicated(self, worker):
        """The same address twice is the same worker — two driver threads
        must never end up sharing one socket."""
        backend = DistributedBackend([worker.address, worker.address, worker.address])
        assert backend.workers == [worker.address]
        result = _run(backend)
        assert result.runs == _run(SerialBackend()).runs


class TestDistributedDeterminism:
    def test_single_worker_matches_serial_on_a_full_noise_sweep_cell(self, worker):
        """The satellite criterion: one local worker, a whole sweep cell,
        bit-identical points."""
        workload, scheme, _ = _cell()
        serial_points = noise_sweep(workload, scheme, multipliers=(0.5, 4.0), trials=2)
        with use_runtime(backend=DistributedBackend([worker.address]), cache=None):
            distributed_points = noise_sweep(workload, scheme, multipliers=(0.5, 4.0), trials=2)
        assert distributed_points == serial_points

    def test_two_workers_match_serial_bit_for_bit(self, worker_pair):
        serial = _run(SerialBackend())
        backend = DistributedBackend([w.address for w in worker_pair], chunk_size=2)
        distributed = _run(backend)
        assert distributed.runs == serial.runs
        assert distributed.aggregate == serial.aggregate
        assert backend.trials_executed == 6
        # Both workers really participated (3 chunks round-robined over 2).
        assert sum(w.trials_executed for w in worker_pair) == 6
        assert all(w.trials_executed > 0 for w in worker_pair)

    def test_worker_links_are_reused_across_runs(self, worker):
        """An experiment grid runs many cells; the TCP connection and
        handshake are paid once, not once per cell."""
        backend = DistributedBackend([worker.address])
        first = _run(backend)
        link = backend._links[worker.address]
        second = _run(backend)
        assert backend._links[worker.address] is link
        assert second.runs == first.runs
        backend.close()
        assert backend._links == {}

    def test_version_mismatched_worker_is_refused(self):
        class LyingWorker(WorkerServer):
            def _dispatch(self, connection, write_lock, request):
                if request.get("type") == "hello":
                    send_frame(connection, {
                        "type": "hello", "worker_id": self.worker_id,
                        "protocol": PROTOCOL_VERSION, "version": "0.0.0-not-ours",
                    })
                    return
                super()._dispatch(connection, write_lock, request)

        server = LyingWorker().start()
        try:
            with pytest.raises(RuntimeError, match="version"):
                _run(DistributedBackend([server.address]), trials=1)
        finally:
            server.stop()

    def test_protocol_one_worker_is_refused_at_hello(self):
        """A worker that still speaks protocol 1 (with its probe request) is
        refused during the handshake, before any trial is sent."""

        class ProtocolOneWorker(WorkerServer):
            def _dispatch(self, connection, write_lock, request):
                if request.get("type") == "hello":
                    from repro import __version__

                    send_frame(connection, {
                        "type": "hello", "worker_id": self.worker_id,
                        "protocol": 1, "version": __version__,
                    })
                    return
                super()._dispatch(connection, write_lock, request)

        server = ProtocolOneWorker().start()
        try:
            with pytest.raises(RuntimeError, match="protocol 1, this coordinator speaks 3"):
                _run(DistributedBackend([server.address]), trials=1)
            assert server.trials_executed == 0
        finally:
            server.stop()

    def test_worker_refuses_requests_outside_its_vocabulary(self, worker):
        """hello, ping and execute are the whole vocabulary; the retired
        probe, stats and shutdown requests get an error frame and the daemon
        keeps serving."""
        host, port = parse_worker_address(worker.address)
        with socket.create_connection((host, port), timeout=5) as sock:
            for kind in ("probe", "stats", "shutdown"):
                send_frame(sock, {"type": kind})
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert kind in reply["message"]
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock)["type"] == "pong"
        assert _run(DistributedBackend([worker.address]), trials=1).runs

    @pytest.mark.parametrize("obs", [
        {"trace": {"trace_id": "x", "sample_every": "abc"}},
        {"forensics": "abc"},
        {"forensics": 0},
        ["counters"],
    ], ids=["bad-sample-every", "bad-capacity", "zero-capacity", "not-an-object"])
    def test_malformed_execute_request_gets_an_error_frame(self, worker, obs):
        """A bad obs request beside valid specs is refused with an error
        frame; the connection survives and no trial runs."""
        workload, scheme, factory = _cell()
        specs = build_trial_specs(workload, scheme, factory, [derive_trial_seed(3, 0)])
        host, port = parse_worker_address(worker.address)
        with socket.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, {"type": "execute", "chunk_id": 0,
                              "specs": encode_specs(specs), "obs": obs})
            reply = recv_frame(sock)
            while reply["type"] == "heartbeat":
                reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["chunk_id"] == 0
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock)["type"] == "pong"
        assert worker.trials_executed == 0


class TestChunkQueue:
    def test_every_chunk_completes_once_while_drive_threads_die(self):
        """Four drive threads "die" holding a chunk each while eight more
        (more threads than cores) drain the one shared queue; the survivors
        must wait for the held chunks instead of exiting, then run each of
        them once as a re-dispatch."""
        import sys
        import threading
        import time

        from repro.runtime.distributed.coordinator import _ChunkQueue

        queue = _ChunkQueue([(chunk_id, []) for chunk_id in range(200)])
        completed, redispatched = [], []
        lock, held, release = threading.Lock(), threading.Barrier(5), threading.Event()

        def drive(dies: bool) -> None:
            while True:
                taken = queue.take()
                if taken is None:
                    return
                chunk, again = taken
                if dies:
                    held.wait(timeout=30)
                    release.wait(timeout=30)
                    queue.done(requeue=chunk)
                    return
                with lock:
                    completed.append(chunk[0])
                    redispatched.append(again)
                queue.done()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            dying = [threading.Thread(target=drive, args=(True,), daemon=True) for _ in range(4)]
            for thread in dying:
                thread.start()
            held.wait(timeout=30)  # every dying drive thread holds a chunk
            live = [threading.Thread(target=drive, args=(False,), daemon=True) for _ in range(8)]
            for thread in live:
                thread.start()
            deadline = time.monotonic() + 30
            while queue.outstanding() and time.monotonic() < deadline:
                time.sleep(0.001)
            assert all(thread.is_alive() for thread in live)  # waiting, not gone
            release.set()
            for thread in dying + live:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in dying + live)
        assert sorted(completed) == list(range(200))
        assert sum(redispatched) == 4
        assert queue.outstanding() == 0


class TestClusterCacheReuse:
    """A cluster reuses results only through the coordinator's cache."""

    def test_cache_none_executes_every_trial_on_every_run(self, worker):
        """Workers keep no results: with the coordinator cache bypassed,
        a repeated run executes every trial again, as on the local backends."""
        backend = DistributedBackend([worker.address])
        first = _run(backend, trials=4, cache=None)
        assert backend.trials_executed == 4
        second = _run(backend, trials=4, cache=None)
        assert backend.trials_executed == 8
        assert worker.trials_executed == 8
        assert second.runs == first.runs

    def test_unpicklable_specs_fail_with_a_clear_error(self, worker):
        """Lambdas cannot cross the wire; the error must say so instead of
        masquerading as a dead worker."""
        from repro.runtime import TrialExecutionError

        workload, scheme, _ = _cell()
        factory = lambda seed: RandomNoiseFactory(fraction=0.004)(seed)  # noqa: E731
        specs = build_trial_specs(workload, scheme, factory, [derive_trial_seed(3, 0)])
        backend = DistributedBackend([worker.address])
        with pytest.raises(TrialExecutionError, match="picklable"):
            backend.run(specs)
        assert worker.trials_executed == 0


class TestFailureHandling:
    def test_worker_killed_mid_chunk_redispatches_without_duplicating_seeds(self):
        """Acceptance criterion: kill one worker mid-run, the sweep still
        completes and every seed's result appears exactly once."""
        workload, scheme, factory = _cell()
        seeds = [derive_trial_seed(3, trial) for trial in range(6)]
        specs = build_trial_specs(workload, scheme, factory, seeds)
        serial = SerialBackend().run(specs)
        crasher = WorkerServer(crash_after_trials=1).start()
        survivor = WorkerServer().start()
        try:
            backend = DistributedBackend(
                [crasher.address, survivor.address], chunk_size=2, heartbeat_timeout=30.0,
            )
            distributed = backend.run(specs)
            # Bit-identical to serial ⇒ exactly one result per seed, in order,
            # even though the crasher double-started one chunk.
            assert distributed == serial
            attribution = backend.pop_last_attribution()
            survivor_stats = attribution["workers"][survivor.worker_id]
            assert survivor_stats["redispatched"] >= 1
            assert survivor_stats["trials_executed"] == 6
        finally:
            survivor.stop()
            crasher.stop()

    def test_unreachable_workers_raise(self):
        backend = DistributedBackend(["127.0.0.1:9"])  # discard port: nothing listens
        with pytest.raises(RuntimeError, match="reachable"):
            _run(backend, trials=1)

    def test_all_workers_dying_raises_instead_of_hanging(self):
        crasher = WorkerServer(crash_after_trials=0).start()
        try:
            backend = DistributedBackend([crasher.address], heartbeat_timeout=30.0)
            with pytest.raises(RuntimeError, match="died"):
                _run(backend, trials=2)
        finally:
            crasher.stop()

    def test_empty_spec_list_is_a_no_op_without_connecting(self):
        backend = DistributedBackend(["127.0.0.1:9"])
        assert backend.run([]) == []

    def test_degraded_cluster_warns_and_records_the_unreachable_worker(self, worker):
        """Half-missing clusters run degraded, but never silently."""
        workload, scheme, factory = _cell()
        seeds = [derive_trial_seed(3, trial) for trial in range(4)]
        specs = build_trial_specs(workload, scheme, factory, seeds)
        backend = DistributedBackend([worker.address, "127.0.0.1:9"])
        with pytest.warns(RuntimeWarning, match="degraded to 1/2"):
            result = backend.run(specs)
        assert result == SerialBackend().run(specs)
        attribution = backend.pop_last_attribution()
        assert len(attribution["unreachable_workers"]) == 1
        assert "127.0.0.1:9" in attribution["unreachable_workers"][0]

    def test_colliding_worker_ids_are_disambiguated(self):
        """Two daemons started with the same --worker-id must not merge into
        one queue/attribution row."""
        twin_a = WorkerServer(worker_id="node").start()
        twin_b = WorkerServer(worker_id="node").start()
        try:
            workload, scheme, factory = _cell()
            seeds = [derive_trial_seed(3, trial) for trial in range(6)]
            specs = build_trial_specs(workload, scheme, factory, seeds)
            backend = DistributedBackend([twin_a.address, twin_b.address], chunk_size=2)
            result = backend.run(specs)
            assert result == SerialBackend().run(specs)
            attribution = backend.pop_last_attribution()
            workers = attribution["workers"]
            assert len(workers) == 2
            assert sum(stats["trials_executed"] for stats in workers.values()) == 6
        finally:
            twin_a.stop()
            twin_b.stop()


class TestAttributionInRunStore:
    def test_distributed_run_records_attribution_and_still_diffs(self, tmp_path, worker_pair):
        store = RunStore(tmp_path)
        addresses = [w.address for w in worker_pair]
        _run(DistributedBackend(addresses, chunk_size=2), store=store)
        _run(DistributedBackend(addresses, chunk_size=2), store=store)

        first, second = (store.load(row["run_id"]) for row in store.list_runs())
        workers = first["workers"]["workers"]
        assert set(workers) == {w.worker_id for w in worker_pair}
        assert sum(stats["trials_executed"] for stats in workers.values()) == 6
        assert all(
            set(stats) == {"dispatched", "redispatched", "trials_executed"}
            for stats in workers.values()
        )
        # Workers cache nothing, so the second run executes all 6 trials again.
        rerun = second["workers"]["workers"]
        assert sum(stats["trials_executed"] for stats in rerun.values()) == 6
        assert second["cached_trials"] == 0

        # Analytics neither choke on nor gate on the attribution payload.
        diff = diff_runs(first, second)
        assert not any(row.status == "regression" for row in diff.rows if row.metric == "success_rate")

    def test_serial_runs_record_no_attribution(self, tmp_path):
        store = RunStore(tmp_path)
        _run(SerialBackend(), store=store)
        payload = store.load(store.list_runs()[0]["run_id"])
        assert "workers" not in payload

    def test_failed_run_leftover_attribution_is_not_inherited(self, tmp_path):
        """A run that raises never reaches the attribution pop; the next cell
        — even one fully served from the local cache, where the backend is
        never invoked — must not record the leftovers as its own."""
        backend = DistributedBackend(["127.0.0.1:9"])
        backend._last_attribution = {  # what a crashed run leaves behind
            "backend": "distributed", "workers": {"ghost": {"trials_executed": 6}}, "trials_total": 6,
        }
        cache = ResultCache()
        _run(SerialBackend(), cache=cache)  # warm the local cache
        store = RunStore(tmp_path)
        trial_set = _run(backend, cache=cache, store=store)  # fully cache-served
        assert backend.trials_executed == 0
        payload = store.load(store.list_runs()[0]["run_id"])
        assert "workers" not in payload
        assert payload["cached_trials"] == len(trial_set.runs)


class TestCliIntegration:
    def test_noise_sweep_backend_distributed_matches_serial(self, worker_pair, capsys):
        from repro.cli import main

        args = ["noise-sweep", "--topology", "line", "--nodes", "4", "--phases", "4",
                "--multipliers", "0.5", "4.0", "--trials", "2", "--seed", "3", "--no-cache"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        workers = ",".join(w.address for w in worker_pair)
        assert main(args + ["--workers", workers]) == 0
        distributed_out = capsys.readouterr().out
        assert distributed_out == serial_out

    def test_runs_show_displays_records_with_retired_cache_hit_fields(self, tmp_path, capsys):
        """Records written while workers cached and stole work still show;
        the retired ``remote_cache_hits``, ``cache_hits`` and ``stolen``
        fields are not rendered."""
        from repro.cli import main

        store = RunStore(tmp_path)
        trial_set = _run(SerialBackend())
        run_id = store.record_trial_set(
            label="legacy", runs=trial_set.runs, aggregate=trial_set.aggregate,
            worker_attribution={
                "backend": "distributed", "trials_total": 6, "remote_cache_hits": 6,
                "workers": {"w1": {"dispatched": 0, "stolen": 0, "redispatched": 0,
                                   "trials_executed": 0, "cache_hits": 6}},
            },
        )
        assert main(["runs", "show", run_id, "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "workers (distributed backend, 6 trial(s)):" in out
        assert "w1" in out
        assert "cache" not in out
        assert "stolen" not in out

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--workers", "127.0.0.1:9", "--jobs", "2"], "--workers and --jobs"),
            (["--workers", "no-port-here"], "not of the form host:port"),
        ],
        ids=["with_jobs", "malformed"],
    )
    def test_workers_flag_errors_fail_friendly(self, flags, expected, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["noise-sweep", *flags])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert expected in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.smoke
class TestSmokeScript:
    """End-to-end gate: real subprocess workers, the real CLI (a few seconds)."""

    def test_smoke_script_passes(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "smoke_distributed.sh"
        completed = subprocess.run(
            ["bash", str(script)], capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, (
            f"smoke script failed\nstdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
        )
        # The script must stop its workers on exit: their ports refuse now.
        (line,) = [line for line in completed.stdout.splitlines() if line.strip().startswith("workers:")]
        for address in line.split(":", 1)[1].strip().split(","):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(parse_worker_address(address), timeout=5).close()
