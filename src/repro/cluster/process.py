"""Process-parallel shards: forked workers, supervised RPC, crash recovery.

Each shard engine runs in its own forked worker process
(:func:`~repro.cluster.worker.worker_main`), connected to the parent by a
``socketpair`` carrying the :mod:`repro.cluster.wire` frames.  Python's
per-process GIL is the whole point: N workers seal and accumulate on N
cores while the parent only routes, journals, and merges.

Supervision model
-----------------
One dedicated I/O thread per worker (a single-thread executor) owns that
worker's socket, so requests to a shard are strictly FIFO and no two
threads ever interleave frames.  A bounded semaphore in front of each
executor is the request queue: when ``queue_depth`` requests are in
flight, the next submitter blocks — backpressure, not unbounded
buffering.  A request that times out or hits EOF marks the worker dead
(SIGKILL, socket closed) and every queued request fails fast with the
internal :class:`~repro.cluster.wire.WorkerCrash` signal.

:meth:`ProcessBackend.call` converts crashes by method classification:
idempotent calls are retried against the revived worker, journaled
mutations are treated as applied (the revival's WAL replay re-applied
them), and everything else surfaces a :class:`ServiceError`.  Revival
itself is fork + the cube-supplied ``recover`` callback (restore the
shard's snapshot state, replay the WAL tail, re-align the clock), with a
per-worker restart budget so a poisoned workload cannot crash-loop
silently.

Every reply piggybacks the worker's ``[quarter, records, cells]``
counters, so cube property reads never pay a round trip.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro import faults
from repro.cluster import wire
from repro.cluster.backends import ClusterConfig, ShardBackend
from repro.cluster.wire import WorkerCrash
from repro.cluster.worker import WorkerSpec, worker_main
from repro.errors import CorruptionError, ServiceError, StorageError

__all__ = ["ProcessBackend"]

#: Backoff between idempotent retries after a crash: grows geometrically,
#: capped well below any sane rpc_timeout.  The first retry is immediate
#: (the usual case — one clean revival — should not pay latency).
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 0.5


class _Worker:
    """Parent-side state of one shard worker (mutated across restarts)."""

    __slots__ = (
        "index",
        "process",
        "sock",
        "executor",
        "slots",
        "alive",
        "epoch",
        "restarts",
        "counters",
        "inflight",
        "high_water",
        "round_trips",
        "request_id",
        "gauge_lock",
        "recovering",
        "doomed",
    )

    def __init__(self, index: int, queue_depth: int) -> None:
        self.index = index
        self.process = None
        self.sock: socket.socket | None = None
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-rpc-{index}"
        )
        self.slots = threading.BoundedSemaphore(queue_depth)
        self.alive = False
        self.epoch = 0
        self.restarts = 0
        self.counters = [0, 0, 0]
        self.inflight = 0
        self.high_water = 0
        self.round_trips = 0
        #: Only this worker's single I/O thread touches it, so a plain
        #: counter is race-free where a backend-global one would not be.
        self.request_id = 0
        self.gauge_lock = threading.Lock()
        self.recovering = False
        #: Set (to the refusal message) when revival permanently failed —
        #: budget exhausted or recovery refused.  A doomed worker is
        #: sticky-dead: later calls fail fast with the same message
        #: instead of re-running a recovery that cannot succeed.
        self.doomed: str | None = None

    def state(self) -> str:
        """healthy / recovering / degraded / dead (see ``health()``)."""
        if self.doomed is not None:
            return "dead"
        if self.recovering:
            return "recovering"
        if not self.alive:
            return "degraded"  # crash detected; next call revives it
        return "healthy"


class ProcessBackend(ShardBackend):
    """One forked worker process per shard, with supervision.

    Parameters
    ----------
    specs:
        One :class:`~repro.cluster.worker.WorkerSpec` per shard.
    recover:
        Cube-supplied callback ``recover(shard)`` that rebuilds a freshly
        forked worker's state (snapshot restore + WAL tail replay +
        clock re-alignment).  Called under the supervisor lock after every
        respawn; it may itself issue RPCs to the new worker.
    config:
        The :class:`~repro.cluster.backends.ClusterConfig` knobs.
    """

    name = "process"

    def __init__(
        self,
        specs: list[WorkerSpec],
        recover: Callable[[int], None],
        config: ClusterConfig,
    ) -> None:
        if not specs:
            raise ServiceError("process backend needs at least one shard")
        self.config = config
        self._specs = specs
        self._recover = recover
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.RLock()
        self._closed = False
        self._restarts_total = 0
        self._health_version = 0
        self._workers = [
            _Worker(i, config.queue_depth) for i in range(len(specs))
        ]
        try:
            for worker in self._workers:
                self._spawn(worker)
            # The startup pings double as liveness checks and populate the
            # piggybacked counters before the first property read.
            for worker in self._workers:
                self.submit(worker.index, "ping").result()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        """Fork one worker and wire up its socket (lock held by caller)."""
        parent_sock, child_sock = socket.socketpair()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_sock, self._specs[worker.index], parent_sock),
            daemon=True,
            name=f"repro-shard-{worker.index}",
        )
        process.start()
        child_sock.close()
        parent_sock.settimeout(self.config.rpc_timeout)
        worker.process = process
        worker.sock = parent_sock
        worker.alive = True
        worker.epoch += 1
        self._health_version += 1

    def _mark_dead(self, worker: _Worker) -> None:
        """Declare a worker lost: kill it, close its socket, fail fast.

        Deliberately lock-free (simple flag/fd operations only): it runs
        on the worker's I/O thread, which must never wait on the
        supervisor lock a reviving caller may hold while awaiting that
        same thread.
        """
        worker.alive = False
        self._health_version += 1
        sock = worker.sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _revive(self, shard: int) -> None:
        """Respawn a dead worker and rebuild its state (may recurse into
        itself via the recovery RPCs, bounded by the restart budget)."""
        with self._lock:
            if self._closed:
                raise ServiceError("process backend is closed")
            worker = self._workers[shard]
            if worker.alive:
                return
            if worker.doomed is not None:
                # Sticky-dead: revival already failed permanently; repeat
                # the original refusal instead of re-running a recovery
                # that cannot succeed (and burning more budget on it).
                raise ServiceError(worker.doomed)
            if worker.restarts >= self.config.max_restarts:
                worker.doomed = (
                    f"shard worker {shard} exceeded its restart budget "
                    f"({self.config.max_restarts}); giving up"
                )
                self._health_version += 1
                raise ServiceError(worker.doomed)
            worker.restarts += 1
            self._restarts_total += 1
            worker.recovering = True
            self._health_version += 1
            try:
                self._spawn(worker)
                try:
                    self._recover(shard)
                except WorkerCrash:
                    # Died again mid-recovery: burn another restart.
                    self._revive(shard)
                except BaseException as exc:
                    # Recovery refused or failed: the fresh worker holds
                    # no state.  Doom it so every later call keeps
                    # failing loudly (with the original reason) instead
                    # of silently answering from an empty shard.
                    worker.doomed = str(exc) or repr(exc)
                    self._mark_dead(worker)
                    raise
            finally:
                worker.recovering = False
                self._health_version += 1

    def _ensure_alive(self, shard: int) -> None:
        if not self._workers[shard].alive:
            self._revive(shard)

    def kill_worker(self, shard: int) -> int:
        """SIGKILL one worker (chaos testing); returns the killed pid.

        Detection is deliberately left to the next RPC — that path *is*
        what the chaos scenarios exercise.
        """
        process = self._workers[shard].process
        if process is None or process.pid is None:
            raise ServiceError(f"shard worker {shard} has no process")
        os.kill(process.pid, signal.SIGKILL)
        return process.pid

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._workers)

    def submit(self, shard: int, method: str, *args: Any) -> Future:
        """Queue one request (bounded, FIFO); the future may fail with
        :class:`WorkerCrash`.

        Deliberately does *not* revive a dead worker: revival replays the
        WAL, so it must only happen while no journaled work is queued
        behind it.  ``call`` / ``settle`` revive at result time — after
        every submission of the current logical operation is in — which
        keeps a revived worker from ever double-applying a batch its
        replay already covered.  A submit against a dead worker simply
        yields a fast-failing future.
        """
        if self._closed:
            raise ServiceError("process backend is closed")
        worker = self._workers[shard]
        payload = wire.encode_args(method, args)
        worker.slots.acquire()  # backpressure: bounded per-worker queue
        with worker.gauge_lock:
            worker.inflight += 1
            worker.high_water = max(worker.high_water, worker.inflight)
        epoch = worker.epoch
        try:
            return worker.executor.submit(
                self._roundtrip, worker, epoch, method, payload
            )
        except BaseException:
            self._release_slot(worker)
            raise

    @staticmethod
    def _release_slot(worker: _Worker) -> None:
        with worker.gauge_lock:
            worker.inflight -= 1
        worker.slots.release()

    def _roundtrip(
        self, worker: _Worker, epoch: int, method: str, payload: list
    ) -> Any:
        """One request/reply exchange on the worker's I/O thread."""
        try:
            if not worker.alive or worker.epoch != epoch:
                # Queued behind a crash (or a restart): the supervisor
                # already rebuilt state past this request's epoch.
                raise WorkerCrash(f"shard worker {worker.index} restarted")
            worker.request_id += 1
            request_id = worker.request_id
            sock = worker.sock
            try:
                # Each worker has its own I/O thread: key the rpc fault
                # sites per shard so scheduling cannot move a fault.
                with faults.scope(worker.index):
                    wire.send_frame(
                        sock, {"id": request_id, "m": method, "a": payload}
                    )
                    reply = wire.recv_frame(sock)
            except OSError as exc:  # timeout, reset, EOF mid-frame
                self._mark_dead(worker)
                raise WorkerCrash(
                    f"shard worker {worker.index} failed during "
                    f"{method}: {exc}"
                ) from None
            if reply is None or reply.get("id") != request_id:
                self._mark_dead(worker)
                raise WorkerCrash(
                    f"shard worker {worker.index} closed its channel "
                    f"during {method}"
                )
            worker.round_trips += 1
            counters = reply.get("c")
            if counters is not None:
                worker.counters = counters
            if not reply["ok"]:
                raise wire.error_from_wire(reply["t"], reply["e"])
            return wire.decode_result(method, reply.get("v"))
        finally:
            self._release_slot(worker)

    def call(self, shard: int, method: str, *args: Any) -> Any:
        """Invoke one shard, absorbing worker crashes by classification.

        Idempotent retries back off geometrically after the first (the
        restart budget bounds the loop either way).  A typed
        :class:`CorruptionError` from an idempotent read triggers one
        shard rebuild — respawn + snapshot restore + WAL-tail replay,
        which re-derives and re-puts every post-snapshot cold page — and
        a retry; corruption that survives the rebuild escalates.
        """
        retries = 0
        rebuilt = False
        while True:
            try:
                return self.submit(shard, method, *args).result()
            except WorkerCrash:
                outcome = self._after_crash(shard, method)
                if outcome is not None:
                    return None
                # Idempotent: loop and retry against the revived worker
                # (the restart budget bounds this loop).
                if retries:
                    time.sleep(
                        min(
                            _BACKOFF_BASE * (2 ** (retries - 1)),
                            _BACKOFF_CAP,
                        )
                    )
                retries += 1
            except CorruptionError:
                if wire.classify(method) != wire.IDEMPOTENT or rebuilt:
                    raise
                rebuilt = True
                self._mark_dead(self._workers[shard])
                self._ensure_alive(shard)
            except StorageError as exc:
                if not rebuilt:
                    raise
                raise CorruptionError(
                    f"shard {shard} data lost: rebuild from snapshot + "
                    f"WAL replay could not restore it ({exc})"
                ) from exc

    def _after_crash(self, shard: int, method: str) -> bool | None:
        """Recover from a crashed call; ``True`` = treat as applied,
        ``None`` = retry."""
        classification = wire.classify(method)
        if classification == wire.UNRECOVERABLE:
            raise ServiceError(
                f"shard worker {shard} died during {method}, which is "
                "neither journaled nor idempotent; cube state is not "
                "automatically recoverable"
            )
        self._ensure_alive(shard)
        if classification == wire.REPLAY_COVERED:
            # Journaled before dispatch: the revival's WAL replay already
            # applied it on the fresh worker.
            return True
        return None

    def settle(self, shard: int, method: str, args: tuple, future: Future) -> Any:
        """Resolve one submitted future, absorbing crashes like ``call``."""
        try:
            return future.result()
        except WorkerCrash:
            outcome = self._after_crash(shard, method)
            if outcome is not None:
                return None
            return self.call(shard, method, *args)
        except CorruptionError:
            if wire.classify(method) != wire.IDEMPOTENT:
                raise
            # One rebuild, then ``call``'s own corruption handling takes
            # over (it escalates if the rebuilt shard still cannot read).
            self._mark_dead(self._workers[shard])
            return self.call(shard, method, *args)

    def map(self, method: str, args_list: list[tuple]) -> list:
        futures = [
            self.submit(shard, method, *args)
            for shard, args in enumerate(args_list)
        ]
        return [
            self.settle(shard, method, args_list[shard], future)
            for shard, future in enumerate(futures)
        ]

    def broadcast_partial(
        self, method: str, *args: Any
    ) -> tuple[list, list[dict[str, Any]]]:
        """Broadcast an idempotent read, tolerating dead shards.

        Returns ``(results, missing)``: a per-shard result list with
        ``None`` holes, and one descriptor per unreachable shard carrying
        its index, the failure reason and the shard's last known quarter
        (its staleness bound — everything through that quarter was merged
        into answers before the shard was lost).  Only shard-death
        :class:`ServiceError`\\ s and :class:`CorruptionError`\\ s become
        holes; a domain error from a healthy shard still raises.
        """
        futures = [
            self.submit(shard, method, *args)
            for shard in range(len(self._workers))
        ]
        results: list[Any] = []
        missing: list[dict[str, Any]] = []
        for shard, future in enumerate(futures):
            worker = self._workers[shard]
            try:
                results.append(self.settle(shard, method, args, future))
            except CorruptionError as exc:
                results.append(None)
                missing.append(self._missing(worker, exc))
            except ServiceError as exc:
                if worker.alive and worker.doomed is None:
                    raise  # not a shard-death error: surface it
                results.append(None)
                missing.append(self._missing(worker, exc))
        return results, missing

    @staticmethod
    def _missing(worker: _Worker, exc: Exception) -> dict[str, Any]:
        return {
            "shard": worker.index,
            "state": worker.state(),
            "reason": str(exc),
            "last_quarter": worker.counters[0],
        }

    def health(self) -> list[dict[str, Any]]:
        """Per-shard health: healthy / recovering / degraded / dead.

        ``degraded`` means the crash was detected but the next call will
        attempt revival; ``dead`` means revival permanently failed
        (sticky).  ``last_quarter`` is the shard's staleness bound.
        """
        return [
            {
                "shard": worker.index,
                "state": worker.state(),
                "restarts": worker.restarts,
                "last_quarter": worker.counters[0],
                "reason": worker.doomed,
            }
            for worker in self._workers
        ]

    def health_version(self) -> int:
        """Bumped on every shard health transition (cache invalidation)."""
        return self._health_version

    def counters(self) -> list[list[int]]:
        return [worker.counters for worker in self._workers]

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "workers": len(self._workers),
            "pids": [
                worker.process.pid if worker.process is not None else None
                for worker in self._workers
            ],
            "restarts": self._restarts_total,
            "rpc_round_trips": sum(
                worker.round_trips for worker in self._workers
            ),
            "queue_high_water": [
                worker.high_water for worker in self._workers
            ],
            "health": [worker.state() for worker in self._workers],
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> dict[str, Any]:
        """Graceful drain: finish queued work, shut workers down, reap.

        The shutdown RPC rides the same FIFO executor as normal requests,
        so everything already queued completes first; workers that do not
        exit in time are killed.  Dead and doomed workers are reaped
        silently — a sticky-dead shard must never make shutdown raise —
        and the returned summary names them: ``{"backend", "drained",
        "reaped": [shard...], "doomed": {shard: reason}}``.
        """
        with self._lock:
            if self._closed:
                return {
                    "backend": self.name,
                    "drained": 0,
                    "reaped": [],
                    "doomed": {},
                }
            self._closed = True
        reaped = [w.index for w in self._workers if not w.alive]
        doomed = {
            w.index: w.doomed
            for w in self._workers
            if w.doomed is not None
        }
        shutdowns = []
        for worker in self._workers:
            if not worker.alive:
                continue
            # A stuck queue (requests piled behind a stall) must not
            # wedge shutdown: skip the polite RPC and fall through to
            # the kill below.
            if not worker.slots.acquire(timeout=self.config.rpc_timeout):
                continue
            with worker.gauge_lock:
                worker.inflight += 1
            shutdowns.append(
                (
                    worker,
                    worker.executor.submit(
                        self._roundtrip,
                        worker,
                        worker.epoch,
                        "shutdown",
                        [],
                    ),
                )
            )
        for worker, future in shutdowns:
            try:
                future.result()
            except Exception:
                pass
        for worker in self._workers:
            process = worker.process
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
            if worker.sock is not None:
                try:
                    worker.sock.close()
                except OSError:
                    pass
            worker.alive = False
            worker.executor.shutdown(wait=True)
        return {
            "backend": self.name,
            "drained": len(shutdowns),
            "reaped": reaped,
            "doomed": doomed,
        }
