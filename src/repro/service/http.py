"""A stdlib JSON/HTTP front end for the sharded stream cube.

``python -m repro serve --shards N --port P`` binds a
:class:`ShardedStreamCube` + :class:`QueryRouter` pair behind
``http.server.ThreadingHTTPServer``.  The wire format reuses the
:mod:`repro.io` ISB codecs (``{"t_b", "t_e", "base", "slope"}`` objects,
``{"values", "isb"}`` cell rows), so responses round-trip through the same
loaders the checkpoint files use.

Endpoints
---------
``GET  /health``   liveness + shard/quarter/record counters
``GET  /healthz``  always 200: ``status`` plus per-shard descriptors
                   (state, ``last_quarter``)
``GET  /readyz``   readiness probe: 200 once the service answers (in-process
                   shards cannot die, so ``dead_shards`` is always empty)
``GET  /stats``    router cache/batch counters + partition-balance statistics
                   + durability counters (snapshots written, WAL seq)
                   + tiered-storage counters (cold pages, bytes on disk,
                   spill/fault activity; ``null`` without ``--storage-dir``)
``POST /ingest``   ``{"records": [{"values": [...], "t": int, "z": float}]}``
``POST /advance``  ``{"t": int}`` — seal quiet quarters
``POST /admin/snapshot``  write a cube snapshot to the configured
                   ``--snapshot-dir`` now; returns the manifest summary
``POST /query``    one query spec (``{"op": "cell" | "slice" | "roll_up" |
                   "drill_down" | "siblings" | "sibling_deviation" |
                   "top_slopes" | "observation_deck" | "watch_list",
                   ...spec fields}`` — see :mod:`repro.query.spec`), or a
                   batch ``{"queries": [spec, ...]}`` executed against one
                   merged view refresh with per-spec results and errors.
                   ``exceptions`` / ``change_exceptions`` are cube-level
                   ops served outside the spec engine.
``POST /subscribe``  register a continuous query: ``{"spec": {...}}`` or
                   ``{"watch": true}`` (o-layer exception alerts), with
                   ``every_seal: true`` / ``every_k_quarters: K`` and an
                   optional ``queue_limit`` (at most ``MAX_QUEUE_LIMIT``;
                   at most ``MAX_SUBSCRIPTIONS`` live at once); returns
                   the subscription id
``DELETE /subscribe/{id}``  drop a subscription
``GET  /subscriptions``  the registered subscriptions + delivery counters
``GET  /updates?subscription=ID&since=SEQ[&timeout=S]``  long-poll pushed
                   updates with ``seq > SEQ``; waits up to ``timeout``
                   seconds for a fresh seal before answering empty

Degraded serving: the service turns on the cube's ``degraded_reads`` mode,
so a query some shard cannot serve (its cold page failed a checksum and
was quarantined) still answers 200 with the other shards' exact union plus
a ``"degraded"`` block naming each missing shard and the staleness bound —
never a 500.

The query path is a pure decode → execute → encode shim over
:meth:`repro.service.router.QueryRouter.execute`; all validation lives in
the specs, so the Python API and the wire raise identical errors.  Domain
errors map to 400 with ``{"error", "type"}``; unknown routes to 404.  A
``Content-Length`` that is not a non-negative integer answers 400, and a
body over :data:`MAX_BODY_BYTES` answers 413 without being read.

Concurrency: requests are handled in parallel on a bounded thread pool
(``--request-threads``).  Only the *mutators* — ingest, advance, and the
snapshot admin route — serialize on the service's mutator lock (WAL
appends, snapshot triggers and WAL compaction stay totally ordered);
queries run lock-free against the router's epoch-vector-validated cache,
and the probes (``/health``, ``/healthz``, ``/readyz``, ``/stats``) touch
no lock at all, so they answer promptly even while a heavy ingest batch
is applying.  Consistency under this parallelism lives in the cube's
per-shard reader-writer locks and the router's single-flight cache — see
:mod:`repro.service.sharding` and :mod:`repro.service.router`.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Hashable, Mapping
from urllib.parse import parse_qsl

from repro.errors import ReproError, ServiceError
from repro.io import cells_to_payload, spec_from_dict
from repro.regression.isb import ISB
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import SubscriptionRegistry
from repro.stream.records import StreamRecord

__all__ = ["MAX_BODY_BYTES", "StreamCubeService", "make_server", "serve"]

Values = tuple[Hashable, ...]

#: Largest request body the handler reads; a larger declared
#: ``Content-Length`` is answered 413 and the body is never read.
MAX_BODY_BYTES = 16 * 1024 * 1024


def _values_of(payload: Any) -> Values:
    if not isinstance(payload, list):
        raise ServiceError(f"'values' must be a list, got {type(payload).__name__}")
    return tuple(payload)


def _exceptions_payload(
    retained: dict[tuple[int, ...], dict[Values, ISB]],
) -> list[dict[str, Any]]:
    return [
        {"coord": list(coord), "cells": cells_to_payload(cells)}
        for coord, cells in retained.items()
    ]


class StreamCubeService:
    """The transport-free application object behind the HTTP handler.

    Keeping request dispatch off the socket (``handle(method, path,
    payload)`` → ``(status, body)``) makes the whole service unit-testable
    without binding a port; the HTTP handler below is a thin shell.

    Durability configuration (all optional):

    snapshot_dir:
        Where ``POST /admin/snapshot``, the periodic trigger, and the
        graceful-shutdown hook write cube snapshots.  ``None`` disables
        all three.
    snapshot_every_quarters:
        Write a snapshot automatically whenever the quarter clock has
        advanced this many quarters since the last one (checked after each
        ingest/advance; 0 disables the periodic trigger).  Each snapshot
        compacts the cube's WAL through the sequence number the snapshot
        captured.
    app_config:
        Recorded verbatim under the manifest's ``"app"`` key — the serving
        CLI stores its schema flags there so ``--restore`` can rebuild an
        identical service.
    subscription_queue:
        Per-subscription update-queue bound for the continuous-query
        registry (drop-oldest beyond it; ``--subscription-queue`` on the
        serving CLI).
    """

    def __init__(
        self,
        cube: ShardedStreamCube,
        router: QueryRouter,
        snapshot_dir: str | Path | None = None,
        snapshot_every_quarters: int = 0,
        app_config: Mapping[str, Any] | None = None,
        subscription_queue: int = 16,
    ) -> None:
        if snapshot_every_quarters < 0:
            raise ServiceError(
                "snapshot_every_quarters must be >= 0, got "
                f"{snapshot_every_quarters}"
            )
        if snapshot_every_quarters and snapshot_dir is None:
            raise ServiceError(
                "snapshot_every_quarters needs a snapshot_dir to write to"
            )
        self.cube = cube
        # The service prefers answering with what it has over refusing:
        # merged reads tolerate lost shards and annotate the response.
        cube.degraded_reads = True
        self.router = router
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.snapshot_every_quarters = snapshot_every_quarters
        self.app_config = dict(app_config) if app_config else None
        self.snapshots_written = 0
        self._last_snapshot_quarter = cube.current_quarter
        # Serializes the *mutating* routes only (WAL appends, snapshot
        # triggers, WAL compaction happen in one total order); reads and
        # probes never take it.
        self._mutator_lock = threading.Lock()
        self.subscriptions = SubscriptionRegistry(
            router, queue_limit=subscription_queue
        )

    def close(self) -> None:
        """Release the cube's pool and the WAL file handle."""
        self.subscriptions.close()
        self.cube.close()
        if self.cube.wal is not None:
            self.cube.wal.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; returns ``(http_status, json_body)``.

        Query-string parameters (``/updates?subscription=...&since=N``)
        are merged into the payload dict; an explicit payload key wins.
        """
        path, _, query = path.partition("?")
        if query:
            payload = {**dict(parse_qsl(query)), **(payload or {})}
        routes = {
            ("GET", "/health"): (self.health, False),
            ("GET", "/healthz"): (self.healthz, False),
            ("GET", "/readyz"): (self.readyz, False),
            ("GET", "/stats"): (self.stats, False),
            ("GET", "/subscriptions"): (self.list_subscriptions, False),
            ("GET", "/updates"): (self.updates, False),
            ("POST", "/ingest"): (self.ingest, True),
            ("POST", "/advance"): (self.advance, True),
            ("POST", "/query"): (self.query, False),
            ("POST", "/subscribe"): (self.subscribe, False),
            ("POST", "/admin/snapshot"): (self.admin_snapshot, True),
        }
        route = routes.get((method, path))
        if route is None and method == "DELETE" and path.startswith("/subscribe/"):
            sub_id = path[len("/subscribe/"):]
            route = (lambda _payload: self.unsubscribe(sub_id), False)
        if route is None:
            return 404, {"error": f"no route {method} {path}", "type": "NotFound"}
        handler, mutates = route
        try:
            if mutates:
                with self._mutator_lock:
                    body = handler(payload or {})
            else:
                body = handler(payload or {})
            # A route may pick its own status (unsubscribe answers 404);
            # everything else is a body dict wrapped in 200.
            if isinstance(body, tuple):
                return body
            return 200, body
        except ReproError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except (KeyError, TypeError, ValueError) as exc:
            # Missing / mistyped payload fields that slipped past explicit
            # validation: still the client's fault, never a dead socket.
            return 400, {
                "error": f"malformed request payload: {exc!r}",
                "type": "BadRequest",
            }

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def health(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "status": "ok",
            "shards": self.cube.n_shards,
            "current_quarter": self.cube.current_quarter,
            "records_ingested": self.cube.records_ingested,
            "tracked_cells": self.cube.tracked_cells,
        }

    def healthz(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Always 200: the per-shard picture."""
        return {"status": "ok", "shards": self.cube.health()}

    def readyz(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Readiness: the service answers, so it is ready."""
        return {
            "ready": True,
            "shards": self.cube.n_shards,
            "dead_shards": [],
        }

    def _degraded_block(self) -> dict[str, Any] | None:
        """The response annotation for a partially-answered query.

        Drains what this request's merged reads skipped
        (:meth:`ShardedStreamCube.consume_degraded`), so holes never leak
        into an unrelated response.  ``staleness_bound`` is the oldest
        ``last_quarter`` across the missing shards: data owned by them is
        current only up to that quarter.
        """
        holes = self.cube.consume_degraded()
        if not holes:
            return None
        rows = sorted(holes, key=lambda row: row["shard"])
        return {
            "missing": rows,
            "staleness_bound": min(row["last_quarter"] for row in rows),
        }

    def stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "router": self.router.stats(),
            "subscriptions": self.subscriptions.stats(),
            "shard_cells": self.cube.shard_cells,
            "ticks_per_quarter": self.cube.ticks_per_quarter,
            "storage": self.cube.storage_stats(),
            "durability": {
                "snapshot_dir": (
                    str(self.snapshot_dir) if self.snapshot_dir else None
                ),
                "snapshot_every_quarters": self.snapshot_every_quarters,
                "snapshots_written": self.snapshots_written,
                "last_snapshot_quarter": self._last_snapshot_quarter,
                "wal_seq": (
                    self.cube.wal.last_seq
                    if self.cube.wal is not None
                    else None
                ),
            },
        }

    def ingest(self, payload: dict[str, Any]) -> dict[str, Any]:
        rows = payload.get("records")
        if not isinstance(rows, list):
            raise ServiceError("ingest payload needs a 'records' list")
        try:
            records = [
                StreamRecord(
                    values=_values_of(row["values"]),
                    t=int(row["t"]),
                    z=float(row["z"]),
                )
                for row in rows
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed record in batch: {exc}") from exc
        count = self.cube.ingest_batch(records)
        self._maybe_snapshot()
        return {
            "ingested": count,
            "current_quarter": self.cube.current_quarter,
        }

    def advance(self, payload: dict[str, Any]) -> dict[str, Any]:
        try:
            t = int(payload["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError("advance payload needs an integer 't'") from exc
        self.cube.advance_to(t)
        self._maybe_snapshot()
        return {"current_quarter": self.cube.current_quarter}

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def admin_snapshot(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self.write_snapshot()

    def write_snapshot(self) -> dict[str, Any]:
        """Snapshot the cube to ``snapshot_dir`` and compact the WAL.

        The WAL is truncated through the sequence number the snapshot
        captured — everything at or below it is durable in the snapshot,
        so the journal shrinks back to the unsealed tail.  Callers hold
        the mutator lock (the HTTP route) or own the service exclusively
        (the shutdown hook), so no ingest can land between the snapshot
        and the truncation; the cube's own write mutex + read locks give
        the snapshot its quiescent cut, with queries still flowing.
        """
        if self.snapshot_dir is None:
            raise ServiceError(
                "no snapshot directory configured (serve with --snapshot-dir)"
            )
        manifest = self.cube.snapshot(self.snapshot_dir, extra=self.app_config)
        if self.cube.wal is not None:
            self.cube.wal.truncate_through(manifest["wal_seq"])
        # Groom cold storage on the checkpoint cadence: superseded page
        # versions and stale partition generations go when the journal does.
        self.cube.compact_storage()
        self.snapshots_written += 1
        self._last_snapshot_quarter = self.cube.current_quarter
        return {
            "path": str(self.snapshot_dir),
            "shards": manifest["n_shards"],
            "current_quarter": manifest["current_quarter"],
            "tracked_cells": manifest["tracked_cells"],
            "records_ingested": manifest["records_ingested"],
            "wal_seq": manifest["wal_seq"],
        }

    def _maybe_snapshot(self) -> None:
        """The periodic trigger: snapshot when K quarters sealed since the
        last one (runs under the service lock, after ingest/advance)."""
        if self.snapshot_dir is None or not self.snapshot_every_quarters:
            return
        elapsed = self.cube.current_quarter - self._last_snapshot_quarter
        if elapsed >= self.snapshot_every_quarters:
            self.write_snapshot()

    def query(self, payload: dict[str, Any]) -> dict[str, Any]:
        body = self._query_body(payload)
        degraded = self._degraded_block()
        if degraded is not None:
            body["degraded"] = degraded
        return body

    def _query_body(self, payload: dict[str, Any]) -> dict[str, Any]:
        # Batch form: N specs, one merged view refresh per window/epoch,
        # per-spec results *and* errors.
        if "queries" in payload:
            entries = payload["queries"]
            if not isinstance(entries, list):
                raise ServiceError("'queries' must be a list of query specs")
            items = self.router.execute_batch(entries)
            return {"count": len(items), "results": [it.to_dict() for it in items]}

        # Cube-level ops that are not view operations (no spec class).
        op = payload.get("op")
        if op == "exceptions":
            window = payload.get("window")
            window = int(window) if window is not None else None
            return {
                "op": op,
                "cuboids": _exceptions_payload(self.router.exceptions(window)),
            }
        if op == "change_exceptions":
            cells = self.router.change_exceptions(
                int(payload.get("quarters_apart", 1)),
                str(payload.get("layer", "m")),
            )
            return {"op": op, "cells": cells_to_payload(cells)}

        # Everything else is a spec: decode -> execute -> encode.
        return self.router.execute(spec_from_dict(payload)).to_dict()

    # ------------------------------------------------------------------
    # Continuous queries (subscription push)
    # ------------------------------------------------------------------
    def subscribe(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Register a continuous query; delivery starts at the next seal."""
        sub_id = self.subscriptions.subscribe_payload(payload)
        return {"subscription": sub_id}

    def unsubscribe(
        self, sub_id: str
    ) -> dict[str, Any] | tuple[int, dict[str, Any]]:
        if not self.subscriptions.unsubscribe(sub_id):
            return 404, {
                "error": f"unknown subscription {sub_id!r}",
                "type": "NotFound",
            }
        return {"removed": sub_id}

    def list_subscriptions(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"subscriptions": self.subscriptions.describe_all()}

    def updates(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Long-poll one subscription's queue.

        Runs without the mutator lock (and without any cube lock): the
        wait is on the registry's own condition, so a parked long-poll
        never delays ingest, sealing, or other requests beyond occupying
        one pool thread.
        """
        sub_id = payload.get("subscription")
        if not sub_id:
            raise ServiceError(
                "updates needs a ?subscription=ID query parameter"
            )
        since = int(payload.get("since", 0))
        timeout = float(payload.get("timeout", 0.0))
        return self.subscriptions.poll(str(sub_id), since, timeout)


class _Handler(BaseHTTPRequestHandler):
    """Thin socket shell around a :class:`StreamCubeService`."""

    service: StreamCubeService  # injected by make_server
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep the serving loop quiet; /stats carries the numbers

    def _respond(
        self, status: int, body: dict[str, Any], close: bool = False
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            # An unread or unframed body leaves the stream unusable.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, body = self.service.handle("GET", self.path)
        self._respond(status, body)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        status, body = self.service.handle("DELETE", self.path)
        self._respond(status, body)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._respond(
                400,
                {
                    "error": f"Content-Length must be a non-negative "
                    f"integer, got {declared!r}",
                    "type": "BadRequest",
                },
                close=True,
            )
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                {
                    "error": f"request body of {length} bytes exceeds "
                    f"{MAX_BODY_BYTES}",
                    "type": "PayloadTooLarge",
                },
                close=True,
            )
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            self._respond(
                400, {"error": f"invalid JSON body: {exc}", "type": "BadRequest"}
            )
            return
        if not isinstance(payload, dict):
            self._respond(
                400,
                {"error": "JSON body must be an object", "type": "BadRequest"},
            )
            return
        status, body = self.service.handle("POST", self.path, payload)
        self._respond(status, body)


class _PooledHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with a *bounded* worker pool.

    ``ThreadingHTTPServer`` spawns one thread per connection, which under
    a query storm means unbounded threads all contending for the same
    shard read locks.  This subclass routes each accepted connection to a
    fixed-size :class:`ThreadPoolExecutor` instead: up to
    ``request_threads`` requests run concurrently (cache hits in
    parallel, reads sharing shard read locks) and the rest queue at the
    accept backlog — backpressure instead of thread explosion.

    Live connections are tracked so :meth:`server_close` can half-close
    them: a keep-alive handler idling for its next request reads EOF and
    exits, while a request already received still runs and answers.
    """

    def __init__(
        self,
        server_address: tuple[str, int],
        handler_class: type[BaseHTTPRequestHandler],
        request_threads: int = 8,
    ) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(request_threads)),
            thread_name_prefix="repro-http",
        )
        self._live: set[socket.socket] = set()
        self._live_mu = threading.Lock()
        super().__init__(server_address, handler_class)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._live_mu:
            self._live.add(request)
        # ThreadingMixIn would start a fresh thread here; reuse the pool.
        self._pool.submit(self.process_request_thread, request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._live_mu:
            self._live.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._live_mu:
            live = list(self._live)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass
        # The drain: every submitted request finishes before close returns.
        self._pool.shutdown(wait=True)


def make_server(
    service: StreamCubeService,
    host: str = "127.0.0.1",
    port: int = 8000,
    request_threads: int = 8,
) -> ThreadingHTTPServer:
    """A bound (not yet serving) pooled HTTP server for the service."""
    handler = type("ReproHandler", (_Handler,), {"service": service})
    return _PooledHTTPServer((host, port), handler, request_threads)


def serve(
    service: StreamCubeService,
    host: str = "127.0.0.1",
    port: int = 8000,
    request_threads: int = 8,
) -> None:
    """Serve until SIGTERM / SIGINT (Ctrl-C), then shut down gracefully.

    The serving loop runs on a background thread while the main thread
    waits for a stop signal; on SIGTERM/SIGINT the listener stops
    accepting, in-flight requests drain (``server_close`` joins the
    request threads), and — when the service has a ``snapshot_dir`` — a
    final snapshot is written so a clean shutdown is always restorable
    from disk, WAL already compacted.
    """
    server = make_server(service, host, port, request_threads)
    address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(
        f"repro stream-cube service on {address} "
        f"({service.cube.n_shards} shards, "
        f"{request_threads} request threads)"
    )
    stop = threading.Event()
    previous: list[tuple[signal.Signals, Any]] = []
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous.append(
                (sig, signal.signal(sig, lambda *_: stop.set()))
            )
    except ValueError:  # pragma: no cover - not the main thread (tests)
        pass
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    finally:
        print("shutting down: draining in-flight requests")
        server.shutdown()
        thread.join()
        server.server_close()  # joins request threads: the drain
        try:
            if service.snapshot_dir is not None:
                summary = service.write_snapshot()
                print(
                    f"final snapshot: {summary['path']} "
                    f"(quarter {summary['current_quarter']}, "
                    f"{summary['tracked_cells']} cells)"
                )
        except (ReproError, OSError) as exc:  # pragma: no cover - disk trouble
            print(f"final snapshot failed: {exc}", file=sys.stderr)
        finally:
            service.close()
            for sig, handler in previous:
                signal.signal(sig, handler)
