"""Shard execution: N engines in this process behind a thread pool.

:class:`ShardHost` wraps one :class:`~repro.stream.engine.StreamCubeEngine`
behind an allowlisted method surface, and :class:`InprocBackend` drives N
hosts for :class:`~repro.service.sharding.ShardedStreamCube`: single-shard
calls run inline on the caller's thread, fan-outs on a pool.  Nothing is
serialized, so results are bit-identical to the engines' by construction.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from repro import faults
from repro.errors import ServiceError, StorageError
from repro.io import engine_state_to_dict, write_atomic
from repro.stream.engine import StreamCubeEngine

__all__ = ["InprocBackend", "ShardHost"]

#: Methods delegated verbatim to the shard engine.
_ENGINE_METHODS = frozenset(
    {
        "apply_segments",
        "advance_to",
        "ingest",
        "validate_segment_keys",
        "prune_idle",
        "window_isbs",
        "m_cells",
        "change_exceptions",
        "change_exceptions_between",
        "snapshot",
        "load_state",
        "storage_stats",
        "compact_storage",
        "drop_page_cache",
    }
)
#: Methods the host itself implements.
_HOST_METHODS = frozenset({"snapshot_to_file"})


class ShardHost:
    """One shard engine plus the invocation surface the backend drives.

    ``shard`` is the engine's shard index; every invocation runs under
    ``faults.scope(shard)``, so injected faults count each shard's
    operations on their own (see :mod:`repro.faults.plan`).
    """

    def __init__(
        self, engine: StreamCubeEngine, shard: int | None = None
    ) -> None:
        self.engine = engine
        self.shard = shard

    def counters(self) -> list[int]:
        """``[current_quarter, records_ingested, tracked_cells]``."""
        engine = self.engine
        return [
            engine.current_quarter,
            engine.records_ingested,
            engine.tracked_cells,
        ]

    def invoke(self, method: str, args: tuple) -> Any:
        """Run one allowlisted method."""
        if method in _ENGINE_METHODS:
            target = getattr(self.engine, method)
        elif method in _HOST_METHODS:
            target = getattr(self, method)
        else:
            raise ServiceError(f"unknown shard method {method!r}")
        with faults.scope(self.shard):
            return target(*args)

    def snapshot_to_file(self, path: str) -> None:
        """Extract and atomically write this shard's engine state.

        The write is temp-file + fsync + rename, so a crash mid-snapshot
        leaves no torn file.
        """
        write_atomic(
            path, json.dumps(engine_state_to_dict(self.engine.snapshot()))
        )


class InprocBackend:
    """Engines in this process, a pool for fan-out.

    ``call`` is a synchronous single-shard invocation on the caller's
    thread; ``map`` fans one method over every shard with per-shard
    arguments; ``broadcast`` is ``map`` with identical arguments.
    """

    def __init__(
        self,
        engines: list[StreamCubeEngine],
        max_workers: int | None = None,
    ) -> None:
        self.hosts = [
            ShardHost(engine, shard) for shard, engine in enumerate(engines)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=(
                max_workers if max_workers is not None else len(engines)
            ),
            thread_name_prefix="repro-shard",
        )

    @property
    def engines(self) -> list[StreamCubeEngine]:
        """The live shard engines (tests and diagnostics reach through)."""
        return [host.engine for host in self.hosts]

    @property
    def n_shards(self) -> int:
        return len(self.hosts)

    def call(self, shard: int, method: str, *args: Any) -> Any:
        return self.hosts[shard].invoke(method, args)

    def map(self, method: str, args_list: list[tuple]) -> list:
        futures = [
            self._pool.submit(host.invoke, method, args)
            for host, args in zip(self.hosts, args_list)
        ]
        return [future.result() for future in futures]

    def broadcast(self, method: str, *args: Any) -> list:
        return self.map(method, [args] * self.n_shards)

    def broadcast_partial(
        self, method: str, *args: Any
    ) -> tuple[list, list[dict[str, Any]]]:
        """Broadcast an idempotent read, tolerating unreadable cold data.

        Returns ``(results, missing)``: ``results`` has a ``None`` hole per
        shard whose cold tier could not serve the read, and ``missing``
        describes each hole (shard index, state, reason, ``last_quarter``
        staleness bound).  A checksum failure quarantines the page
        (:class:`~repro.errors.CorruptionError`); later reads of it find
        no page (:class:`~repro.errors.StorageError`), so both are holes.
        """
        # Submit every shard first, then settle: degraded reads fan out in
        # parallel like healthy ones, instead of serializing on the holes.
        futures: list[Future] = [
            self._pool.submit(host.invoke, method, args) for host in self.hosts
        ]
        results: list[Any] = []
        missing: list[dict[str, Any]] = []
        for shard, future in enumerate(futures):
            try:
                results.append(future.result())
            except StorageError as exc:
                results.append(None)
                missing.append(
                    {
                        "shard": shard,
                        "state": "degraded",
                        "reason": str(exc),
                        "last_quarter": self.hosts[shard].counters()[0],
                    }
                )
        return results, missing

    def counters(self) -> list[list[int]]:
        return [host.counters() for host in self.hosts]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
