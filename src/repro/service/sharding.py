"""Hash-partitioned stream cubing: N independent engines, one logical cube.

Theorem 3.2 makes regression cells losslessly mergeable, so a stream cube can
be *partitioned by m-layer key*: each key's whole history lives on exactly one
:class:`~repro.stream.engine.StreamCubeEngine` shard, shards never exchange
state during ingestion, and any global view is an exact disjoint-union merge
(see :mod:`repro.service.merge`).  The shards run in this process behind a
thread pool (:class:`~repro.cluster.backends.InprocBackend`).

Equivalence guarantee (property-tested in ``tests/service``, and pinned by
the chaos catalogue): for any quarter-ordered workload, a
:class:`ShardedStreamCube` with *any* shard count produces bit-identical
m-layer ISBs and per-cell exception sets to a single engine fed the same
records — each cell's per-tick sums, sealing boundaries and tilt frame
evolve on its owner shard exactly as they would in the single engine.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.cluster.backends import InprocBackend
from repro.cube.lattice import PopularPath
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.errors import (
    CodecError,
    CorruptionError,
    ServiceError,
    StreamError,
)
from repro.io import (
    STATE_VERSION,
    check_format,
    decoding,
    engine_state_from_dict,
    engine_state_to_dict,
    payload_checksum,
    write_atomic,
)
from repro.regression.isb import ISB
from repro.service.locks import ShardLockTable
from repro.service.merge import disjoint_union
from repro.storage import (
    StorageConfig,
    open_shard_stores,
    prune_stale_generations,
)
from repro.stream.engine import (
    Algorithm,
    KeyFn,
    StreamCubeEngine,
    change_window_bounds,
    o_layer_change_from_windows,
    run_cubing,
    validate_quarter_order,
)
from repro.stream.records import StreamRecord
from repro.stream.state import EngineState
from repro.stream.wal import QuarterWAL
from repro.tilt.frame import TiltLevelSpec

__all__ = ["ShardedStreamCube", "stable_shard_index"]

Values = tuple[Hashable, ...]

_MANIFEST = "manifest.json"
_SNAPSHOT_FORMAT = "repro-snapshot"

#: Bound on the key -> shard routing cache (cleared wholesale
#: when exceeded; routing is a pure function, so the cache is only a
#: blake2b saver, never a correctness surface).
_ROUTE_CACHE_LIMIT = 1 << 20


def stable_shard_index(values: Values, n_shards: int) -> int:
    """The owning shard of one m-layer key.

    Python's built-in ``hash`` is salted per process for strings, which would
    scatter the same key to different shards across restarts.  An unkeyed
    blake2b digest over a canonical encoding is stable everywhere and cheap
    enough for the ingest path.
    """
    digest = hashlib.blake2b(
        b"\x1f".join(repr(value).encode("utf-8") for value in values)
        + b"\x1f",
        digest_size=8,
    )
    return int.from_bytes(digest.digest(), "big") % n_shards


def _repartition_states(
    states: list[EngineState], new_n: int
) -> list[EngineState]:
    """Re-partition aligned per-shard states over a new shard count.

    Each cell's :class:`~repro.stream.state.CellSnapshot` moves wholesale
    to its new owner (``stable_shard_index`` over the new count), so no ISB
    arithmetic happens at all — the re-partitioned cube is bit-identical by
    construction.  The lifetime record counter is a cube-level statistic
    whose per-shard split is meaningless after moving cells between shards;
    the aggregate is preserved by assigning it to shard 0.  Demoted spans
    (``cold_spans``) are level-granular and identical on every aligned
    shard, so they transfer to every new shard verbatim — the cold *pages*
    are re-partitioned separately by
    :func:`repro.storage.open_shard_stores`.
    """
    template = states[0]
    total_records = sum(state.records_ingested for state in states)
    cells: list[dict[Values, Any]] = [{} for _ in range(new_n)]
    for state in states:
        for key, cell in state.cells.items():
            cells[stable_shard_index(key, new_n)][key] = cell
    return [
        EngineState(
            ticks_per_quarter=template.ticks_per_quarter,
            frame_levels=template.frame_levels,
            current_quarter=template.current_quarter,
            records_ingested=total_records if i == 0 else 0,
            zero_frame=template.zero_frame.clone(),
            cells=cells[i],
            wal_seq=max(state.wal_seq for state in states),
            cold_spans=template.cold_spans,
        )
        for i in range(new_n)
    ]


class ShardedStreamCube:
    """One logical stream cube partitioned across N independent engines.

    Parameters mirror :class:`~repro.stream.engine.StreamCubeEngine`, plus:

    n_shards:
        Number of engine shards keys are hash-partitioned over.
    max_workers:
        Thread-pool width for per-shard dispatch (default: ``n_shards``).
    wal:
        Optional :class:`~repro.stream.wal.QuarterWAL` journaling the
        *cube-level* ingestion stream (batches before routing, explicit
        advances).  Shards never journal individually — replaying the cube
        journal re-routes every record to the same owner shard, so one log
        covers the whole cube.
    storage:
        Optional :class:`~repro.storage.StorageConfig`.  When given, each
        shard engine gets its own cold store under ``storage.root`` (one
        generation-tagged partition set per shard count — opening an
        existing set written under a *different* shard count re-partitions
        the cold pages, so resharding carries deep history along), sealed
        history past ``storage.hot_quarters`` spills to disk, and deep
        windows fault it back transparently.
    hot_quarters:
        Overrides ``storage.hot_quarters`` when given (the config default
        serves the common case).  Ignored without ``storage``.

    Concurrency discipline (the HTTP layer no longer serializes access):
    *mutators* (ingest / advance / prune / snapshot) are serialized by one
    write mutex — WAL appends and the quarter clock stay totally ordered —
    and additionally hold per-shard write locks while engine state actually
    changes: the touched shards for a mid-quarter batch, *every* shard when
    a quarter seals (so no reader ever observes shards with misaligned
    clocks).  *Merged reads* hold every shard's read lock for the duration
    of the fan-out — a consistent cut — and may run concurrently with each
    other and with the mutator's lock-free prelude (routing, journaling).
    :meth:`epoch_vector` names the cut: a reader that records the vector
    under its read locks can later validate a cached answer with one
    lock-free comparison.  Shards are kept quarter-aligned: any ingestion
    or advance that moves one shard's clock moves every shard's, exactly
    as a single engine seals every cell's quarter when any record crosses
    a boundary.
    """

    def __init__(
        self,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        n_shards: int = 4,
        key_fn: KeyFn | None = None,
        ticks_per_quarter: int = 15,
        frame_levels: Iterable[TiltLevelSpec] | None = None,
        max_workers: int | None = None,
        wal: QuarterWAL | None = None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
    ) -> None:
        # Lifecycle flags first: close() must be safe (and idempotent)
        # even when construction fails before any resource exists.
        self._closed = False
        self._stores = None
        self._backend: InprocBackend | None = None
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        self.layers = layers
        self.policy = policy
        self.wal = wal
        self._key_fn_arg = key_fn
        self.key_fn: KeyFn = key_fn if key_fn is not None else (
            lambda record: record.values
        )
        self.ticks_per_quarter = ticks_per_quarter
        levels = list(frame_levels) if frame_levels is not None else None
        self._storage_config = storage
        self._storage_generation = 0
        self.hot_quarters = (
            hot_quarters
            if hot_quarters is not None
            else (storage.hot_quarters if storage is not None else None)
        )
        self._route_cache: dict[Values, int] = {}
        self._snapshots_taken = 0
        #: When True, merged reads tolerate unreadable (quarantined) cold
        #: data and record what was missing instead of raising —
        #: the service layer's degraded-serving mode.  Off by default so
        #: library callers keep strict all-shards-or-error semantics.
        self.degraded_reads = False
        # Degraded-read holes accumulate per *thread*: concurrent queries
        # each drain only the holes their own merged reads produced, so one
        # response can never report (or steal) another's.
        self._degraded_local = threading.local()
        # One write mutex serializes mutators end to end (WAL order, the
        # quarter clock); per-shard RW locks fence readers from the engine
        # mutation window only.  The seal epoch below versions structural
        # changes the quarter clock cannot see (pruning, state loads,
        # degraded reads).
        self._write_mutex = threading.RLock()
        self._locks = ShardLockTable(n_shards)
        self._structure_version = 0
        # Concurrent degraded readers bump the version under shared read
        # locks; the increment must not lose updates (the vector must
        # stay monotone for cached answers to be sound).
        self._version_mu = threading.Lock()
        # Seal listeners fire after a sealing mutator has released every
        # shard write lock (still under the write mutex, so notifications
        # are totally ordered with the seals they announce).  Listeners
        # must be cheap and non-blocking — the subscription dispatcher
        # just flips an event; the seal path never waits on delivery.
        self._seal_listeners: list[Any] = []
        try:
            if storage is not None:
                self._storage_generation, self._stores = open_shard_stores(
                    storage, n_shards, stable_shard_index
                )
            engines = [
                StreamCubeEngine(
                    layers,
                    policy,
                    key_fn=key_fn,
                    ticks_per_quarter=ticks_per_quarter,
                    frame_levels=levels,
                    storage=self._stores[i] if self._stores else None,
                    hot_quarters=self.hot_quarters,
                )
                for i in range(n_shards)
            ]
            self._backend = InprocBackend(engines, max_workers)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the shard pool and any cold stores.

        Idempotent, and safe on a partially constructed cube (a failed
        ``__init__`` calls it with whatever subset of resources exists):
        every attribute is read defensively and closed at most once.
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        backend = getattr(self, "_backend", None)
        if backend is not None:
            backend.close()
        stores = getattr(self, "_stores", None)
        if stores is not None:
            for store in stores:
                try:
                    store.close()
                except Exception:
                    pass

    def __enter__(self) -> "ShardedStreamCube":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[StreamCubeEngine]:
        """The live shard engines (diagnostics and the test suite)."""
        return self._backend.engines

    @property
    def n_shards(self) -> int:
        return self._backend.n_shards

    @property
    def current_quarter(self) -> int:
        """The global quarter clock (shards are kept aligned)."""
        return max(c[0] for c in self._backend.counters())

    @property
    def records_ingested(self) -> int:
        return sum(c[1] for c in self._backend.counters())

    @property
    def tracked_cells(self) -> int:
        return sum(c[2] for c in self._backend.counters())

    @property
    def shard_cells(self) -> list[int]:
        """Tracked-cell count per shard (partition-balance diagnostics)."""
        return [c[2] for c in self._backend.counters()]

    def shard_index(self, values: Values) -> int:
        """The shard owning an m-layer key (cached: routing is pure)."""
        key = tuple(values)
        cache = self._route_cache
        idx = cache.get(key)
        if idx is None:
            if len(cache) >= _ROUTE_CACHE_LIMIT:
                cache.clear()
            idx = stable_shard_index(key, self._backend.n_shards)
            cache[key] = idx
        return idx

    def storage_stats(self) -> dict[str, Any] | None:
        """The cube's tiered-storage picture, or ``None`` without storage.

        Aggregates the per-shard engine counters (pages, rows, bytes on
        disk, spill/fault activity) and names the backend, partition-set
        generation and hot horizon — the ``/stats`` endpoint's ``storage``
        block.
        """
        if self._storage_config is None:
            return None
        per_shard = self._backend.broadcast("storage_stats")
        totals = {
            key: sum(stats[key] for stats in per_shard)
            for key in (
                "pages",
                "rows",
                "bytes_on_disk",
                "puts",
                "gets",
                "hot_cells",
                "cold_slots",
                "pages_spilled",
                "cold_faults",
                "read_retries",
                "write_repairs",
                "quarantined",
            )
        }
        totals.update(
            backend=self._storage_config.backend,
            generation=self._storage_generation,
            hot_quarters=self.hot_quarters,
            shards=per_shard,
        )
        return totals

    def compact_storage(self) -> int:
        """Compact every shard's cold store; returns total bytes reclaimed.

        Rewrites file partitions around superseded pages (or VACUUMs the
        sqlite stores) and removes partition sets left behind by earlier
        shard counts — safe here because this cube's generation is the
        newest by construction.  The periodic-checkpoint path calls this
        after each WAL truncation, so cold storage is groomed on the same
        cadence as the journal.
        """
        if self._storage_config is None:
            return 0
        freed = sum(self._backend.broadcast("compact_storage"))
        prune_stale_generations(
            self._storage_config, self._storage_generation
        )
        return freed

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, record: StreamRecord) -> None:
        """Ingest one record on its owner shard, keeping shards aligned."""
        with self._write_mutex:
            key = self.key_fn(record)
            idx = self.shard_index(key)
            backend = self._backend
            quarter = record.t // self.ticks_per_quarter
            if self.wal is not None:
                # Validate before journaling: a journaled record must never
                # fail on replay (the owner shard re-checks both conditions).
                if quarter < self.current_quarter:
                    raise StreamError(
                        f"record at t={record.t} belongs to sealed quarter "
                        f"{quarter} (current quarter is "
                        f"{self.current_quarter})"
                    )
                owner = backend.engines[idx]
                if key not in owner._cells:
                    owner.validate_cell_key(key)
                self.wal.append_batch([record], quarter)
            if quarter > self.current_quarter:
                # Sealing: every shard's clock moves, so every shard is
                # write-locked — no reader can observe a misaligned fleet.
                with self._locks.write_all():
                    backend.call(idx, "ingest", record)
                    self._align(
                        max(c[0] for c in backend.counters())
                    )
                self._notify_seal()
            else:
                # Mid-quarter: only the owner shard's state changes.
                with self._locks.write([idx]):
                    backend.call(idx, "ingest", record)

    def ingest_batch(self, records: Iterable[StreamRecord]) -> int:
        """Group a quarter-ordered batch per shard and dispatch in parallel.

        The batch obeys the same validation contract as
        :meth:`StreamCubeEngine.ingest_many` — quarters non-decreasing,
        none sealed — checked against the *global* order before any shard
        is touched, so a bad batch mutates nothing; with a WAL attached,
        cell keys are additionally schema-validated before the batch is
        journaled, so a rejected batch can never poison the log.
        Returns the number of records ingested.
        """
        batch = list(records)
        if not batch:
            return 0
        with self._write_mutex:
            return self._ingest_batch_locked(batch)

    def _ingest_batch_locked(self, batch: list[StreamRecord]) -> int:
        quarters = validate_quarter_order(
            batch, self.current_quarter, self.ticks_per_quarter
        )
        # One routing pass does all the per-record work: key once, hash
        # once (through the route cache), and bucket straight into the
        # per-quarter, per-cell groups the engines apply (so nothing
        # downstream touches records again).  The segment shape built here
        # must mirror what StreamCubeEngine.ingest_grouped builds — both
        # feed apply_segments' (quarter, {key: (ticks, values)}) contract.
        backend = self._backend
        n_shards = backend.n_shards
        key_fn = self.key_fn
        route_cache = self._route_cache
        segments: list[list] = [[] for _ in range(n_shards)]
        current: list = [None] * n_shards
        counts = [0] * n_shards
        for record, quarter in zip(batch, quarters):
            key = key_fn(record)
            idx = route_cache.get(key)
            if idx is None:
                if len(route_cache) >= _ROUTE_CACHE_LIMIT:
                    route_cache.clear()
                idx = stable_shard_index(key, n_shards)
                route_cache[key] = idx
            segment = current[idx]
            if segment is None or segment[0] != quarter:
                segment = (quarter, {})
                current[idx] = segment
                segments[idx].append(segment)
            groups = segment[1]
            group = groups.get(key)
            if group is None:
                groups[key] = group = ([], [])
            group[0].append(record.t)
            group[1].append(record.z)
            counts[idx] += 1
        if self.wal is not None:
            # Journal integrity: validate cell keys before the batch is
            # journaled, so the log can never hold a batch that would fail
            # on replay.  WAL-off skips the pass entirely.  Each engine
            # checks only the keys it has not seen.
            for engine, shard_segments in zip(backend.engines, segments):
                engine.validate_segment_keys(shard_segments)
            self.wal.append_batch(batch, quarters[-1])
        # Readers are fenced out only while engine state actually changes:
        # a sealing batch (its top quarter passes the cube clock) moves
        # every shard's clock, so it holds every write lock across apply +
        # align; a mid-quarter batch locks just the shards it touches.
        sealing = quarters[-1] > self.current_quarter
        if sealing:
            lock_ctx = self._locks.write_all()
        else:
            lock_ctx = self._locks.write(
                [i for i in range(n_shards) if segments[i]]
            )
        with lock_ctx:
            backend.map("apply_segments", list(zip(segments, counts)))
            if sealing:
                self._align(max(c[0] for c in backend.counters()))
        if sealing:
            self._notify_seal()
        return len(batch)

    def advance_to(self, t: int) -> None:
        """Seal quiet quarters on every shard in parallel (cf. the single
        engine's :meth:`~repro.stream.engine.StreamCubeEngine.advance_to`)."""
        with self._write_mutex:
            quarter = t // self.ticks_per_quarter
            sealing = quarter > self.current_quarter
            if self.wal is not None and sealing:
                self.wal.append_advance(t, quarter)
            if sealing:
                with self._locks.write_all():
                    self._backend.broadcast("advance_to", t)
                self._notify_seal()
            else:
                # Nothing can move (engines ignore a non-advancing t);
                # broadcast outside the shard locks so the no-op — and any
                # validation error it raises — stays off the read path.
                self._backend.broadcast("advance_to", t)

    def prune_idle(self, idle_quarters: int) -> int:
        """Drop idle cells on every shard; returns the total dropped."""
        with self._write_mutex, self._locks.write_all():
            dropped = sum(
                self._backend.broadcast("prune_idle", idle_quarters)
            )
            if dropped:
                # Pruning changes merged answers without moving the
                # quarter clock; bump the seal epoch so cached results
                # keyed on the old vector can never be served again.
                self._structure_version += 1
        return dropped

    def _align(self, quarter: int) -> None:
        """Bring every shard's clock to ``quarter`` (parallel no-op when
        already there)."""
        t = quarter * self.ticks_per_quarter
        self._backend.broadcast("advance_to", t)

    # ------------------------------------------------------------------
    # Seal notifications (continuous queries)
    # ------------------------------------------------------------------
    def add_seal_listener(self, listener) -> None:
        """Register ``listener(quarter)`` to fire after each seal commits.

        The callback runs on the sealing thread *outside* the shard write
        locks (the fleet is already aligned and readable) but inside the
        write mutex, so calls arrive in seal order with monotone quarters.
        It must not block: signal a worker thread and return.  A raising
        listener is detached rather than allowed to poison ingest.
        """
        with self._write_mutex:
            self._seal_listeners.append(listener)

    def remove_seal_listener(self, listener) -> None:
        """Detach a listener registered by :meth:`add_seal_listener`."""
        with self._write_mutex:
            try:
                self._seal_listeners.remove(listener)
            except ValueError:
                pass

    def _notify_seal(self) -> None:
        if not self._seal_listeners:
            return
        quarter = self.current_quarter
        for listener in list(self._seal_listeners):
            try:
                listener(quarter)
            except Exception:  # noqa: BLE001 - never poison the seal path
                self.remove_seal_listener(listener)

    # ------------------------------------------------------------------
    # Merged analysis (exact, Theorem 3.2 / 3.3)
    # ------------------------------------------------------------------
    def _merged(self, method: str, *args: Any) -> dict[Values, ISB]:
        """Disjoint-union one per-shard read across the fleet.

        Strict mode (the default) is the original behavior: every shard
        must answer or the error propagates.  With :attr:`degraded_reads`
        set, shards whose cold tier cannot serve the read become holes:
        the union covers the answering shards and each hole's descriptor
        accumulates for :meth:`consume_degraded` — partial results are
        exact for the shards present, since shards own disjoint key sets.
        A partial read also bumps the structure version, so no cached
        answer outlives it: repeats re-read and report the hole again.
        """
        with self._locks.read_all():
            backend = self._backend
            if not self.degraded_reads:
                return disjoint_union(backend.broadcast(method, *args))
            results, missing = backend.broadcast_partial(method, *args)
            if missing:
                with self._version_mu:
                    self._structure_version += 1
                holes = self._degraded_holes()
                seen = {entry["shard"] for entry in holes}
                holes.extend(
                    entry
                    for entry in missing
                    if entry["shard"] not in seen
                )
            return disjoint_union(
                [cells for cells in results if cells is not None]
            )

    def _degraded_holes(self) -> list[dict[str, Any]]:
        holes = getattr(self._degraded_local, "holes", None)
        if holes is None:
            holes = self._degraded_local.holes = []
        return holes

    def consume_degraded(self) -> list[dict[str, Any]]:
        """Drain the holes accumulated by *this thread's* merged reads.

        Each descriptor names the missing shard, its state, why it was
        skipped, and ``last_quarter`` — the staleness bound: data in
        that shard's keys is current only up to that quarter.  Holes are
        tracked per thread, so under concurrent queries each response
        drains exactly the holes its own reads produced.  Empty when every
        read since the last drain was complete.
        """
        drained = self._degraded_holes()
        self._degraded_local.holes = []
        return drained

    def health(self) -> list[dict[str, Any]]:
        """Per-shard descriptors: in-process shards cannot die, so each is
        ``healthy`` at its own quarter clock (``last_quarter``)."""
        return [
            {"shard": shard, "state": "healthy", "last_quarter": c[0]}
            for shard, c in enumerate(self._backend.counters())
        ]

    def epoch_vector(self) -> tuple[int, ...]:
        """The cube's read-consistency version: one lock-free tuple.

        ``(structure_version, q_0 .. q_{n-1})`` — the seal epoch of every
        shard plus the clock the quarter counters cannot see (pruning,
        state loads, degraded reads).  Any complete merged answer is a
        pure function of this vector, and a partial one moves it past the
        cut it was read at.  Quarter counters only move under every
        shard's write lock (sealing), so a vector recorded inside
        :meth:`read_lock` names the exact cut an answer was computed at,
        and a cached answer is still valid iff a later lock-free read
        returns the same vector.  A torn read during a seal can only
        produce a vector that matches *no* consistent cut (the counters
        move monotonically), which safely reads as "stale".
        """
        return (
            self._structure_version,
            *(c[0] for c in self._backend.counters()),
        )

    @contextmanager
    def read_lock(self) -> Iterator[tuple[int, ...]]:
        """Hold the merged-read cut; yields its :meth:`epoch_vector`.

        Reentrant per thread, so composite reads (a refresh plus change
        windows, say) share one consistent cut.
        """
        with self._locks.read_all():
            yield self.epoch_vector()

    def window_isbs(self, t_b: int, t_e: int) -> dict[Values, ISB]:
        """The merged m-layer over an arbitrary sealed window."""
        return self._merged("window_isbs", t_b, t_e)

    def m_cells(self, window_quarters: int = 4) -> dict[Values, ISB]:
        """The merged m-layer over the last ``window_quarters`` quarters.

        A disjoint union of the per-shard m-layers (shards own disjoint key
        sets), canonically ordered so the result is identical for every
        shard count.  The window bounds are fixed once under the read cut
        and broadcast as an explicit interval, so every shard answers for
        the *same* window by construction.
        """
        with self._locks.read_all():
            if self.current_quarter < window_quarters:
                raise StreamError(
                    f"only {self.current_quarter} quarters sealed; cannot "
                    f"form a {window_quarters}-quarter window"
                )
            t_e = self.current_quarter * self.ticks_per_quarter - 1
            t_b = t_e - window_quarters * self.ticks_per_quarter + 1
            return self._merged("window_isbs", t_b, t_e)

    def refresh(
        self,
        window_quarters: int = 4,
        algorithm: Algorithm = "mo",
        path: PopularPath | None = None,
    ) -> CubeResult:
        """A global cube refresh over the merged m-layer.

        The merge is the only cross-shard step: once the m-layer union is
        assembled, the cubing algorithms run unchanged — coarser cuboids are
        re-aggregated from the union exactly as they would be from a single
        engine's m-layer.
        """
        cells = self.m_cells(window_quarters)
        return run_cubing(self.layers, cells, self.policy, algorithm, path)

    # ------------------------------------------------------------------
    # Durability and elasticity: snapshot / restore / reshard
    # ------------------------------------------------------------------
    def snapshot(
        self, directory: str | Path, extra: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Write a complete cube snapshot into ``directory``; return the
        manifest.

        Layout: one ``shard-<i>-<generation>.json`` engine-state file per
        shard plus a ``manifest.json`` naming them.  Each shard writes its
        own file on a pool thread, in parallel.  The manifest is written
        *last*, through a temp file + ``os.replace``, so a crash
        mid-snapshot leaves the previous snapshot fully intact — the
        generation tag in the shard filenames keeps new files from
        overwriting the ones the old manifest still references.  Stale
        shard files from earlier generations are removed after the
        manifest lands.

        ``extra``, when given, is stored under the manifest's ``"app"`` key
        — the serving CLI records its schema flags there so ``--restore``
        can rebuild an identical service without re-specifying them.

        Holds the write mutex (no mutator can move state mid-snapshot)
        but only *read* locks on the shards — state extraction is a pure
        read, so queries keep flowing while a snapshot is written.
        """
        with self._write_mutex, self._locks.read_all():
            return self._snapshot_locked(directory, extra)

    def _snapshot_locked(
        self, directory: str | Path, extra: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        wal_seq = self.wal.last_seq if self.wal is not None else 0
        # The generation tag makes each snapshot's shard filenames unique:
        # a counter monotonic across both this cube's snapshots and
        # whatever earlier process wrote into the directory (scanned from
        # the existing filenames), so no snapshot ever overwrites files a
        # live manifest still references — not even after prune_idle (which
        # changes state the other markers cannot see) or a restart.  A
        # crash mid-snapshot therefore always leaves the previous snapshot
        # fully intact.
        on_disk = (
            int(m.group(1))
            for p in target.glob("shard-*-g*.json")
            if (m := re.search(r"-g(\d+)\.json$", p.name))
        )
        self._snapshots_taken = max(
            [self._snapshots_taken, *on_disk], default=0
        ) + 1
        generation = (
            f"q{self.current_quarter}-s{wal_seq}"
            f"-r{self.records_ingested}-g{self._snapshots_taken}"
        )
        n_shards = self._backend.n_shards
        names = [
            f"shard-{i:02d}-{generation}.json" for i in range(n_shards)
        ]
        self._backend.map(
            "snapshot_to_file",
            [(str(target / name),) for name in names],
        )
        manifest: dict[str, Any] = {
            "format": _SNAPSHOT_FORMAT,
            "version": STATE_VERSION,
            "n_shards": n_shards,
            "ticks_per_quarter": self.ticks_per_quarter,
            "current_quarter": self.current_quarter,
            "records_ingested": self.records_ingested,
            "tracked_cells": self.tracked_cells,
            "wal_seq": wal_seq,
            "shards": names,
        }
        if self._storage_config is not None:
            # The cold pages themselves live in the storage root, not the
            # snapshot directory; the manifest records how to reopen them.
            manifest["storage"] = {
                "backend": self._storage_config.backend,
                "hot_quarters": self.hot_quarters,
                "generation": self._storage_generation,
                "n_shards": n_shards,
            }
        if extra:
            manifest["app"] = dict(extra)
        # Self-checksum (computed over everything else, see payload_checksum)
        # so a bit-flipped or hand-mangled manifest is caught at restore
        # time instead of silently restoring the wrong shard files.
        manifest["checksum"] = payload_checksum(manifest)
        write_atomic(target / _MANIFEST, json.dumps(manifest, indent=1))
        referenced = set(names)
        for stale in target.glob("shard-*.json"):
            if stale.name not in referenced:
                stale.unlink(missing_ok=True)
        return manifest

    @staticmethod
    def read_manifest(directory: str | Path) -> dict[str, Any]:
        """The validated manifest of a snapshot directory."""
        path = Path(directory) / _MANIFEST
        if not path.exists():
            raise CodecError(f"snapshot: no {_MANIFEST} in {directory}")
        payload = decoding("snapshot", lambda: json.loads(path.read_text()))
        check_format("snapshot", payload, _SNAPSHOT_FORMAT, STATE_VERSION)
        # Manifests written before the checksum field are accepted as-is;
        # a present-but-wrong checksum is corruption, not version drift.
        recorded = payload.get("checksum")
        if recorded is not None and recorded != payload_checksum(payload):
            raise CorruptionError(
                f"snapshot: {path} manifest failed its checksum "
                f"(recorded {recorded}, computed "
                f"{payload_checksum(payload)}); the snapshot directory "
                "is corrupt — do not restore from it"
            )
        return payload

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None = None,
        n_shards: int | None = None,
        max_workers: int | None = None,
        wal: QuarterWAL | None = None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
    ) -> "ShardedStreamCube":
        """Rebuild a cube from a snapshot directory.

        ``layers`` / ``policy`` / ``key_fn`` are configuration, supplied
        exactly as to the original constructor (cells are re-validated
        against the schema on load).  ``n_shards`` defaults to the
        snapshot's shard count; passing a *different* count re-partitions
        every cell with :func:`stable_shard_index` during the load — online
        resharding is just a restore with a new count.  A snapshot taken
        with tiered storage needs ``storage`` pointing at the same cold
        root (``hot_quarters`` defaults to the snapshot's setting); the
        shard-count change case re-partitions the cold pages on open.
        Follow with ``wal.replay(cube, after_seq=manifest["wal_seq"])`` to
        recover an interrupted run (the serving CLI does this for you).
        """
        target = Path(directory)
        manifest = cls.read_manifest(target)
        if hot_quarters is None and storage is not None:
            recorded = manifest.get("storage")
            if recorded is not None:
                hot_quarters = decoding(
                    "snapshot", lambda: int(recorded["hot_quarters"])
                )

        def load(name: str) -> EngineState:
            path = target / name
            if not path.exists():
                raise CodecError(
                    f"snapshot: manifest references missing file {path}"
                )
            payload = decoding(
                "snapshot", lambda: json.loads(path.read_text())
            )
            return engine_state_from_dict(payload)

        names = decoding("snapshot", lambda: list(manifest["shards"]))
        if len(names) != int(manifest["n_shards"]):
            raise CodecError(
                f"snapshot: manifest lists {len(names)} shard files for "
                f"{manifest['n_shards']} shards"
            )
        with ThreadPoolExecutor(
            max_workers=max(1, len(names)), thread_name_prefix="repro-restore"
        ) as pool:
            states = list(pool.map(load, names))
        return cls._from_states(
            states,
            layers,
            policy,
            key_fn=key_fn,
            n_shards=n_shards,
            max_workers=max_workers,
            wal=wal,
            storage=storage,
            hot_quarters=hot_quarters,
        )

    def reshard(
        self, new_n: int, max_workers: int | None = None
    ) -> "ShardedStreamCube":
        """A new cube with ``new_n`` shards holding this cube's exact state.

        Every cell's complete streaming state — tilt frame, unsealed
        accumulators, activity marker — is extracted (in parallel) and
        re-partitioned with :func:`stable_shard_index` over the new count,
        so the resharded cube's ``window_isbs`` / ``refresh`` / exception
        sets are bit-identical to this cube's and ingestion continues
        seamlessly mid-quarter.  With tiered storage, the new cube reuses
        this cube's storage root: opening it under the new shard count
        re-partitions the cold pages into a fresh generation, so demoted
        history moves with the cells.  This cube is left untouched (close
        it when the cut-over is done); the returned cube shares no mutable
        state with it.
        """
        with self._write_mutex, self._locks.read_all():
            states = self._backend.broadcast("snapshot")
        return type(self)._from_states(
            states,
            self.layers,
            self.policy,
            key_fn=self._key_fn_arg,
            n_shards=new_n,
            max_workers=max_workers,
            wal=None,
            storage=self._storage_config,
            hot_quarters=self.hot_quarters,
        )

    @classmethod
    def _from_states(
        cls,
        states: list[EngineState],
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None,
        n_shards: int | None,
        max_workers: int | None,
        wal: QuarterWAL | None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
    ) -> "ShardedStreamCube":
        """Build a cube from per-shard engine states, re-partitioning when
        the target shard count differs from ``len(states)``."""
        if not states:
            raise ServiceError("cannot build a cube from zero shard states")
        tpq = states[0].ticks_per_quarter
        quarter = states[0].current_quarter
        for state in states[1:]:
            if (
                state.ticks_per_quarter != tpq
                or state.current_quarter != quarter
            ):
                raise ServiceError(
                    "shard states disagree on ticks_per_quarter / quarter "
                    "clock; snapshot is not from one aligned cube"
                )
            if state.cold_spans != states[0].cold_spans:
                raise ServiceError(
                    "shard states disagree on demoted (cold) spans; "
                    "snapshot is not from one aligned cube"
                )
        target_n = len(states) if n_shards is None else n_shards
        if target_n < 1:
            raise ServiceError(f"n_shards must be >= 1, got {target_n}")
        if target_n != len(states):
            states = _repartition_states(states, target_n)
        cube = cls(
            layers,
            policy,
            n_shards=target_n,
            key_fn=key_fn,
            ticks_per_quarter=tpq,
            frame_levels=states[0].frame_levels,
            max_workers=max_workers,
            wal=wal,
            storage=storage,
            hot_quarters=hot_quarters,
        )
        cube._backend.map("load_state", [(state,) for state in states])
        return cube

    # ------------------------------------------------------------------
    # Change analysis
    # ------------------------------------------------------------------
    def change_exceptions(self, quarters_apart: int = 1) -> dict[Values, ISB]:
        """Merged m-layer window-over-window change exceptions.

        Change detection is per-cell, so the global answer is the disjoint
        union of the per-shard answers.  As with :meth:`m_cells`, the two
        window bounds are fixed once under the read cut and shipped
        explicitly, so every shard judges change over the same window
        pair.
        """
        with self._locks.read_all():
            prev_b, cur_b, end = change_window_bounds(
                self.current_quarter, self.ticks_per_quarter, quarters_apart
            )
            return self._merged(
                "change_exceptions_between", prev_b, cur_b, end
            )

    def o_layer_change_exceptions(
        self, quarters_apart: int = 1
    ) -> dict[Values, ISB]:
        """O-layer change exceptions over the merged cube.

        O-layer cells aggregate m-cells that may live on different shards, so
        this cannot be a union of per-shard answers; instead both windows are
        merged at the m-layer first and the shared roll-up/judge logic runs
        on the union (both under one read cut).
        """
        with self._locks.read_all():
            prev_b, cur_b, end = change_window_bounds(
                self.current_quarter, self.ticks_per_quarter, quarters_apart
            )
            return o_layer_change_from_windows(
                self.layers,
                self.policy,
                self.window_isbs(prev_b, cur_b - 1),
                self.window_isbs(cur_b, end),
            )
