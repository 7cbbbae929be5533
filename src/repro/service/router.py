"""Query serving over a sharded cube: merged results plus an LRU result cache.

The router owns the read path, and it is deliberately small: it manages
merged :class:`~repro.cubing.result.CubeResult` refreshes per analysis
window, resolves each incoming :class:`~repro.query.spec.QuerySpec`
(filling the default window), and memoizes the
:class:`~repro.query.exec.QueryResult` in a bounded LRU keyed on
``spec.cache_key()`` — the canonical plan identity, so equivalent plans
built by any surface share one cache line.  Execution itself is the single
engine in :mod:`repro.query.exec`; ``router.execute(Q.cell(...))`` is the
whole query interface.

Concurrency: the router is safe for parallel callers and its hit path is
completely lock-free on the cube.  Every cached entry is stored together
with the cube's :meth:`~repro.service.sharding.ShardedStreamCube.
epoch_vector` at computation time — the per-shard seal epochs plus the
structure clock — and is served iff a fresh lock-free vector read
matches it, so "invalidation" is a comparison, not a big-lock clear.
Answers derive from sealed quarters only, so the vector changes exactly
when one could change: a quarter seals, a shard's state is reloaded or
pruned, or a degraded read comes back partial.  Cache *misses* compute
under the cube's read cut, and identical concurrent misses are collapsed
to one execution (single-flight): followers wait for the leader's entry
and re-validate instead of stampeding the engines.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable, Mapping

from repro.cube.schema import CubeSchema
from repro.cubing.result import CubeResult
from repro.errors import ServiceError
from repro.query.exec import BatchItem, QueryResult, execute, run_batch
from repro.query.spec import BatchQuery, QuerySpec, spec_from_dict
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import Algorithm

__all__ = ["LRUCache", "QueryRouter"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


class LRUCache:
    """A small bounded LRU with hit/miss accounting (thread-safe)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._mu = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._mu:
            return len(self._data)

    def get(self, key: Any) -> Any | None:
        with self._mu:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_versioned(self, key: Any, version: Any) -> Any | None:
        """The ``(version, value)`` entry under ``key``, iff it was stored
        at exactly ``version``.

        A present-but-stale entry counts as a miss *and is evicted on the
        spot*: it can never be served again (versions are monotone), so
        letting it squat on an LRU slot would push live lines out under
        seal-heavy, key-diverse load.
        """
        with self._mu:
            entry = self._data.get(key)
            if entry is not None:
                if entry[0] == version:
                    self._data.move_to_end(key)
                    self.hits += 1
                    return entry
                del self._data[key]
            self.misses += 1
            return None

    def put(self, key: Any, value: Any) -> None:
        with self._mu:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._mu:
            self._data.clear()


#: Merged window results kept at once.  Each is a whole refreshed
#: ``CubeResult`` (megabytes at thousands of cells) and any sealed window
#: length may be asked for, so the results live in an LRU of this size.
VIEW_CACHE_CAPACITY = 8


class _Flight:
    """One in-flight cache-miss computation; followers await the leader."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


class QueryRouter:
    """Cached execution of query specs over a sharded cube.

    Parameters
    ----------
    cube:
        The sharded cube being served.
    window_quarters:
        Default analysis window for specs that do not name one.
    algorithm:
        Cubing algorithm used for merged refreshes.
    cache_size:
        LRU capacity for individual query results.
    """

    def __init__(
        self,
        cube: ShardedStreamCube,
        window_quarters: int = 4,
        algorithm: Algorithm = "mo",
        cache_size: int = 1024,
    ) -> None:
        if window_quarters < 1:
            raise ServiceError(
                f"window_quarters must be >= 1, got {window_quarters}"
            )
        self.cube = cube
        self.window_quarters = window_quarters
        self.algorithm: Algorithm = algorithm
        self.cache = LRUCache(cache_size)
        self._mu = threading.Lock()
        # window -> (epoch vector, CubeResult); a stale one is evicted on read.
        self._views = LRUCache(VIEW_CACHE_CAPACITY)
        self._flights: dict[Any, _Flight] = {}
        self._view_flights: dict[int, _Flight] = {}
        self.refreshes = 0
        self.batches = 0
        self.specs_executed = 0
        self.single_flight_joins = 0
        self.single_flight_fallbacks = 0

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The cube's quarter clock — the headline component of the epoch
        vector every cached answer is validated against."""
        return self.cube.current_quarter

    @property
    def schema(self) -> CubeSchema:
        return self.cube.layers.schema

    def result(self, window_quarters: int | None = None) -> CubeResult:
        """The merged cube result for one window, refreshed at most once per
        (window, epoch vector)."""
        window = self._window(window_quarters)
        with self.cube.read_lock():
            return self._result_locked(window)

    def _result_locked(self, window: int) -> CubeResult:
        """The memoized result for ``window`` at the *current* read cut.

        The caller holds the cube's read lock, which freezes the epoch
        vector's quarter clocks fleet-wide (they only move under every
        shard's write lock) — so every concurrent read-cut holder sees one
        vector, and the single-flight below means one of them refreshes
        while the rest wait and reuse.  A degraded (partial) refresh moves
        the vector's structure clock instead, so it is never stored: each
        waiter then refreshes for itself and reports its own holes.
        """
        vector = self.cube.epoch_vector()
        while True:
            with self._mu:
                entry = self._views.get_versioned(window, vector)
                if entry is not None:
                    return entry[1]
                flight = self._view_flights.get(window)
                leader = flight is None
                if leader:
                    flight = self._view_flights[window] = _Flight()
            if leader:
                try:
                    result = self.cube.refresh(window, self.algorithm)
                    with self._mu:
                        if self.cube.epoch_vector() == vector:
                            self._views.put(window, (vector, result))
                        self.refreshes += 1
                    return result
                finally:
                    with self._mu:
                        self._view_flights.pop(window, None)
                    flight.done.set()
            else:
                # Waiting while holding the read cut is safe: the leader
                # holds the same (shared) cut and needs no further locks.
                flight.done.wait()

    def _window(self, window_quarters: int | None) -> int:
        return (
            self.window_quarters
            if window_quarters is None
            else window_quarters
        )

    def _cached(self, key: tuple, compute) -> Any:
        """Single-flight a *hand-built* cache key.

        Hand-built keys share the LRU with ``QuerySpec.cache_key()``
        tuples shaped ``(op, (field, value), ...)``, so they carry a
        ``"_router"`` namespace tag no spec op can collide with (spec op
        names are identifiers; a future op literally named ``exceptions``
        would otherwise silently alias the hand-built line).
        """
        return self._single_flight(("_router",) + key, compute)

    def _single_flight(self, key: Any, compute) -> Any:
        return self._single_flight_entry(key, compute)[1]

    def _single_flight_entry(self, key: Any, compute) -> tuple[Any, Any]:
        """Serve ``key`` from the versioned cache, computing at most once.
        Returns the full ``(epoch_vector, value)`` entry.

        The hit path takes no cube locks at all: a cached entry whose
        stored epoch vector equals a fresh lock-free vector read is
        returned as-is.  The racy read is sound because every clock in
        the vector is monotone and the quarter clocks only move under
        every shard's write lock — a matching comparison proves the
        entry's cut is still current (a torn mid-seal vector matches no
        stored cut and simply misses).  On a miss, the first
        thread in (the leader) computes under the cube's read cut and
        fills the cache; concurrent identical misses wait for the leader
        and re-validate instead of stampeding the engines.  Errors are
        never cached: each follower retries and surfaces its own.
        """
        for _ in range(16):
            vector = self.cube.epoch_vector()
            entry = self.cache.get_versioned(key, vector)
            if entry is not None:
                return entry
            with self._mu:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = self._flights[key] = _Flight()
                else:
                    self.single_flight_joins += 1
            if leader:
                try:
                    with self.cube.read_lock() as cut:
                        value = compute()
                    entry = (cut, value)
                    self.cache.put(key, entry)
                    return entry
                finally:
                    with self._mu:
                        self._flights.pop(key, None)
                    flight.done.set()
            else:
                flight.done.wait()
                # Loop: re-validate against the (possibly moved) vector.
        # A seal storm kept invalidating this line while we waited;
        # answer directly from one read cut without caching.
        with self._mu:
            self.single_flight_fallbacks += 1
        with self.cube.read_lock() as cut:
            return (cut, compute())

    # ------------------------------------------------------------------
    # Spec execution (the primary interface)
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec | Mapping[str, Any]) -> QueryResult:
        """Execute one spec, memoized on its canonical cache key.

        The spec's window defaults to the router's; names are resolved
        against the cube's schema *before* the cache lookup, so equivalent
        plans (level names vs indices, dict-ordered slices) hit one line.
        """
        return self.execute_versioned(spec)[1]

    def execute_versioned(
        self, spec: QuerySpec | Mapping[str, Any]
    ) -> tuple[tuple[int, ...], QueryResult]:
        """Like :meth:`execute`, but also returns the epoch vector of the
        read cut the answer is valid at — cache hits return the stored
        cut, fresh computations the cut they ran under.  The subscription
        dispatcher stamps pushed updates with this vector so delivery
        ordering is checkable against the cube's monotone clocks.
        """
        if isinstance(spec, BatchQuery):
            raise ServiceError("a BatchQuery must go through execute_batch")
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        window = self._window(spec.window_quarters)
        resolved = spec.window(window).resolve(self.schema)
        key = resolved.cache_key()

        def compute() -> QueryResult:
            # Executions are counted where they happen: a cache hit (or a
            # single-flight follower reusing the leader's entry) is *not*
            # an execution, and `/stats` must not claim it was.
            with self._mu:
                self.specs_executed += 1
            return execute(
                self._result_locked(window), resolved, pre_resolved=True
            )

        return self._single_flight_entry(key, compute)

    def execute_batch(
        self,
        batch: BatchQuery | Iterable[QuerySpec | Mapping[str, Any]],
    ) -> list[BatchItem]:
        """Execute many specs, sharing refreshes and the result cache.

        All specs of one window share a single merged refresh (the
        per-window result is memoized per epoch).  Returns one
        :class:`BatchItem` per entry, in order; a domain error on one entry
        is recorded there and does not stop the rest.
        """
        entries = batch.specs if isinstance(batch, BatchQuery) else tuple(batch)
        self.batches += 1
        return run_batch(entries, self.execute)

    # ------------------------------------------------------------------
    # Cube-level queries (not spec operations; cached by hand-built keys)
    # ------------------------------------------------------------------
    def exceptions(
        self, window_quarters: int | None = None
    ) -> dict[Coord, dict[Values, ISB]]:
        """The retained exception cells per cuboid, o-layer included."""
        window = self._window(window_quarters)

        def compute() -> dict[Coord, dict[Values, ISB]]:
            result = self.result(window)
            out = {
                coord: dict(cells)
                for coord, cells in result.retained_exceptions.items()
            }
            out[result.layers.o_coord] = result.o_layer_exceptions()
            return out

        return self._cached(("exceptions", window), compute)

    def change_exceptions(
        self, quarters_apart: int = 1, layer: str = "m"
    ) -> dict[Values, ISB]:
        """Window-over-window change exceptions at the m- or o-layer."""
        if layer not in ("m", "o"):
            raise ServiceError(f"layer must be 'm' or 'o', got {layer!r}")

        def compute() -> dict[Values, ISB]:
            if layer == "m":
                return self.cube.change_exceptions(quarters_apart)
            return self.cube.o_layer_change_exceptions(quarters_apart)

        return self._cached(("change", layer, quarters_apart), compute)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cache and refresh counters (served by the HTTP ``/stats``)."""
        return {
            "epoch": self.epoch,
            "cache_entries": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "refreshes": self.refreshes,
            "views": len(self._views),
            "batches": self.batches,
            "specs_executed": self.specs_executed,
            "single_flight_joins": self.single_flight_joins,
            "single_flight_fallbacks": self.single_flight_fallbacks,
        }
