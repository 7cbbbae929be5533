"""QueryRouter: cached answers, seal-time invalidation, correctness."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.query.exec import execute
from repro.query.spec import Q
from repro.service.router import (
    VIEW_CACHE_CAPACITY,
    LRUCache,
    QueryRouter,
    _Flight,
)
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord

from tests.service.conftest import TPQ, workload


@pytest.fixture
def cube(layers, policy):
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ
    )
    cube.ingest_batch(workload(3))
    cube.advance_to(6 * TPQ)
    yield cube
    cube.close()


@pytest.fixture
def router(cube):
    return QueryRouter(cube, window_quarters=4)


def ask(router, spec):
    return router.execute(spec).value


def uncached(cube, spec, window=4):
    return execute(cube.refresh(window), spec).value


class TestLRUCache:
    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(ServiceError):
            LRUCache(0)

    def test_versioned_hit_and_stale_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("k", (7, "value"))
        assert cache.get_versioned("k", 7) == (7, "value")
        assert cache.hits == 1
        assert cache.get_versioned("k", 8) is None
        assert cache.misses == 1

    def test_stale_entry_evicted_on_detection(self):
        # Regression: a stale line used to squat on its LRU slot until
        # capacity pressure pushed a *live* line out instead.  With
        # capacity 2, detecting "a" as stale must free its slot so the
        # next put does not evict the still-valid "b".
        cache = LRUCache(2)
        cache.put("a", (1, "va"))
        cache.put("b", (1, "vb"))
        assert cache.get_versioned("a", 2) is None  # stale -> evicted now
        cache.put("c", (2, "vc"))
        assert cache.get_versioned("b", 1) == (1, "vb")
        assert cache.get_versioned("c", 2) == (2, "vc")


class TestRouterQueries:
    def test_point_matches_uncached(self, cube, router):
        some_cell = next(iter(cube.m_cells(4)))
        spec = Q.cell((2, 2), some_cell)
        assert ask(router, spec) == uncached(cube, spec)
        # Intermediate, non-materialized cuboid rolls up on the fly.
        spec = Q.cell((1, 2), (some_cell[0] // 3, some_cell[1]))
        assert ask(router, spec) == uncached(cube, spec)

    def test_second_query_is_a_cache_hit(self, router):
        ask(router, Q.cell((1, 1), (0, 0)))
        before = router.cache.hits
        ask(router, Q.cell((1, 1), (0, 0)))
        assert router.cache.hits == before + 1

    def test_slice_and_top_slopes(self, cube, router):
        for spec in (Q.slice((1, 1), {"d0": 0}), Q.top_slopes((1, 1), 3)):
            assert ask(router, spec) == uncached(cube, spec)

    def test_roll_up_and_drill_down(self, cube, router):
        some_cell = next(iter(cube.m_cells(4)))
        for spec in (
            Q.roll_up((2, 2), some_cell, "d0"),
            Q.drill_down((1, 1), (0, 0), "d0"),
        ):
            assert ask(router, spec) == uncached(cube, spec)

    def test_siblings_and_deck(self, cube, router):
        some_cell = next(iter(cube.m_cells(4)))
        for spec in (Q.siblings((2, 2), some_cell, "d0"), Q.observation_deck()):
            assert ask(router, spec) == uncached(cube, spec)

    def test_exceptions_include_o_layer(self, cube, router):
        out = router.exceptions()
        assert cube.layers.o_coord in out
        assert out[cube.layers.o_coord] == ask(router, Q.watch_list())

    def test_change_exceptions_layers(self, cube, router):
        assert router.change_exceptions(1, "m") == cube.change_exceptions(1)
        assert router.change_exceptions(1, "o") == (
            cube.o_layer_change_exceptions(1)
        )
        with pytest.raises(ServiceError):
            router.change_exceptions(1, "x")

    def test_window_override(self, cube, router):
        wide = ask(router, Q.cell((1, 1), (0, 0), window=6))
        narrow = ask(router, Q.cell((1, 1), (0, 0), window=2))
        assert wide.interval != narrow.interval

    def test_refresh_happens_once_per_window(self, router):
        ask(router, Q.cell((1, 1), (0, 0)))
        ask(router, Q.slice((1, 1), {"d0": 0}))
        ask(router, Q.watch_list())
        assert router.refreshes == 1
        ask(router, Q.cell((1, 1), (0, 0), window=2))
        assert router.refreshes == 2

    def test_views_stay_bounded_across_windows(self, layers, policy):
        # Windows the tilt frame can cover: sub-hour suffixes, then whole
        # hours (four quarters each).
        hours = VIEW_CACHE_CAPACITY
        windows = [1, 2, 3] + [4 * h for h in range(1, hours + 1)]
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        try:
            cube.ingest_batch(workload(5, quarters=4 * hours))
            cube.advance_to(4 * hours * TPQ)
            router = QueryRouter(cube)
            expected = {
                w: uncached(cube, Q.observation_deck(), w) for w in windows
            }

            def deck(w):
                return execute(router.result(w), Q.observation_deck()).value

            for n, w in enumerate(windows, start=1):
                assert deck(w) == expected[w]
                assert router.stats()["views"] == min(n, VIEW_CACHE_CAPACITY)
            assert router.refreshes == len(windows)
            # The oldest windows were evicted: asking again re-refreshes
            # and still answers exactly; the count never passes the cap.
            for w in windows[:3]:
                assert deck(w) == expected[w]
            assert router.refreshes == len(windows) + 3
            assert router.stats()["views"] == VIEW_CACHE_CAPACITY
        finally:
            cube.close()


class TestInvalidation:
    def test_quarter_seal_clears_cache(self, cube, router):
        stale = ask(router, Q.cell((1, 1), (0, 0)))
        assert len(router.cache) == 1
        epoch = router.epoch
        # New data in a new quarter, then seal it.
        t0 = 6 * TPQ
        cube.ingest_batch(
            [StreamRecord((0, 0), t, 50.0) for t in range(t0, t0 + TPQ)]
        )
        cube.advance_to(t0 + TPQ)
        fresh = ask(router, Q.cell((1, 1), (0, 0)))
        assert router.epoch == epoch + 1
        assert fresh != stale  # the jump moved the regression
        assert router.cache.hits == 0  # cleared, recomputed

    def test_no_invalidation_within_a_quarter(self, cube, router):
        ask(router, Q.cell((1, 1), (0, 0)))
        # Mid-quarter records do not touch sealed history.
        cube.ingest_batch([StreamRecord((0, 0), 6 * TPQ, 50.0)])
        ask(router, Q.cell((1, 1), (0, 0)))
        assert router.cache.hits == 1


class TestSpecExecution:
    def test_execute_fills_the_default_window(self, router):
        result = router.execute(Q.cell((1, 1), (0, 0)))
        assert result.spec.window_quarters == router.window_quarters
        # An explicit default window is the same plan -> same cache line.
        before = router.cache.hits
        assert ask(router, Q.cell((1, 1), (0, 0), window=4)) == result.value
        assert router.cache.hits == before + 1

    def test_equivalent_plans_share_one_cache_line(self, router):
        router.execute(Q.slice((1, 1), {"d0": 0, "d1": 1}))
        before = router.cache.hits
        router.execute(Q.slice((1, 1)).where(d1=1, d0=0))
        assert router.cache.hits == before + 1

    def test_level_names_resolve_to_the_same_cache_line(self, cube, router):
        names = cube.layers.schema.describe_coord((1, 2))
        router.execute(Q.cell((1, 2), (0, 0)))
        before = router.cache.hits
        router.execute(Q.cell(tuple(names), (0, 0)))
        assert router.cache.hits == before + 1

    def test_execute_accepts_wire_dicts(self, router):
        got = router.execute({"op": "watch_list"})
        assert got.value == ask(router, Q.watch_list())

    def test_execute_batch_reports_in_order(self, router):
        items = router.execute_batch(
            Q.batch(Q.watch_list(), Q.cell((9, 9), (0, 0)), Q.top_slopes((1, 1)))
        )
        assert [item.ok for item in items] == [True, False, True]
        assert items[1].error_type == "SchemaError"
        assert router.batches == 1
        assert router.specs_executed >= 2  # the failing spec never executes

    def test_execute_rejects_batchquery(self, router):
        with pytest.raises(ServiceError):
            router.execute(Q.batch(Q.watch_list()))

    def test_stats_include_spec_counters(self, router):
        ask(router, Q.cell((1, 1), (0, 0)))
        stats = router.stats()
        assert stats["specs_executed"] == 1
        assert stats["views"] == 1
        assert stats["batches"] == 0

    def test_cache_hit_does_not_count_as_execution(self, router):
        # Regression: specs_executed used to be bumped before the cache
        # lookup, so /stats claimed an execution for every request and
        # the hit rate computed from it was meaningless.
        router.execute(Q.watch_list())
        assert router.specs_executed == 1
        router.execute(Q.watch_list())
        router.execute(Q.watch_list())
        assert router.specs_executed == 1
        assert router.stats()["specs_executed"] == 1

    def test_execute_versioned_returns_the_stored_cut(self, cube, router):
        cut, result = router.execute_versioned(Q.watch_list())
        assert cut == cube.epoch_vector()
        assert result.value == uncached(cube, Q.watch_list())
        # The cache hit returns the very same stored entry.
        again_cut, again = router.execute_versioned(Q.watch_list())
        assert again_cut == cut
        assert again is result

    def test_seal_storm_fallback_counted_and_uncached(self, router):
        # A follower that loops its full budget without ever validating
        # a cache line answers directly from one read cut, uncached, and
        # the bailout is visible in /stats.  Planting a pre-completed
        # flight under the key makes every round join-and-retry without
        # any leader filling the cache — the storm, deterministically.
        flight = _Flight()
        flight.done.set()
        key = ("_router", "storm-test")
        router._flights[key] = flight
        calls = []
        cut, value = router._single_flight_entry(
            key, lambda: calls.append(1) or 42
        )
        assert value == 42 and calls == [1]
        assert cut == router.cube.epoch_vector()
        assert router.single_flight_fallbacks == 1
        assert router.stats()["single_flight_fallbacks"] == 1
        assert router.cache.get_versioned(key, cut) is None

    def test_hand_built_keys_are_namespaced(self, router):
        # Hand-built lines share the LRU with spec cache keys, which are
        # shaped (op, (field, value), ...) with an identifier op.  The
        # "_router" tag keeps the two families disjoint: a spec-shaped
        # key passed through _cached must land on a different line.
        spec_shaped = ("exceptions", ("window_quarters", 4))
        assert router._cached(spec_shaped, lambda: "hand-built") == (
            "hand-built"
        )
        vector = router.cube.epoch_vector()
        stored = router.cache.get_versioned(
            ("_router",) + spec_shaped, vector
        )
        assert stored is not None and stored[1] == "hand-built"
        assert router.cache.get_versioned(spec_shaped, vector) is None


class TestValidation:
    def test_window_quarters_validated(self, cube):
        with pytest.raises(ServiceError):
            QueryRouter(cube, window_quarters=0)
