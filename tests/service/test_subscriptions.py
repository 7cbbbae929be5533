"""SubscriptionRegistry: seal-driven push, cadence, bounded queues."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError, ServiceError
from repro.query.spec import Q
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import (
    MAX_QUEUE_LIMIT,
    MAX_SUBSCRIPTIONS,
    SubscriptionRegistry,
)
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


@pytest.fixture
def registry(router):
    registry = SubscriptionRegistry(router, queue_limit=8)
    yield registry
    registry.close()


def seal_next(cube, registry) -> None:
    """Fill the current quarter, seal it, and drain the dispatcher."""
    quarter = cube.current_quarter
    t0 = quarter * TPQ
    cube.ingest_batch(
        [StreamRecord((0, 0), t, 5.0 + t) for t in range(t0, t0 + TPQ)]
    )
    cube.advance_to((quarter + 1) * TPQ)
    assert registry.flush(10.0), "dispatcher did not drain"


class TestDelivery:
    def test_watch_update_after_seal(self, cube, registry):
        sub = registry.subscribe(watch=True)
        seal_next(cube, registry)
        out = registry.poll(sub)
        assert out["subscription"] == sub
        assert len(out["updates"]) == 1
        update = out["updates"][0]
        assert update["seq"] == 1
        assert update["quarter"] == cube.current_quarter == 7
        assert update["epoch"] == list(cube.epoch_vector())
        assert update["op"] == "watch_list"
        assert "cells" in update["result"]
        assert out["last_seq"] == 1 and out["dropped"] == 0

    def test_every_k_skips_intermediate_seals(self, cube, registry):
        every = registry.subscribe(watch=True)
        coarse = registry.subscribe(watch=True, every_k=2)
        for _ in range(3):
            seal_next(cube, registry)  # quarters 7, 8, 9
        quarters = lambda s: [  # noqa: E731
            u["quarter"] for u in registry.poll(s)["updates"]
        ]
        assert quarters(every) == [7, 8, 9]
        assert quarters(coarse) == [7, 9]

    def test_ack_prunes_and_since_filters(self, cube, registry):
        sub = registry.subscribe(watch=True)
        seal_next(cube, registry)
        seal_next(cube, registry)
        assert [u["seq"] for u in registry.poll(sub)["updates"]] == [1, 2]
        out = registry.poll(sub, since_seq=1)
        assert [u["seq"] for u in out["updates"]] == [2]
        assert registry.describe_all()[0]["queued"] == 1  # seq 1 pruned

    def test_drop_oldest_counts(self, cube, registry):
        sub = registry.subscribe(watch=True, queue_limit=2)
        for _ in range(3):
            seal_next(cube, registry)
        out = registry.poll(sub)
        assert [u["seq"] for u in out["updates"]] == [2, 3]
        assert out["dropped"] == 1
        assert registry.stats()["updates_dropped"] == 1

    def test_shared_spec_executes_once_per_seal(self, cube, router, registry):
        subs = [registry.subscribe(watch=True) for _ in range(3)]
        base = router.specs_executed
        seal_next(cube, registry)
        # Three subscribers to one spec: one execution, three deliveries.
        assert router.specs_executed == base + 1
        for sub in subs:
            assert len(registry.poll(sub)["updates"]) == 1

    def test_long_poll_wakes_on_delivery(self, cube, registry):
        sub = registry.subscribe(watch=True)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(registry.poll(sub, timeout=10.0)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        seal_next(cube, registry)
        thread.join(5.0)
        assert results and len(results[0]["updates"]) == 1

    def test_close_wakes_long_pollers(self, router):
        registry = SubscriptionRegistry(router)
        sub = registry.subscribe(watch=True)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(registry.poll(sub, timeout=30.0)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        registry.close()
        thread.join(5.0)
        assert results == [
            {"subscription": sub, "updates": [], "last_seq": 0, "dropped": 0}
        ]
        with pytest.raises(ServiceError):
            registry.subscribe(watch=True)

    def test_seal_listener_takes_no_registry_lock(self, registry):
        # The listener runs on the ingest thread inside the seal path; it
        # must stay lock-free.  Holding the registry's condition across
        # the call proves it never tries to take it.
        before = registry.seals_signaled
        with registry._cond:
            registry._on_seal(99)
        assert registry.seals_signaled == before + 1
        registry.flush(10.0)  # let the dispatcher settle before teardown

    def test_unfilled_window_counts_eval_error(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        router = QueryRouter(cube, window_quarters=4)
        registry = SubscriptionRegistry(router)
        try:
            sub = registry.subscribe(watch=True)
            cube.ingest_batch(
                [StreamRecord((0, 0), t, 1.0) for t in range(TPQ)]
            )
            cube.advance_to(TPQ)  # one sealed quarter < window of 4
            assert registry.flush(10.0)
            assert registry.poll(sub)["updates"] == []
            assert registry.eval_errors >= 1
            # The subscription stays due: it delivers as soon as the
            # window fills.
            assert registry.describe_all()[0]["last_quarter"] == -1
        finally:
            registry.close()
            cube.close()


class TestValidation:
    def test_subscribe_rejects_bad_args(self, registry):
        with pytest.raises(ServiceError):
            registry.subscribe()  # no spec, no watch
        with pytest.raises(ServiceError):
            registry.subscribe(Q.watch_list(), watch=True)
        with pytest.raises(ServiceError):
            registry.subscribe(watch=True, every_k=0)
        with pytest.raises(ServiceError):
            registry.subscribe(watch=True, queue_limit=0)

    def test_bad_spec_fails_the_subscribe_call(self, registry):
        # Eager resolution: a bad spec errors here, not in a background
        # dispatch round nobody is watching.
        with pytest.raises(ReproError):
            registry.subscribe(Q.cell((9, 9), (0, 0)))

    def test_payload_cadence_validation(self, registry):
        for payload in (
            {"watch": True, "every_seal": True, "every_k_quarters": 2},
            {"watch": True, "every_k_quarters": 0},
            {"watch": True, "every_k_quarters": True},
            {"watch": True, "every_seal": False},
            {"watch": True, "queue_limit": 0},
            {"watch": True, "queue_limit": True},
            {"watch": True, "window_quarters": "wide"},
            {"watch": True, "spec": {"op": "watch_list"}},
            {},
        ):
            with pytest.raises(ServiceError):
                registry.subscribe_payload(payload)

    def test_payload_accepts_both_forms(self, cube, registry):
        by_watch = registry.subscribe_payload(
            {"watch": True, "every_k_quarters": 2}
        )
        by_spec = registry.subscribe_payload(
            {"spec": {"op": "observation_deck"}, "queue_limit": 3}
        )
        described = {d["id"]: d for d in registry.describe_all()}
        assert described[by_watch]["every_k_quarters"] == 2
        assert described[by_spec]["op"] == "observation_deck"
        assert described[by_spec]["queue_limit"] == 3
        # The registry pins the router's default window at subscribe time.
        assert described[by_spec]["window_quarters"] == 4

    def test_unknown_ids(self, registry):
        with pytest.raises(ServiceError):
            registry.poll("sub-999")
        assert registry.unsubscribe("sub-999") is False
        sub = registry.subscribe(watch=True)
        assert registry.unsubscribe(sub) is True
        with pytest.raises(ServiceError):
            registry.poll(sub)

    def test_registry_queue_limit_validated(self, router):
        with pytest.raises(ServiceError):
            SubscriptionRegistry(router, queue_limit=0)

    def test_queue_limit_has_a_ceiling(self, router, registry):
        registry.subscribe(watch=True, queue_limit=MAX_QUEUE_LIMIT)
        with pytest.raises(ServiceError, match="MAX_QUEUE_LIMIT"):
            registry.subscribe(watch=True, queue_limit=MAX_QUEUE_LIMIT + 1)
        with pytest.raises(ServiceError, match="MAX_QUEUE_LIMIT"):
            registry.subscribe_payload({"watch": True, "queue_limit": 10**12})
        with pytest.raises(ServiceError, match="MAX_QUEUE_LIMIT"):
            SubscriptionRegistry(router, queue_limit=MAX_QUEUE_LIMIT + 1)
        assert registry.stats()["active"] == 1

    def test_live_subscriptions_have_a_ceiling(self, registry):
        ids = [
            registry.subscribe(watch=True) for _ in range(MAX_SUBSCRIPTIONS)
        ]
        with pytest.raises(ServiceError, match="MAX_SUBSCRIPTIONS"):
            registry.subscribe(Q.observation_deck())
        assert registry.stats()["active"] == MAX_SUBSCRIPTIONS
        # The ceiling counts live subscriptions: a freed slot is reusable.
        assert registry.unsubscribe(ids[0])
        registry.subscribe(watch=True)

    def test_stats_shape(self, cube, registry):
        registry.subscribe(watch=True)
        seal_next(cube, registry)
        stats = registry.stats()
        assert stats["active"] == 1
        assert stats["created"] == 1
        assert stats["queued"] == 1
        assert stats["seals_signaled"] >= 1
        assert stats["dispatch_rounds"] >= 1
        assert stats["updates_enqueued"] == 1
        assert stats["updates_dropped"] == 0
