"""Shard execution in-process: dispatch, partial broadcasts, the host.

:class:`InprocBackend` and :class:`ShardHost` are the whole execution
layer under :class:`~repro.service.sharding.ShardedStreamCube`.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import InprocBackend, ShardHost
from repro.errors import CorruptionError, ServiceError, StorageError
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord

from tests.cluster.conftest import TPQ, workload


def make_engines(layers, policy, n=2):
    return [
        StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        for _ in range(n)
    ]


class TestInprocBackend:
    def test_call_and_counters(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        try:
            backend.call(0, "ingest", StreamRecord((0, 0), 0, 1.0))
            backend.call(1, "ingest", StreamRecord((1, 1), 0, 2.0))
            backend.broadcast("advance_to", TPQ)
            counters = backend.counters()
            assert [c[0] for c in counters] == [1, 1]
            assert [c[1] for c in counters] == [1, 1]
        finally:
            backend.close()

    def test_map_with_per_shard_args(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        try:
            backend.map(
                "ingest",
                [
                    (StreamRecord((0, 0), 0, 1.0),),
                    (StreamRecord((1, 1), 1, 2.0),),
                ],
            )
            assert [c[1] for c in backend.counters()] == [1, 1]
        finally:
            backend.close()

    def test_engines_property_exposes_live_engines(self, layers, policy):
        engines = make_engines(layers, policy)
        backend = InprocBackend(engines)
        try:
            assert backend.engines == engines
            assert backend.n_shards == 2
        finally:
            backend.close()

    def test_broadcast_partial_without_holes(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        try:
            backend.broadcast("advance_to", TPQ)
            results, missing = backend.broadcast_partial(
                "window_isbs", 0, TPQ - 1
            )
            assert results == [{}, {}]
            assert missing == []
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "error",
        [
            CorruptionError("page quarantined"),
            StorageError("no page for level 0"),
        ],
    )
    def test_broadcast_partial_turns_storage_errors_into_holes(
        self, layers, policy, error
    ):
        engines = make_engines(layers, policy)
        backend = InprocBackend(engines)

        def unreadable(*args):
            raise error

        engines[1].window_isbs = unreadable
        try:
            backend.broadcast("advance_to", 2 * TPQ)
            results, missing = backend.broadcast_partial(
                "window_isbs", 0, TPQ - 1
            )
            assert results == [{}, None]
            assert missing == [
                {
                    "shard": 1,
                    "state": "degraded",
                    "reason": str(error),
                    "last_quarter": 2,
                }
            ]
        finally:
            backend.close()

    def test_broadcast_partial_propagates_other_errors(self, layers, policy):
        engines = make_engines(layers, policy)
        backend = InprocBackend(engines)

        def broken(*args):
            raise ValueError("a bug, not a cold-tier failure")

        engines[0].window_isbs = broken
        try:
            with pytest.raises(ValueError, match="a bug"):
                backend.broadcast_partial("window_isbs", 0, TPQ - 1)
        finally:
            backend.close()

    def test_call_runs_inline_and_fan_out_on_the_pool(self, layers, policy):
        engines = make_engines(layers, policy)
        for engine in engines:
            engine.storage_stats = threading.get_ident
        backend = InprocBackend(engines)
        try:
            assert backend.call(1, "storage_stats") == threading.get_ident()
            idents = backend.broadcast("storage_stats")
            assert threading.get_ident() not in idents
        finally:
            backend.close()

    def test_max_workers_bounds_the_pool(self, layers, policy):
        engines = make_engines(layers, policy, n=3)
        for engine in engines:
            engine.storage_stats = threading.get_ident
        backend = InprocBackend(engines, max_workers=1)
        try:
            assert len(set(backend.broadcast("storage_stats"))) == 1
        finally:
            backend.close()

    def test_broadcast_sends_every_shard_the_same_args(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy, n=3))
        try:
            backend.broadcast("advance_to", 3 * TPQ)
            assert [c[0] for c in backend.counters()] == [3, 3, 3]
        finally:
            backend.close()

    def test_closed_backend_refuses_fan_out(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        backend.close()
        with pytest.raises(RuntimeError):
            backend.broadcast("m_cells", 1)


class TestShardHost:
    def host(self, layers, policy):
        return ShardHost(
            StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        )

    def test_unknown_method_rejected(self, layers, policy):
        with pytest.raises(ServiceError, match="unknown shard method"):
            self.host(layers, policy).invoke("load_statee", ())
        # Dunder / private engine internals are not reachable either.
        with pytest.raises(ServiceError, match="unknown shard method"):
            self.host(layers, policy).invoke("_cells", ())

    def test_counters_track_engine(self, layers, policy):
        host = self.host(layers, policy)
        records = workload(3, quarters=2)
        host.invoke("ingest", (records[0],))
        host.invoke("advance_to", (2 * TPQ,))
        quarter, ingested, cells = host.counters()
        assert quarter == 2
        assert ingested == 1
        assert cells == 1

    def test_snapshot_to_file_round_trips(self, layers, policy, tmp_path):
        host = self.host(layers, policy)
        host.invoke("ingest", (StreamRecord((2, 2), 0, 3.5),))
        host.invoke("advance_to", (TPQ,))
        target = tmp_path / "shard.json"
        host.invoke("snapshot_to_file", (str(target),))

        import json

        from repro.io import engine_state_from_dict

        state = engine_state_from_dict(
            json.loads(target.read_text(encoding="utf-8"))
        )
        fresh = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        fresh.load_state(state)
        assert fresh.m_cells(1) == host.engine.m_cells(1)
