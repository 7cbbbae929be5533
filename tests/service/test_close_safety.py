"""Cube lifecycle: ``close()`` is idempotent and failed inits leak nothing.

A cube owns real resources — cold-store handles and a thread pool — so
closing twice, closing a half-built cube, and the context-manager path
all need pinning down.
"""

from __future__ import annotations

import sqlite3

import pytest

import repro.service.sharding as sharding
from repro.errors import ServiceError, StreamError
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig

from tests.service.conftest import TPQ, workload


class TestCloseIdempotence:
    def test_double_close_inproc(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        cube.ingest_batch(workload(1, quarters=1))
        cube.close()
        cube.close()  # second close is a no-op, not an error

    def test_context_manager_closes(self, layers, policy, tmp_path):
        storage = StorageConfig(
            root=tmp_path / "cold", backend="sqlite", hot_quarters=2
        )
        with ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            storage=storage,
        ) as cube:
            cube.ingest_batch(workload(1, quarters=4))
            cube.advance_to(4 * TPQ)
            stores = cube._stores
        assert cube._closed
        for store in stores:
            with pytest.raises(sqlite3.ProgrammingError):
                store.stats()

    def test_close_then_close_with_stores(self, layers, policy, tmp_path):
        storage = StorageConfig(
            root=tmp_path / "cold", backend="sqlite", hot_quarters=2
        )
        cube = ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            storage=storage,
        )
        cube.close()
        cube.close()  # must not re-close the sqlite handles


class TestFailedInit:
    def test_invalid_shard_count_before_any_resource(self, layers, policy):
        with pytest.raises(ServiceError, match="n_shards"):
            ShardedStreamCube(
                layers, policy, n_shards=0, ticks_per_quarter=TPQ
            )

    def test_engine_failure_closes_opened_stores(
        self, layers, policy, tmp_path, monkeypatch
    ):
        """Stores open before the engines build; if an engine constructor
        raises, the constructor's own close() must release them."""
        captured = {}
        real = sharding.open_shard_stores

        def capturing(config, n_shards, shard_key):
            generation, stores = real(config, n_shards, shard_key)
            captured["stores"] = stores
            return generation, stores

        monkeypatch.setattr(sharding, "open_shard_stores", capturing)
        storage = StorageConfig(
            root=tmp_path / "cold", backend="sqlite", hot_quarters=2
        )
        with pytest.raises(StreamError, match="ticks_per_quarter"):
            ShardedStreamCube(
                layers,
                policy,
                n_shards=2,
                ticks_per_quarter=0,  # engine ctor rejects this
                storage=storage,
            )
        assert len(captured["stores"]) == 2
        for store in captured["stores"]:
            with pytest.raises(sqlite3.ProgrammingError):
                store.stats()

    def test_backend_failure_closes_stores(
        self, layers, policy, tmp_path, monkeypatch
    ):
        """Same guarantee when the backend itself fails to build."""
        captured = {}
        real = sharding.open_shard_stores

        def capturing(config, n_shards, shard_key):
            generation, stores = real(config, n_shards, shard_key)
            captured["stores"] = stores
            return generation, stores

        def exploding(*args, **kwargs):
            raise RuntimeError("backend wiring failed")

        monkeypatch.setattr(sharding, "open_shard_stores", capturing)
        monkeypatch.setattr(sharding, "InprocBackend", exploding)
        storage = StorageConfig(
            root=tmp_path / "cold", backend="sqlite", hot_quarters=2
        )
        with pytest.raises(RuntimeError, match="backend wiring"):
            ShardedStreamCube(
                layers,
                policy,
                n_shards=2,
                ticks_per_quarter=TPQ,
                storage=storage,
            )
        for store in captured["stores"]:
            with pytest.raises(sqlite3.ProgrammingError):
                store.stats()

    def test_failed_init_cube_close_still_idempotent(self, layers, policy):
        try:
            ShardedStreamCube(
                layers, policy, n_shards=0, ticks_per_quarter=TPQ
            )
        except ServiceError:
            pass  # nothing to close — and close() already ran safely
