"""Both cold-store backends against the one contract, plus the shard layout.

Every behavioural test runs against the file and the sqlite backend through
one parametrized fixture; backend-specific durability quirks (torn tails in
append-only segments) get their own tests.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.errors import StorageError
from repro.storage import (
    ColdPage,
    FileColdStore,
    StorageConfig,
    open_cold_store,
    open_shard_stores,
    prune_stale_generations,
    shard_store_path,
)
from repro.storage.pages import PAGE_HEADER_BYTES

BACKENDS = ("file", "sqlite")


def page(level=0, t_b=0, t_e=3, rows=((0, 0), (1, 1)), bump=0.0) -> ColdPage:
    keys = [tuple(k) for k in rows]
    return ColdPage(
        level,
        t_b,
        t_e,
        keys,
        [float(i) + bump for i in range(len(keys))],
        [0.5 * i - bump for i in range(len(keys))],
        zero_base=1.5,
        zero_slope=-0.25,
    )


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    s = open_cold_store(tmp_path / "store", backend=request.param)
    yield s
    s.close()


class TestContract:
    def test_put_get_round_trip(self, store):
        p = page()
        store.put_segment(p)
        assert store.get_segment(0, 0, 3) == p

    def test_missing_key_is_an_error_not_empty(self, store):
        store.put_segment(page())
        with pytest.raises(StorageError, match="no page"):
            store.get_segment(0, 4, 7)

    def test_reput_is_idempotent_latest_wins(self, store):
        store.put_segment(page(bump=0.0))
        store.put_segment(page(bump=7.0))  # crash-recovery re-derivation
        got = store.get_segment(0, 0, 3)
        assert got == page(bump=7.0)
        assert store.stats().pages == 1

    def test_scan_is_sorted(self, store):
        for level, t_b in ((1, 16), (0, 4), (0, 0), (2, 0)):
            store.put_segment(page(level, t_b, t_b + 3))
        assert store.scan() == [(0, 0, 3), (0, 4, 7), (1, 16, 19), (2, 0, 3)]

    def test_stats_counters(self, store):
        assert store.stats().pages == 0
        store.put_segment(page(0, 0, 3))
        store.put_segment(page(0, 4, 7, rows=((2, 2),)))
        store.get_segment(0, 0, 3)
        stats = store.stats()
        assert stats.backend == store.backend
        assert stats.pages == 2
        assert stats.rows == 3
        assert stats.puts == 2
        assert stats.gets == 1
        assert stats.bytes_on_disk > 0
        assert stats.to_dict()["pages"] == 2

    def test_persistence_across_reopen(self, store, tmp_path):
        p = page(1, 8, 11)
        store.put_segment(p)
        store.close()
        reopened = open_cold_store(tmp_path / "store", backend=store.backend)
        try:
            assert reopened.scan() == [(1, 8, 11)]
            assert reopened.get_segment(1, 8, 11) == p
            # Operation counters are per-instance, not historical.
            assert reopened.stats().puts == 0
        finally:
            reopened.close()

    def test_compact_reclaims_superseded_pages(self, store):
        for bump in (0.0, 1.0, 2.0, 3.0):
            store.put_segment(page(bump=bump))
        store.put_segment(page(0, 4, 7))
        before = store.stats().bytes_on_disk
        freed = store.compact()
        if store.backend == "file":
            # Append-only segments really hold the three superseded
            # occurrences until compaction rewrites the partition; sqlite
            # replaced them in place, so 0 freed is contract-compliant.
            assert freed > 0
            assert store.stats().bytes_on_disk < before
            assert store.compact() == 0  # nothing left to reclaim
        else:
            assert freed >= 0
        # Live content is untouched either way.
        assert store.get_segment(0, 0, 3) == page(bump=3.0)
        assert store.get_segment(0, 4, 7) == page(0, 4, 7)

    def test_context_manager_closes(self, tmp_path):
        with open_cold_store(tmp_path / "cm", backend="sqlite") as s:
            s.put_segment(page())
        with open_cold_store(tmp_path / "cm", backend="sqlite") as s:
            assert s.stats().pages == 1


class TestFileBackendDurability:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with open_cold_store(tmp_path / "s", backend="file") as s:
            s.put_segment(page(0, 0, 3))
            s.put_segment(page(0, 4, 7))
        # A crash mid-append tears the tail of exactly one segment file.
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        whole = seg.read_bytes()
        seg.write_bytes(whole + b"\x40\x00\x00\x00RCP1torn")
        with open_cold_store(tmp_path / "s", backend="file") as s:
            assert s.scan() == [(0, 0, 3), (0, 4, 7)]
            assert s.get_segment(0, 4, 7) == page(0, 4, 7)
        assert seg.read_bytes() == whole  # tail dropped for future appends

    @pytest.mark.parametrize(
        "tail",
        ["length-prefix", "garbled-header", "length-disagrees"],
    )
    def test_every_torn_tail_shape_is_truncated(self, tmp_path, tail):
        with open_cold_store(tmp_path / "s", backend="file") as s:
            s.put_segment(page(0, 0, 3))
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        whole = seg.read_bytes()
        header_bytes = PAGE_HEADER_BYTES
        if tail == "length-prefix":
            garbage = b"\x40\x00"
        elif tail == "garbled-header":
            garbage = struct.pack("<I", header_bytes) + b"X" * header_bytes
        else:  # a real header whose declared size exceeds the prefix
            garbage = (
                struct.pack("<I", header_bytes)
                + page(0, 4, 7).encode()[:header_bytes]
            )
        seg.write_bytes(whole + garbage)
        with open_cold_store(tmp_path / "s", backend="file") as s:
            assert s.scan() == [(0, 0, 3)]
            assert s.get_segment(0, 0, 3) == page(0, 0, 3)
        assert seg.read_bytes() == whole

    def test_partition_ticks_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError, match="partition_ticks"):
            FileColdStore(tmp_path / "s", partition_ticks=0)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="unknown cold-store backend"):
            open_cold_store(tmp_path / "x", backend="shoebox")


def shard_key(values, n):
    return hash(values) % n


class TestShardLayout:
    def config(self, tmp_path, backend="file"):
        return StorageConfig(root=tmp_path / "root", backend=backend)

    def test_fresh_root_creates_generation_one(self, tmp_path):
        config = self.config(tmp_path)
        generation, stores = open_shard_stores(config, 3, shard_key)
        try:
            assert generation == 1
            assert (tmp_path / "root" / "g0001.ok").exists()
            for i in range(3):
                assert shard_store_path(
                    config.root, 1, i, 3, "file"
                ).exists()
        finally:
            for s in stores:
                s.close()

    def test_reopen_same_shard_count_reuses_generation(self, tmp_path):
        config = self.config(tmp_path)
        generation, stores = open_shard_stores(config, 2, shard_key)
        stores[0].put_segment(page())
        for s in stores:
            s.close()
        generation2, stores = open_shard_stores(config, 2, shard_key)
        try:
            assert generation2 == generation == 1
            assert stores[0].get_segment(0, 0, 3) == page()
        finally:
            for s in stores:
                s.close()

    def test_reshard_repartitions_rows_by_key(self, tmp_path):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        keys = [(i, i + 1) for i in range(6)]
        stores[0].put_segment(
            ColdPage(
                0, 0, 3, keys, [float(i) for i in range(6)], [0.0] * 6,
                zero_base=9.0, zero_slope=-9.0,
            )
        )
        for s in stores:
            s.close()
        generation, stores = open_shard_stores(config, 3, shard_key)
        try:
            assert generation == 2
            seen = {}
            for j, s in enumerate(stores):
                got = s.get_segment(0, 0, 3)  # every shard holds the page
                assert got.zero_isb().base == 9.0  # zero row survives
                for key, base in zip(got.keys, got.base):
                    assert shard_key(key, 3) == j
                    seen[key] = base
            assert seen == {k: float(i) for i, k in enumerate(keys)}
        finally:
            for s in stores:
                s.close()

    def test_prune_stale_generations(self, tmp_path):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        stores[0].put_segment(page())
        for s in stores:
            s.close()
        generation, stores = open_shard_stores(config, 2, shard_key)
        for s in stores:
            s.close()
        assert (tmp_path / "root" / "g0001.ok").exists()
        removed = prune_stale_generations(config, generation)
        assert removed == 1
        assert not (tmp_path / "root" / "g0001.ok").exists()
        assert not shard_store_path(config.root, 1, 0, 1, "file").exists()
        assert (tmp_path / "root" / "g0002.ok").exists()

    def test_backend_mismatch_rejected(self, tmp_path):
        _, stores = open_shard_stores(self.config(tmp_path), 1, shard_key)
        for s in stores:
            s.close()
        with pytest.raises(StorageError, match="backend"):
            open_shard_stores(
                self.config(tmp_path, backend="sqlite"), 1, shard_key
            )

    def test_partial_generation_without_marker_is_inert(self, tmp_path):
        """A crash mid-reshard leaves stores without a marker; the next
        open ignores them and starts generation one cleanly."""
        config = self.config(tmp_path)
        orphan = shard_store_path(config.root, 3, 0, 2, "file")
        orphan.mkdir(parents=True)
        generation, stores = open_shard_stores(config, 2, shard_key)
        try:
            assert generation == 1
        finally:
            for s in stores:
                s.close()

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            json.dumps({"generation": 1}),
            json.dumps({"generation": "one", "n_shards": 1, "backend": "file"}),
        ],
    )
    def test_malformed_marker_rejected(self, tmp_path, text):
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0001.ok").write_text(text)
        with pytest.raises(StorageError, match="malformed"):
            open_shard_stores(self.config(tmp_path), 1, shard_key)

    def test_marker_disagreeing_with_its_name_rejected(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0002.ok").write_text(
            json.dumps({"generation": 1, "n_shards": 1, "backend": "file"})
        )
        with pytest.raises(StorageError, match="disagrees with its own name"):
            open_shard_stores(self.config(tmp_path), 1, shard_key)

    def test_reshard_fills_shards_that_held_no_page(self, tmp_path):
        """An interval only one old shard wrote still reaches every new
        shard, each with its rows plus the zero row."""
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 2, shard_key)
        keys = [(i, i) for i in range(4)]
        stores[1].put_segment(
            ColdPage(
                0, 0, 3, keys, [1.0] * 4, [0.0] * 4,
                zero_base=2.0, zero_slope=0.5,
            )
        )
        for s in stores:
            s.close()
        generation, stores = open_shard_stores(config, 3, shard_key)
        try:
            assert generation == 2
            rows = 0
            for s in stores:
                got = s.get_segment(0, 0, 3)
                assert got.zero_isb().base == 2.0
                rows += len(got.keys)
            assert rows == 4
        finally:
            for s in stores:
                s.close()

    def test_prune_removes_sqlite_generation_files(self, tmp_path):
        config = self.config(tmp_path, backend="sqlite")
        _, stores = open_shard_stores(config, 1, shard_key)
        for s in stores:
            s.close()
        generation, stores = open_shard_stores(config, 2, shard_key)
        for s in stores:
            s.close()
        old = shard_store_path(config.root, 1, 0, 1, "sqlite")
        assert old.is_file()
        assert prune_stale_generations(config, generation) == 1
        assert not old.exists()
        assert shard_store_path(config.root, 2, 1, 2, "sqlite").is_file()

    def test_config_validation(self, tmp_path):
        with pytest.raises(StorageError, match="backend"):
            StorageConfig(root=tmp_path, backend="shoebox")
        with pytest.raises(StorageError, match="hot_quarters"):
            StorageConfig(root=tmp_path, hot_quarters=0)
        with pytest.raises(StorageError, match="n_shards"):
            open_shard_stores(self.config(tmp_path), 0, shard_key)
