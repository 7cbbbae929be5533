"""Degraded-mode serving over HTTP: partial answers, probes, manifests.

The service's availability contract: when one shard's cold page rots on
disk, ``POST /query`` over a window that needs it still answers 200 with
the other shards' exact union and a ``degraded`` block naming the missing
shard (never a 500), repeats keep saying so, and a tampered snapshot
manifest refuses restore with a typed :class:`CorruptionError`.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.errors import CorruptionError, StorageError
from repro.io import payload_checksum
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.engine import StreamCubeEngine

from tests.service.conftest import TPQ, workload

QUARTERS = 8
#: The deep window: every sealed quarter, so it needs demoted cold pages.
DEEP = {"op": "watch_list", "window": QUARTERS}
CELL = {"op": "cell", "coord": [1, 1], "values": [0, 0], "window": QUARTERS}


def rot_cold_pages(root, shard):
    """Flip the last byte of one shard's cold segment files on disk: it
    sits in some page's float column, caught by the whole-page CRC."""
    segments = sorted(root.glob(f"g*-shard-{shard:02d}-of-*/L*.seg"))
    assert segments, "no pages spilled; widen the workload"
    for path in segments:
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40
        path.write_bytes(bytes(raw))


@pytest.fixture
def rotted(layers, policy, tmp_path):
    """An in-process spilling service whose shard 1 has a rotten page."""
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=2,
        ticks_per_quarter=TPQ,
        storage=StorageConfig(
            root=tmp_path / "cold", backend="file", hot_quarters=2
        ),
    )
    service = StreamCubeService(
        cube, QueryRouter(cube, window_quarters=4)
    )
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z}
        for r in workload(13, quarters=QUARTERS)
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": QUARTERS * TPQ})
    rot_cold_pages(tmp_path / "cold", shard=1)
    yield service
    service.close()


class TestProbes:
    def test_probes_keep_answering_200(self, rotted):
        rotted.handle("POST", "/query", DEEP)  # quarantines the page
        status, body = rotted.handle("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert [s["shard"] for s in body["shards"]] == [0, 1]
        assert [s["last_quarter"] for s in body["shards"]] == [8, 8]
        status, body = rotted.handle("GET", "/readyz")
        assert status == 200
        assert body == {"ready": True, "shards": 2, "dead_shards": []}


class TestDegradedQueries:
    def test_deep_query_returns_200_with_degraded_block(self, rotted):
        status, body = rotted.handle("POST", "/query", DEEP)
        assert status == 200
        block = body["degraded"]
        assert [row["shard"] for row in block["missing"]] == [1]
        assert block["missing"][0]["state"] == "degraded"
        assert "quarantined" in block["missing"][0]["reason"]
        assert block["staleness_bound"] == QUARTERS

    def test_repeat_queries_stay_200_and_degraded(self, rotted):
        """No cached answer outlives a partial read: every repeat re-reads
        the quarantined page's shard and reports the hole again."""
        for spec in (DEEP, DEEP, CELL, CELL):
            status, body = rotted.handle("POST", "/query", spec)
            assert status == 200
            assert [row["shard"] for row in body["degraded"]["missing"]] == [1]
            assert body["degraded"]["staleness_bound"] == QUARTERS

    def test_batch_queries_degrade_too(self, rotted):
        status, body = rotted.handle(
            "POST", "/query", {"queries": [DEEP, CELL]}
        )
        assert status == 200
        assert body["count"] == 2
        assert body["degraded"]["missing"][0]["shard"] == 1

    def test_hot_window_queries_have_no_block(self, rotted):
        """A window inside the hot horizon never touches the rotten page."""
        rotted.handle("POST", "/query", DEEP)
        status, body = rotted.handle(
            "POST",
            "/query",
            {"op": "cell", "coord": [1, 1], "values": [0, 0], "window": 2},
        )
        assert status == 200
        assert "degraded" not in body


class TestDegradedReads:
    def test_partial_answer_is_the_surviving_shards_slice(
        self, rotted, layers, policy
    ):
        cube = rotted.cube
        partial = cube.window_isbs(0, QUARTERS * TPQ - 1)
        holes = cube.consume_degraded()
        assert [h["shard"] for h in holes] == [1]
        assert holes[0]["last_quarter"] == QUARTERS
        engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        engine.ingest_many(workload(13, quarters=QUARTERS))
        engine.advance_to(QUARTERS * TPQ)
        full = engine.window_isbs(0, QUARTERS * TPQ - 1)
        # Exact for the shard present: a subset of the truth, never garbage.
        assert partial
        assert len(partial) < len(full)
        assert all(full[key] == isb for key, isb in partial.items())

    def test_consume_degraded_drains_and_dedupes(self, rotted):
        cube = rotted.cube
        cube.window_isbs(0, QUARTERS * TPQ - 1)
        cube.window_isbs(0, QUARTERS * TPQ - 1)  # same shard, one entry
        assert [h["shard"] for h in cube.consume_degraded()] == [1]
        assert cube.consume_degraded() == []

    def test_concurrent_degraded_reads_never_lose_a_version_bump(
        self, rotted
    ):
        """Each partial read moves the epoch vector; concurrent readers
        bumping it under shared read locks must not lose an increment, or
        a partial answer could match a later vector and be served."""
        cube = rotted.cube
        threads, reads = 8, 25
        before = cube.epoch_vector()[0]

        def reader():
            for _ in range(reads):
                cube.window_isbs(0, QUARTERS * TPQ - 1)
            cube.consume_degraded()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=reader) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert cube.epoch_vector()[0] == before + threads * reads

    def test_strict_mode_still_raises(self, rotted):
        cube = rotted.cube
        cube.degraded_reads = False
        with pytest.raises(CorruptionError, match="quarantined"):
            cube.window_isbs(0, QUARTERS * TPQ - 1)
        # The quarantined page is gone; strict reads keep failing loudly.
        with pytest.raises(StorageError, match="no page"):
            cube.window_isbs(0, QUARTERS * TPQ - 1)
        assert cube.consume_degraded() == []


class TestManifestChecksum:
    def snapshot(self, layers, policy, tmp_path):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        try:
            cube.ingest_batch(workload(5))
            cube.advance_to(6 * TPQ)
            cube.snapshot(tmp_path / "snap")
        finally:
            cube.close()
        return tmp_path / "snap"

    def test_tampered_manifest_refuses_restore(
        self, layers, policy, tmp_path
    ):
        snap = self.snapshot(layers, policy, tmp_path)
        manifest_path = snap / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["current_quarter"] = 2  # rot one field, keep old checksum
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(CorruptionError, match="failed its checksum"):
            ShardedStreamCube.read_manifest(snap)

    def test_checksum_absent_is_accepted(self, layers, policy, tmp_path):
        """Manifests written before the checksum existed keep restoring."""
        snap = self.snapshot(layers, policy, tmp_path)
        manifest_path = snap / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        del payload["checksum"]
        manifest_path.write_text(json.dumps(payload))
        manifest = ShardedStreamCube.read_manifest(snap)
        assert manifest["n_shards"] == 2

    def test_written_manifest_checksum_verifies(
        self, layers, policy, tmp_path
    ):
        snap = self.snapshot(layers, policy, tmp_path)
        payload = json.loads((snap / "manifest.json").read_text())
        assert payload["checksum"] == payload_checksum(payload)
