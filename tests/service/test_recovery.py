"""Crash recovery through the service and CLI layers.

Covers the acceptance path end to end: a service with ``--snapshot-dir``
journals every batch, ``POST /admin/snapshot`` checkpoints on demand, the
periodic trigger checkpoints on a quarter cadence, and after a simulated
crash — between quarters or mid-quarter — ``build_service(--restore DIR)``
serves queries identical to an uninterrupted service.  One subprocess test
drives the real ``python -m repro serve`` process through SIGTERM and
asserts the graceful-shutdown final snapshot restores.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import build_service
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube

from tests.service.conftest import TPQ, workload

REPO_ROOT = Path(__file__).resolve().parents[2]


def serve_args(tmp_path, **overrides) -> argparse.Namespace:
    """The ``python -m repro serve`` argument namespace the CLI would build."""
    defaults = dict(
        shards=2,
        port=0,
        host="127.0.0.1",
        dims=2,
        levels=2,
        fanout=3,
        threshold=0.1,
        ticks_per_quarter=TPQ,
        window=4,
        restore=None,
        snapshot_dir=str(tmp_path / "snaps"),
        snapshot_every_quarters=0,
        storage_dir=None,
        storage_backend="file",
        hot_quarters=None,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def rows(records) -> list[dict]:
    return [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]


def ok(service: StreamCubeService, method: str, path: str, payload=None):
    status, body = service.handle(method, path, payload)
    assert status == 200, body
    return body


QUERIES = [
    {"op": "cell", "coord": [1, 1], "values": [0, 0]},
    {"op": "watch_list"},
    {"op": "observation_deck"},
    {"op": "top_slopes", "coord": [1, 1], "k": 5},
    {"op": "exceptions"},
]


def query_bodies(service: StreamCubeService) -> list[dict]:
    return [ok(service, "POST", "/query", q) for q in QUERIES]


class TestAdminSnapshot:
    def test_snapshot_route_writes_and_compacts(self, tmp_path):
        service = build_service(serve_args(tmp_path))
        try:
            ok(service, "POST", "/ingest", {"records": rows(workload(3))})
            body = ok(service, "POST", "/admin/snapshot")
            assert body["shards"] == 2
            assert Path(body["path"]).joinpath("manifest.json").exists()
            stats = ok(service, "GET", "/stats")["durability"]
            # One bootstrap snapshot at build time plus the admin one.
            assert stats["snapshots_written"] == 2
            assert stats["wal_seq"] == 1
            # The journal compacted through the snapshot: nothing to replay.
            from repro.stream.wal import QuarterWAL

            wal = QuarterWAL(Path(body["path"]) / "wal.jsonl")
            assert list(wal.entries(after_seq=body["wal_seq"])) == []
        finally:
            service.close()

    def test_snapshot_route_without_dir_is_400(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        service = StreamCubeService(cube, QueryRouter(cube))
        try:
            status, body = service.handle("POST", "/admin/snapshot")
            assert status == 400
            assert body["type"] == "ServiceError"
            assert "snapshot" in body["error"]
        finally:
            service.close()

    def test_periodic_snapshots_every_k_quarters(self, tmp_path):
        service = build_service(
            serve_args(tmp_path, snapshot_every_quarters=2)
        )
        try:
            records = workload(5)
            for record in records:  # tiny batches: cross quarters gradually
                ok(
                    service,
                    "POST",
                    "/ingest",
                    {"records": rows([record])},
                )
            ok(service, "POST", "/advance", {"t": 6 * TPQ})
            stats = ok(service, "GET", "/stats")["durability"]
            # Bootstrap at quarter 0 + 6 quarters sealed at K=2 -> 3 more.
            assert stats["snapshots_written"] == 4
            assert stats["last_snapshot_quarter"] == 6
        finally:
            service.close()


class TestRestoreCLI:
    @pytest.mark.parametrize("kill", ["between_quarters", "mid_quarter"])
    def test_restore_serves_identical_queries_after_crash(
        self, tmp_path, kill
    ):
        records = workload(7)
        # Cut either exactly at a quarter boundary or mid-quarter.
        if kill == "between_quarters":
            cut = next(
                i
                for i, r in enumerate(records)
                if r.t // TPQ == 4
            )
        else:
            cut = next(
                i
                for i, r in enumerate(records)
                if r.t // TPQ == 4 and r.t % TPQ == 2
            )

        # The uninterrupted reference service.
        reference = build_service(
            serve_args(tmp_path, snapshot_dir=str(tmp_path / "ref"))
        )
        crashed = build_service(serve_args(tmp_path))
        try:
            ok(reference, "POST", "/ingest", {"records": rows(records)})
            ok(reference, "POST", "/advance", {"t": 6 * TPQ})

            ok(crashed, "POST", "/ingest", {"records": rows(records[:cut])})
            ok(crashed, "POST", "/admin/snapshot")
            # Everything after the snapshot lives only in the WAL.
            ok(crashed, "POST", "/ingest", {"records": rows(records[cut:])})
            ok(crashed, "POST", "/advance", {"t": 6 * TPQ})
        finally:
            # Simulated crash: the process dies without a final snapshot.
            crashed.cube.close()

        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(tmp_path / "snaps"),
                shards=None,  # keep the snapshot's count
            )
        )
        try:
            assert restored.cube.current_quarter == 6
            assert (
                restored.cube.records_ingested
                == reference.cube.records_ingested
            )
            assert query_bodies(restored) == query_bodies(reference)
        finally:
            restored.close()
            reference.close()

    def test_restore_with_reshard_serves_identical_queries(self, tmp_path):
        records = workload(9)
        reference = build_service(
            serve_args(tmp_path, snapshot_dir=str(tmp_path / "ref"))
        )
        original = build_service(serve_args(tmp_path, shards=3))
        try:
            for service in (reference, original):
                ok(service, "POST", "/ingest", {"records": rows(records)})
                ok(service, "POST", "/advance", {"t": 6 * TPQ})
            ok(original, "POST", "/admin/snapshot")
        finally:
            original.cube.close()
        restored = build_service(
            serve_args(
                tmp_path, restore=str(tmp_path / "snaps"), shards=7
            )
        )
        try:
            assert restored.cube.n_shards == 7
            assert query_bodies(restored) == query_bodies(reference)
        finally:
            restored.close()
            reference.close()

    def test_fresh_start_refuses_dir_with_existing_snapshot(self, tmp_path):
        from repro.errors import ServiceError

        original = build_service(serve_args(tmp_path))
        original.close()  # bootstrap manifest now exists in snaps/
        with pytest.raises(ServiceError, match="already holds a snapshot"):
            build_service(serve_args(tmp_path))

    def test_crash_before_first_snapshot_recovers_from_wal_alone(
        self, tmp_path
    ):
        """A journal-only directory (no manifest) restores by full replay."""
        from repro.cubing.policy import GlobalSlopeThreshold
        from repro.stream.generator import DatasetSpec
        from repro.stream.wal import QuarterWAL

        records = workload(13)
        snaps = tmp_path / "onlywal"
        wal = QuarterWAL(snaps / "wal.jsonl")
        cube = ShardedStreamCube(
            DatasetSpec(2, 2, 3, 1).build_layers(),  # the serve_args schema
            GlobalSlopeThreshold(0.1),
            n_shards=2,
            ticks_per_quarter=TPQ,
            wal=wal,
        )
        with cube:
            cube.ingest_batch(records)
            cube.advance_to(6 * TPQ)  # crash: journaled but never snapshotted
        wal.close()
        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(snaps),
                snapshot_dir=str(snaps),
            )
        )
        try:
            assert restored.cube.records_ingested == len(records)
            assert restored.cube.current_quarter == 6
        finally:
            restored.close()

    def test_restore_uses_recorded_app_config(self, tmp_path):
        original = build_service(serve_args(tmp_path, dims=2, fanout=3))
        try:
            ok(original, "POST", "/ingest", {"records": rows(workload(3))})
            ok(original, "POST", "/admin/snapshot")
        finally:
            original.cube.close()
        # Deliberately wrong CLI flags: the manifest's app config wins.
        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(tmp_path / "snaps"),
                dims=5,
                fanout=11,
                shards=None,
            )
        )
        try:
            assert restored.cube.layers.schema.n_dims == 2
            assert restored.app_config["fanout"] == 3
        finally:
            restored.close()


class TestServeFlags:
    def test_process_backend_is_rejected(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["serve", "--backend", "process"])
        assert info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="POSIX signals required",
)
class TestGracefulShutdown:
    def test_sigterm_drains_and_snapshots(self, tmp_path):
        """The real process: serve, ingest, SIGTERM, restore the final
        snapshot."""
        port = _free_port()
        snaps = tmp_path / "snaps"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--shards",
                "2",
                "--dims",
                "2",
                "--levels",
                "2",
                "--fanout",
                "3",
                "--ticks-per-quarter",
                str(TPQ),
                "--snapshot-dir",
                str(snaps),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            _wait_for_port(port, proc)
            records = workload(11)
            _post(port, "/ingest", {"records": rows(records)})
            # Leave the stream mid-quarter: the final snapshot must carry
            # the unsealed accumulators too.
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0, out
            assert "final snapshot" in out
            assert (snaps / "manifest.json").exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        restored = build_service(
            serve_args(tmp_path, restore=str(snaps), shards=None)
        )
        try:
            assert restored.cube.records_ingested == len(records)
            assert restored.cube.current_quarter == 5  # t up to 6*TPQ-1
        finally:
            restored.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(port: int, proc: subprocess.Popen, timeout: float = 15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            out, _ = proc.communicate()
            raise AssertionError(f"serve exited early:\n{out}")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError("serve did not start listening in time")


def _post(port: int, path: str, payload: dict) -> dict:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        return json.loads(response.read())
