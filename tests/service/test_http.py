"""The JSON service: dispatch-level tests plus one live-socket round trip."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.io import cells_from_payload, isb_from_dict
from repro.query import Q
from repro.service.http import MAX_BODY_BYTES, StreamCubeService, make_server
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import MAX_QUEUE_LIMIT, MAX_SUBSCRIPTIONS
from repro.storage import StorageConfig

from tests.service.conftest import TPQ, workload


@pytest.fixture
def service(layers, policy):
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    yield service
    service.close()


@pytest.fixture
def loaded(service):
    records = workload(3)
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z} for r in records
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": 6 * TPQ})
    return service


class TestDispatch:
    def test_health(self, loaded):
        status, body = loaded.handle("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == 2
        assert body["current_quarter"] == 6
        assert body["records_ingested"] > 0

    def test_stats(self, loaded):
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        assert body["router"]["cache_misses"] >= 1
        assert len(body["shard_cells"]) == 2

    def test_cell_round_trips_isb(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        assert status == 200
        isb = isb_from_dict(body["isb"])
        assert isb == loaded.router.execute(Q.cell((1, 1), (0, 0))).value

    def test_slice_and_exceptions(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/query",
            {"op": "slice", "coord": [1, 1], "fixed": {"d0": 0}},
        )
        assert status == 200
        cells = cells_from_payload(body["cells"])
        assert cells == loaded.router.execute(Q.slice((1, 1), {"d0": 0})).value

        status, body = loaded.handle("POST", "/query", {"op": "exceptions"})
        assert status == 200
        coords = {tuple(entry["coord"]) for entry in body["cuboids"]}
        assert loaded.cube.layers.o_coord in coords

    def test_change_exceptions(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "change_exceptions", "layer": "o"}
        )
        assert status == 200
        assert cells_from_payload(body["cells"]) == (
            loaded.router.change_exceptions(1, "o")
        )

    def test_domain_error_maps_to_400(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [9, 9], "values": [0, 0]}
        )
        assert status == 400
        assert "error" in body and body["type"]

    def test_unknown_op_and_route(self, loaded):
        status, body = loaded.handle("POST", "/query", {"op": "magic"})
        assert status == 400
        status, body = loaded.handle("GET", "/nope")
        assert status == 404

    def test_malformed_query_fields_map_to_400(self, loaded):
        """Missing or mistyped /query fields are a client error, never an
        unanswered (dropped) request."""
        for payload in (
            {"op": "cell"},  # missing coord/values
            {"op": "cell", "coord": [1, 1], "values": [0, 0], "window": "x"},
            {"op": "top_slopes", "coord": [1, 1], "k": "many"},
            {"op": "roll_up", "coord": [1, 1], "values": [0, 0]},  # no dim
        ):
            status, body = loaded.handle("POST", "/query", payload)
            assert status == 400, payload
            assert "error" in body, payload

    def test_malformed_ingest_rejected(self, service):
        status, body = service.handle("POST", "/ingest", {"records": "nope"})
        assert status == 400
        status, body = service.handle(
            "POST", "/ingest", {"records": [{"values": [0, 0]}]}
        )
        assert status == 400
        assert service.cube.records_ingested == 0

    @pytest.mark.parametrize("values", ["00", 7, {"a": 0}])
    def test_ingest_values_must_be_a_list(self, service, values):
        status, body = service.handle(
            "POST",
            "/ingest",
            {"records": [{"values": values, "t": 0, "z": 1.0}]},
        )
        assert status == 400
        assert "'values' must be a list" in body["error"]
        assert service.cube.records_ingested == 0

    @pytest.mark.parametrize("payload", [{}, {"t": "soon"}, {"t": None}])
    def test_advance_needs_an_integer_tick(self, loaded, payload):
        quarter = loaded.cube.current_quarter
        status, body = loaded.handle("POST", "/advance", payload)
        assert status == 400
        assert "integer 't'" in body["error"]
        assert loaded.cube.current_quarter == quarter


class TestServiceConfig:
    def test_negative_snapshot_cadence_rejected(self, layers, policy):
        with ShardedStreamCube(
            layers, policy, n_shards=1, ticks_per_quarter=TPQ
        ) as cube:
            with pytest.raises(ServiceError, match=">= 0"):
                StreamCubeService(
                    cube, QueryRouter(cube), snapshot_every_quarters=-1
                )

    def test_snapshot_cadence_needs_a_directory(self, layers, policy):
        with ShardedStreamCube(
            layers, policy, n_shards=1, ticks_per_quarter=TPQ
        ) as cube:
            with pytest.raises(ServiceError, match="snapshot_dir"):
                StreamCubeService(
                    cube, QueryRouter(cube), snapshot_every_quarters=2
                )


class TestBatchQueries:
    def test_batch_returns_per_spec_results_and_errors(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/query",
            {
                "queries": [
                    {"op": "watch_list"},
                    {"op": "top_slopes", "coord": [1, 1], "k": 3},
                    {"op": "cell", "coord": [9, 9], "values": [0, 0]},
                ]
            },
        )
        assert status == 200
        assert body["count"] == 3
        watch, top, bad = body["results"]
        assert watch["ok"] is True
        assert cells_from_payload(watch["cells"]) == (
            loaded.router.execute(Q.watch_list()).value
        )
        assert top["ok"] is True
        assert len(top["cells"]) <= 3
        assert bad["ok"] is False
        assert bad["type"] == "SchemaError"
        assert bad["error"]

    def test_batch_shares_one_view_refresh(self, loaded):
        before = loaded.router.refreshes
        status, _ = loaded.handle(
            "POST",
            "/query",
            {
                "queries": [
                    {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                    {"op": "slice", "coord": [1, 1], "fixed": {"d0": 0}},
                    {"op": "observation_deck"},
                    {"op": "siblings", "coord": [2, 2], "values": [0, 0],
                     "dim": "d0"},
                ]
            },
        )
        assert status == 200
        assert loaded.router.refreshes == before + 1

    def test_batch_matches_single_requests(self, loaded):
        single = [
            loaded.handle("POST", "/query", q)[1]
            for q in (
                {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                {"op": "watch_list"},
            )
        ]
        status, body = loaded.handle(
            "POST",
            "/query",
            {"queries": [
                {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                {"op": "watch_list"},
            ]},
        )
        assert status == 200
        for got, expected in zip(body["results"], single):
            assert {k: v for k, v in got.items() if k != "ok"} == expected

    def test_batch_requires_a_list(self, loaded):
        status, body = loaded.handle("POST", "/query", {"queries": "nope"})
        assert status == 400
        assert body["type"] == "ServiceError"

    def test_retired_point_alias_rejected(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "point", "coord": [1, 1], "values": [0, 0]}
        )
        assert status == 400
        assert body["type"] == "QueryError"
        assert "unknown query op 'point'" in body["error"]


@pytest.fixture
def tiered_service(layers, policy, tmp_path):
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=2,
        ticks_per_quarter=TPQ,
        storage=StorageConfig(
            root=tmp_path / "cold", backend="file", hot_quarters=1
        ),
    )
    service = StreamCubeService(
        cube,
        QueryRouter(cube, window_quarters=4),
        snapshot_dir=tmp_path / "snapshots",
    )
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z} for r in workload(3)
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": 6 * TPQ})
    yield service
    service.close()


class TestStorageStats:
    def test_storage_block_is_null_without_tiered_storage(self, loaded):
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        assert body["storage"] is None

    def test_storage_block_reports_the_cold_tier(self, tiered_service):
        status, body = tiered_service.handle("GET", "/stats")
        assert status == 200
        storage = body["storage"]
        assert storage["backend"] == "file"
        assert storage["generation"] == 1
        assert storage["hot_quarters"] == 1
        assert storage["pages"] > 0
        assert storage["rows"] > 0
        assert storage["bytes_on_disk"] > 0
        assert storage["pages_spilled"] > 0
        assert storage["cold_slots"] > 0
        assert len(storage["shards"]) == 2
        assert storage["pages"] == sum(
            shard["pages"] for shard in storage["shards"]
        )

    def test_cold_faults_show_up_after_a_deep_window(self, tiered_service):
        _, before = tiered_service.handle("GET", "/stats")
        # A five-quarter window starts mid-hour, so its decomposition needs
        # quarter slots that were demoted (the resident hour slots only
        # cover hour-aligned prefixes).
        status, _ = tiered_service.handle(
            "POST", "/query", {"op": "watch_list", "window": 5}
        )
        assert status == 200
        _, after = tiered_service.handle("GET", "/stats")
        assert (
            after["storage"]["cold_faults"]
            > before["storage"]["cold_faults"]
        )

    def test_admin_snapshot_compacts_the_cold_tier(self, tiered_service):
        status, body = tiered_service.handle("POST", "/admin/snapshot", {})
        assert status == 200
        assert body["shards"] == 2
        import json as jsonlib

        manifest = jsonlib.loads(
            (tiered_service.snapshot_dir / "manifest.json").read_text()
        )
        assert manifest["storage"]["backend"] == "file"
        assert manifest["storage"]["hot_quarters"] == 1
        # The stores survive checkpoint compaction and keep answering.
        status, body = tiered_service.handle("GET", "/stats")
        assert status == 200
        assert body["storage"]["pages"] > 0


class TestStatsEndpoint:
    def test_stats_expose_cache_views_and_batches(self, loaded):
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        loaded.handle("POST", "/query", {"queries": [{"op": "watch_list"}]})
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        router = body["router"]
        assert router["cache_hits"] >= 1
        assert router["cache_misses"] >= 1
        assert router["cache_entries"] >= 1
        assert router["cache_capacity"] >= router["cache_entries"]
        assert router["views"] == 1
        assert router["batches"] == 1
        # Three requests, but the repeated cell query is a cache hit and
        # hits are not executions: only the first cell and the batched
        # watch_list actually ran.
        assert router["specs_executed"] == 2
        assert router["single_flight_fallbacks"] == 0
        assert len(body["shard_cells"]) == 2
        assert sum(body["shard_cells"]) > 0
        # Shards run in-process only: no execution-backend block.
        assert "parallel" not in body


class TestSubscriptionEndpoints:
    def _seal_next(self, service):
        quarter = service.cube.current_quarter
        t0 = quarter * TPQ
        rows = [
            {"values": [0, 0], "t": t, "z": 5.0 + t}
            for t in range(t0, t0 + TPQ)
        ]
        status, _ = service.handle("POST", "/ingest", {"records": rows})
        assert status == 200
        status, _ = service.handle(
            "POST", "/advance", {"t": (quarter + 1) * TPQ}
        )
        assert status == 200
        assert service.subscriptions.flush(10.0)

    def test_subscribe_list_update_unsubscribe(self, loaded):
        # Drain the dispatch round triggered by the fixture's own seals:
        # a subscription registered while that round is still pending
        # legitimately rides along and would add an extra update here.
        assert loaded.subscriptions.flush(10.0)
        status, body = loaded.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        sub_id = body["subscription"]

        status, body = loaded.handle("GET", "/subscriptions")
        assert status == 200
        assert [s["id"] for s in body["subscriptions"]] == [sub_id]
        assert body["subscriptions"][0]["op"] == "watch_list"
        assert body["subscriptions"][0]["every_k_quarters"] == 1

        self._seal_next(loaded)
        # Query-string form, exactly as a long-polling client sends it.
        status, body = loaded.handle(
            "GET", f"/updates?subscription={sub_id}&since=0&timeout=0"
        )
        assert status == 200
        assert len(body["updates"]) == 1
        update = body["updates"][0]
        assert update["seq"] == 1
        assert update["quarter"] == loaded.cube.current_quarter
        assert update["epoch"] == list(loaded.cube.epoch_vector())
        assert "cells" in update["result"]

        # Acking via since= filters the already-seen update out.
        status, body = loaded.handle(
            "GET", f"/updates?subscription={sub_id}&since=1"
        )
        assert status == 200
        assert body["updates"] == [] and body["last_seq"] == 1

        status, body = loaded.handle("DELETE", f"/subscribe/{sub_id}")
        assert status == 200 and body == {"removed": sub_id}
        status, body = loaded.handle("DELETE", f"/subscribe/{sub_id}")
        assert status == 404

    def test_spec_subscription_payload(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/subscribe",
            {
                "spec": {"op": "observation_deck"},
                "every_k_quarters": 2,
                "queue_limit": 3,
            },
        )
        assert status == 200
        described = loaded.handle("GET", "/subscriptions")[1][
            "subscriptions"
        ][0]
        assert described["op"] == "observation_deck"
        assert described["every_k_quarters"] == 2
        assert described["queue_limit"] == 3

    def test_updates_requires_a_known_subscription(self, loaded):
        status, body = loaded.handle("GET", "/updates")
        assert status == 400 and body["type"] == "ServiceError"
        status, body = loaded.handle(
            "GET", "/updates?subscription=sub-999"
        )
        assert status == 400 and "unknown subscription" in body["error"]

    def test_bad_subscribe_payloads_map_to_400(self, loaded):
        for payload in (
            {},
            {"watch": True, "every_seal": True, "every_k_quarters": 2},
            {"watch": True, "every_k_quarters": 0},
            {"watch": True, "queue_limit": 0},
            {"spec": {"op": "no_such_op"}},
        ):
            status, body = loaded.handle("POST", "/subscribe", payload)
            assert status == 400, payload
            assert "error" in body, payload

    def test_subscribe_caps_answer_400_naming_the_cap(self, loaded):
        status, body = loaded.handle(
            "POST", "/subscribe", {"watch": True, "queue_limit": 10**12}
        )
        assert status == 400
        assert "MAX_QUEUE_LIMIT" in body["error"]
        assert str(MAX_QUEUE_LIMIT) in body["error"]
        for _ in range(MAX_SUBSCRIPTIONS):
            status, _ = loaded.handle("POST", "/subscribe", {"watch": True})
            assert status == 200
        status, body = loaded.handle("POST", "/subscribe", {"watch": True})
        assert status == 400
        assert "MAX_SUBSCRIPTIONS" in body["error"]

    def test_stats_expose_subscriptions_block(self, loaded):
        assert loaded.subscriptions.flush(10.0)
        status, body = loaded.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        self._seal_next(loaded)
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        subs = body["subscriptions"]
        assert subs["active"] == 1
        assert subs["created"] == 1
        assert subs["queued"] == 1
        assert subs["seals_signaled"] >= 1
        assert subs["updates_enqueued"] == 1
        assert subs["updates_dropped"] == 0


class TestLiveServer:
    def test_end_to_end_over_sockets(self, service):
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def post(path, body):
            req = urllib.request.Request(
                base + path,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as response:
                return json.loads(response.read())

        try:
            records = workload(3)
            rows = [
                {"values": list(r.values), "t": r.t, "z": r.z}
                for r in records
            ]
            assert post("/ingest", {"records": rows})["ingested"] == len(rows)
            assert post("/advance", {"t": 6 * TPQ})["current_quarter"] == 6

            body = post(
                "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
            )
            assert isb_from_dict(body["isb"]) == (
                service.router.execute(Q.cell((1, 1), (0, 0))).value
            )

            body = post("/query", {"op": "watch_list"})
            assert cells_from_payload(body["cells"]) == (
                service.router.execute(Q.watch_list()).value
            )

            with urllib.request.urlopen(base + "/health") as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post("/query", {"op": "magic"})
            assert excinfo.value.code == 400

            # The push surface over real sockets: subscribe, seal a
            # quarter, long-poll the update, unsubscribe via DELETE.
            assert service.subscriptions.flush(10.0)
            sub_id = post("/subscribe", {"watch": True})["subscription"]
            t0 = 6 * TPQ
            seal_rows = [
                {"values": [0, 0], "t": t, "z": 5.0} for t in range(t0, t0 + TPQ)
            ]
            post("/ingest", {"records": seal_rows})
            post("/advance", {"t": 7 * TPQ})
            with urllib.request.urlopen(
                f"{base}/updates?subscription={sub_id}&since=0&timeout=5"
            ) as response:
                updates = json.loads(response.read())["updates"]
            assert len(updates) == 1 and updates[0]["seq"] == 1
            delete = urllib.request.Request(
                f"{base}/subscribe/{sub_id}", method="DELETE"
            )
            with urllib.request.urlopen(delete) as response:
                assert json.loads(response.read()) == {"removed": sub_id}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(delete)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


@pytest.fixture
def live(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _raw_post(port, content_length, body=b""):
    """POST /query with a hand-written Content-Length header."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + content_length + b"\r\n\r\n" + body
        )
        response = http.client.HTTPResponse(sock)
        try:
            response.begin()
            return response.status, json.loads(response.read())
        finally:
            # Release the socket's file view too, or the close is deferred
            # and a server still reading the body never sees EOF.
            response.close()


class TestRequestBodyLimits:
    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"1.5", b""])
    def test_bad_content_length_is_400(self, live, declared):
        status, body = _raw_post(live.server_address[1], declared)
        assert status == 400
        assert body["type"] == "BadRequest"
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_unread(self, live, service):
        # Only the header is sent: the answer must not wait for the body.
        declared = str(MAX_BODY_BYTES + 1).encode()
        status, body = _raw_post(live.server_address[1], declared)
        assert status == 413
        assert body["type"] == "PayloadTooLarge"
        assert service.router.stats()["specs_executed"] == 0

    def test_invalid_json_body_is_400(self, live):
        status, body = _raw_post(live.server_address[1], b"5", b"{op: ")
        assert status == 400
        assert body["type"] == "BadRequest"
        assert "invalid JSON" in body["error"]

    @pytest.mark.parametrize("raw", [b"[]", b"3", b'"cell"'])
    def test_non_object_body_is_400(self, live, raw):
        status, body = _raw_post(
            live.server_address[1], str(len(raw)).encode(), raw
        )
        assert status == 400
        assert body == {
            "error": "JSON body must be an object",
            "type": "BadRequest",
        }

    def test_declared_body_is_read(self, live):
        payload = json.dumps({"op": "magic"}).encode()
        status, body = _raw_post(
            live.server_address[1], str(len(payload)).encode(), payload
        )
        assert status == 400 and body["type"] == "QueryError"


class TestGracefulDrain:
    def test_close_returns_despite_idle_keep_alive(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            # The connection now idles in keep-alive, its handler parked
            # on the next request line.
            server.shutdown()
            thread.join(timeout=5)
            closer = threading.Thread(target=server.server_close, daemon=True)
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive(), "server_close hung on an idle socket"
        finally:
            conn.close()

    def test_connection_tracking_under_concurrent_clients(self, live):
        # More client threads than cores and request threads, each on
        # fresh connections: every tracked socket must be released.
        port = live.server_address[1]
        errors = []

        def client():
            try:
                for _ in range(5):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=10
                    )
                    conn.request("GET", "/health")
                    response = conn.getresponse()
                    response.read()
                    conn.close()
                    assert response.status == 200
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(16)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        deadline = time.monotonic() + 5
        while live._live and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not live._live

    def test_in_flight_request_still_answers(self, loaded):
        server = make_server(loaded, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        sub_id = loaded.subscriptions.subscribe_payload({"watch": True})
        assert loaded.subscriptions.flush(10.0)
        seen = loaded.subscriptions.poll(sub_id, 0, 0.0)["updates"]
        since = max((update["seq"] for update in seen), default=0)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            # A long-poll that is mid-flight when the drain starts.
            conn.request(
                "GET",
                f"/updates?subscription={sub_id}&since={since}&timeout=1",
            )
            time.sleep(0.2)
            server.shutdown()
            thread.join(timeout=5)
            closer = threading.Thread(target=server.server_close, daemon=True)
            closer.start()
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["updates"] == []
            closer.join(timeout=5)
            assert not closer.is_alive()
        finally:
            conn.close()
