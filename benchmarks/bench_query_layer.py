"""Query-layer microbenchmark: spec overhead, batching, and the cache.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_layer.py [--json PATH]

``--json PATH`` (or ``REPRO_BENCH_JSON=PATH``) additionally writes
``BENCH_query_layer.json`` with the measured profile.

Measures the cost structure of the declarative query API over a loaded
sharded service:

* spec construction + canonical ``cache_key()`` (plans/second),
* JSON codec round trips (``decode(encode(spec))``, specs/second),
* per-request dispatch: N single ``POST /query`` calls through the
  service's ``handle``, against
* batched dispatch: one ``POST /query`` with the same N specs (the DRSP
  pruning-before-evaluation idea: amortize per-request overhead), and
* cached vs uncached execution latency through the router.

Also runnable through :mod:`benchmarks.report` (a query-layer section
follows the service throughput table).  The correctness-flavored checks
(round trips, identical answers) are deterministic; the latency checks use
generous margins because single-process microbenchmarks jitter.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import spec_from_dict, spec_to_dict
from repro.query.spec import Q
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

_TPQ = 15
_QUARTERS = 6
_RECORDS_PER_TICK = 40
_N_SPECS = 400
_BUILD_ROUNDS = 5_000


@dataclass(frozen=True)
class QueryLayerPoint:
    """The measured profile of the query layer."""

    n_specs: int
    build_us: float
    codec_us: float
    per_request_ms: float
    batched_ms: float
    uncached_us: float
    cached_us: float

    @property
    def batch_speedup(self) -> float:
        return self.per_request_ms / self.batched_ms

    @property
    def cache_speedup(self) -> float:
        return self.uncached_us / self.cached_us


def _loaded_service(seed: int = 29) -> StreamCubeService:
    layers = DatasetSpec(3, 3, 10, 1).build_layers()
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.05),
        n_shards=2,
        ticks_per_quarter=_TPQ,
    )
    rng = random.Random(seed)
    leaf_card = 10**3
    records = [
        StreamRecord(
            tuple(rng.randrange(leaf_card) for _ in range(3)),
            t,
            rng.uniform(0.0, 4.0),
        )
        for t in range(_QUARTERS * _TPQ)
        for _ in range(_RECORDS_PER_TICK)
    ]
    cube.ingest_batch(records)
    cube.advance_to(_QUARTERS * _TPQ)
    return StreamCubeService(cube, QueryRouter(cube, window_quarters=4))


def _spec_payloads(service: StreamCubeService, n: int) -> list[dict]:
    """N distinct single-query wire payloads over real m-layer cells."""
    rng = random.Random(31)
    cells = list(service.cube.m_cells(4))
    m_coord = list(service.cube.layers.m_coord)
    payloads: list[dict] = []
    for i in range(n):
        values = list(cells[rng.randrange(len(cells))])
        payloads.append({"op": "cell", "coord": m_coord, "values": values})
    return payloads


def measure_query_layer() -> QueryLayerPoint:
    service = _loaded_service()
    router = service.router
    payloads = _spec_payloads(service, _N_SPECS)

    # Spec construction + cache key.
    t0 = time.perf_counter()
    for _ in range(_BUILD_ROUNDS):
        Q.cell((3, 3, 3), (1, 2, 3)).window(4).cache_key()
    build_us = (time.perf_counter() - t0) / _BUILD_ROUNDS * 1e6

    # Codec round trip.
    specs = [spec_from_dict(p) for p in payloads]
    t0 = time.perf_counter()
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec
    codec_us = (time.perf_counter() - t0) / len(specs) * 1e6

    # Warm the merged result so both dispatch styles pay only dispatch.
    router.result()

    # Per-request dispatch (every call re-enters handle + lock + router).
    t0 = time.perf_counter()
    for payload in payloads:
        status, _ = service.handle("POST", "/query", payload)
        assert status == 200
    per_request_s = time.perf_counter() - t0

    # Batched dispatch: same specs, one request.  Same cache state as the
    # per-request pass (everything now hits), isolating dispatch overhead.
    t0 = time.perf_counter()
    status, body = service.handle("POST", "/query", {"queries": payloads})
    batched_s = time.perf_counter() - t0
    assert status == 200 and body["count"] == len(payloads)

    # Cached vs uncached execution through the router.
    seen: set[tuple] = set()
    distinct = []
    for payload in payloads:
        key = tuple(payload["values"])
        if key not in seen:
            seen.add(key)
            distinct.append(spec_from_dict(payload))
    router.cache.clear()
    t0 = time.perf_counter()
    for spec in distinct:
        router.execute(spec)
    uncached_us = (time.perf_counter() - t0) / len(distinct) * 1e6
    t0 = time.perf_counter()
    for spec in distinct:
        router.execute(spec)
    cached_us = (time.perf_counter() - t0) / len(distinct) * 1e6

    service.cube.close()
    return QueryLayerPoint(
        n_specs=len(payloads),
        build_us=build_us,
        codec_us=codec_us,
        per_request_ms=per_request_s * 1e3,
        batched_ms=batched_s * 1e3,
        uncached_us=uncached_us,
        cached_us=cached_us,
    )


def render_query_layer_table(point: QueryLayerPoint) -> str:
    lines = [
        f"query layer (spec overhead + dispatch, {point.n_specs} specs)",
        f"  spec build+key : {point.build_us:8.2f} µs/plan",
        f"  codec roundtrip: {point.codec_us:8.2f} µs/plan",
        f"  per-request    : {point.per_request_ms:8.1f} ms total",
        f"  batched        : {point.batched_ms:8.1f} ms total "
        f"({point.batch_speedup:.1f}x)",
        f"  uncached exec  : {point.uncached_us:8.1f} µs/query",
        f"  cached exec    : {point.cached_us:8.1f} µs/query "
        f"({point.cache_speedup:.1f}x)",
    ]
    return "\n".join(lines)


def query_layer_checks(point: QueryLayerPoint) -> list[tuple[str, bool]]:
    return [
        (
            "plans are cheap: construction + cache key under 1 ms",
            point.build_us < 1_000.0,
        ),
        (
            "batching amortizes dispatch: one N-spec request is not slower "
            "than N single requests (25% slack)",
            point.batched_ms < 1.25 * point.per_request_ms,
        ),
        (
            "cache: a hit is not slower than a miss (25% slack)",
            point.cached_us < 1.25 * point.uncached_us,
        ),
    ]


def json_entries(point: QueryLayerPoint, scale: str) -> list[dict]:
    """The machine-readable form of one run (see ``repro.bench.jsonout``)."""
    per_spec = [
        ("spec_build", point.build_us / 1e6),
        ("spec_codec_roundtrip", point.codec_us / 1e6),
        ("query_uncached", point.uncached_us / 1e6),
        ("query_cached", point.cached_us / 1e6),
    ]
    entries = [
        {"op": op, "scale": scale, "wall_s": round(wall, 9),
         "records_per_s": None}
        for op, wall in per_spec
    ]
    for op, wall_ms in (
        ("per_request_dispatch", point.per_request_ms),
        ("batched_dispatch", point.batched_ms),
    ):
        entries.append(
            {
                "op": op,
                "scale": scale,
                "n_specs": point.n_specs,
                "wall_s": round(wall_ms / 1e3, 6),
                "records_per_s": round(point.n_specs / (wall_ms / 1e3), 1),
            }
        )
    return entries


def main() -> int:
    from repro.bench.jsonout import json_path_from_args, write_bench_json
    from repro.bench.reporting import render_shape_checks
    from repro.bench.workloads import current_scale

    point = measure_query_layer()
    print(render_query_layer_table(point))
    checks = query_layer_checks(point)
    print(render_shape_checks(checks))
    json_path = json_path_from_args()
    if json_path:
        scale = current_scale().name
        target = write_bench_json(
            json_path, "query_layer", scale, json_entries(point, scale)
        )
        print(f"wrote {target}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
