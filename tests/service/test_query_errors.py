"""Query error paths: one spec, one validation, one error envelope.

Because every surface funnels through ``execute``, a bad plan must fail
identically through the Python API and the HTTP endpoint: same exception
type, same message, mapped to a 400 ``{"error", "type"}`` envelope on the
wire.  Covers the satellite checklist: invalid coord, bad dimension name,
roll-up past the o-layer, drill past the m-layer, siblings at ``*``.
"""

from __future__ import annotations

import pytest

from repro.cube.hierarchy import ALL, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import QueryError, ReproError, SchemaError
from repro.query import Q, execute
from repro.query.spec import spec_from_dict
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord


@pytest.fixture
def service():
    """A loaded service whose o-layer has a '*' dimension (for siblings)."""
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 2)),
            Dimension("b", FanoutHierarchy("b", 2, 2)),
        ]
    )
    layers = CriticalLayers(schema, (2, 2), (0, 1))
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=2, ticks_per_quarter=4
    )
    records = [
        StreamRecord((i, j), t, float(i + j) + 0.1 * t)
        for t in range(8)
        for i in range(4)
        for j in range(4)
    ]
    cube.ingest_batch(records)
    cube.advance_to(8)
    yield StreamCubeService(cube, QueryRouter(cube, window_quarters=2))
    cube.close()


ERROR_SPECS = [
    # (case id, spec) — every satellite error path.
    ("coord-out-of-schema", Q.cell((9, 9), (0, 0))),
    ("coord-outside-lattice", Q.cell((2, 0), (0, ALL))),
    ("bad-dimension-name", Q.drill_down((1, 1), (0, 0), "nope")),
    ("bad-cell-values", Q.cell((2, 2), (99, 0))),
    ("roll-up-past-o-layer", Q.roll_up((0, 1), (ALL, 0), "a")),
    ("drill-past-m-layer", Q.drill_down((2, 2), (0, 0), "a")),
    ("siblings-at-star", Q.siblings((0, 1), (ALL, 0), "a")),
    ("missing-required-field", Q.cell()),
    ("missing-dim", Q.roll_up((1, 1), (0, 0))),
]


class TestSameEnvelopeOnBothSurfaces:
    @pytest.mark.parametrize(
        "case,spec", ERROR_SPECS, ids=[case for case, _ in ERROR_SPECS]
    )
    def test_python_and_http_raise_identically(self, service, case, spec):
        merged = service.router.result()
        with pytest.raises(ReproError) as excinfo:
            execute(merged, spec)
        exc = excinfo.value

        status, body = service.handle("POST", "/query", spec.to_dict())
        assert status == 400, case
        assert body["type"] == type(exc).__name__, case
        assert body["error"] == str(exc), case

    @pytest.mark.parametrize(
        "case,spec", ERROR_SPECS, ids=[case for case, _ in ERROR_SPECS]
    )
    def test_batch_entry_carries_the_same_envelope(self, service, case, spec):
        merged = service.router.result()
        with pytest.raises(ReproError) as excinfo:
            execute(merged, spec)
        exc = excinfo.value

        status, body = service.handle(
            "POST", "/query", {"queries": [{"op": "watch_list"}, spec.to_dict()]}
        )
        assert status == 200  # batches report per-spec errors, not 400s
        good, bad = body["results"]
        assert good["ok"] is True
        assert bad["ok"] is False
        assert bad["type"] == type(exc).__name__, case
        assert bad["error"] == str(exc), case

    def test_construction_errors_match_decode_errors(self, service):
        """Specs invalid at construction (bad k) fail the same on the wire."""
        with pytest.raises(QueryError) as excinfo:
            Q.top_slopes((1, 1), k=0)
        payload = {"op": "top_slopes", "coord": [1, 1], "k": 0}
        with pytest.raises(QueryError) as wire_excinfo:
            spec_from_dict(payload)
        assert str(wire_excinfo.value) == str(excinfo.value)

        status, body = service.handle("POST", "/query", payload)
        assert status == 400
        assert body["type"] == "QueryError"
        assert body["error"] == str(excinfo.value)


class TestExpectedTypes:
    """Pin the exception classes so envelopes stay stable for clients."""

    def test_types(self, service):
        merged = service.router.result()
        expectations = {
            "coord-out-of-schema": SchemaError,
            "coord-outside-lattice": SchemaError,
            "bad-dimension-name": SchemaError,
            "roll-up-past-o-layer": QueryError,
            "drill-past-m-layer": QueryError,
            "siblings-at-star": QueryError,
            "missing-required-field": QueryError,
            "missing-dim": QueryError,
        }
        by_case = dict(ERROR_SPECS)
        for case, exc_type in expectations.items():
            with pytest.raises(exc_type):
                execute(merged, by_case[case])
